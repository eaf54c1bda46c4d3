"""Record the reference outputs that ``run.py`` checks every run against.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each named workload (default: all) once at seed 0 and stores the
checked values of its outputs in ``perfbench/reference.json``.  Record
again only when a change is meant to alter the results themselves.
"""

import json
import sys
import time

from run import run_process
from workloads import REFERENCE, WORKLOADS, extract


def main(names) -> int:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}

    def record(name, out_dir):
        refs[name] = {"seed": 0, **extract(WORKLOADS[name].command, out_dir)}

    for name in names or sorted(WORKLOADS):
        rep = run_process(name, 0, time.monotonic() + 600.0, verify=record)
        if not rep["ok"]:
            print(f"{name}: {rep['error']}", file=sys.stderr)
            return 1
        print(f"{name}: recorded ({rep['wall_s']:.1f} s)")
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
