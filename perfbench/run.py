"""Benchmark of the ``stokes-darcy`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each repetition starts one fresh
process (``child.py``) that runs one CLI command, waits for it to end
and checks its outputs; the next repetition starts only after that.
Repetitions continue while one more, taking as long as the median one
so far, ends within ``--seconds`` of the start of the run (at least
one), so a run stays within about ``--seconds``.

With ``--trace 0`` the end-to-end metrics are reported, each the
median over the run's repetitions:

- ``wall_s``: from starting the process to the command's outputs
  being written;
- ``setup_s``: from starting the process to the config being parsed
  (interpreter start and package import), also measured by extra
  processes that stop there;
- ``peak_rss_mb``: peak resident memory of that process alone, from
  its own rusage returned by ``wait4``.

With ``--trace 1`` the repetitions alternate between an untraced and a
traced process; the traced one wraps every layer (``tracer.py``) and
yields the per-layer self times and counts, and the tracing overhead
is the traced minus the untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, and a file under ``.perfbench/results/``, record the run's
environment (git SHA when available, digest of ``src/``, ``nproc``,
versions, seed, thread settings) and every repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, CheckFailed, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: A run must end within this many seconds, whatever ``--seconds`` is.
RUN_BUDGET_S = 170.0
#: Set-up-only processes started before the repetitions of every run.
SETUP_PROBES = 5
#: BLAS and OpenMP threads per process: with ``--threads 2`` the
#: program then never runs more threads than the two cores it targets.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.factor_s": "s",
    "linalg.factor_calls": "count",
    "linalg.factor_nnz": "count",
    "linalg.trisolve_s": "s",
    "linalg.trisolve_calls": "count",
    "linalg.krylov_s": "s",
    "linalg.krylov_iterations": "count",
    "linalg.krylov_breakdowns": "count",
    "icdd.schur_apply_s": "s",
    "icdd.schur_apply_calls": "count",
    "fem.assemble_s": "s",
    "fem.assemble_calls": "count",
    "fem.extract_s": "s",
    "fem.dofs": "count",
    "mesh.build_s": "s",
    "mesh.nodes": "count",
    "dns.solve_s": "s",
    "dns.sample_rows_s": "s",
    "io.write_s": "s",
    "io.bytes": "bytes",
    "homogenize.cell_s": "s",
    "validate.quadrature_s": "s",
    "validate.quadrature_calls": "count",
    "validate.member_s_max": "s",
    "validate.pool_idle_s": "s",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    return env


def run_process(
    name: str, seed: int, deadline: float, *, trace=False, setup_only=False, verify=check
) -> dict:
    """Start one child process for a workload and wait for it to end.

    ``verify(name, out_dir)`` checks the outputs before they are
    deleted and raises :class:`CheckFailed` if they are wrong.
    """
    workload = WORKLOADS[name]
    work = WORK / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "run.ini"
        config.write_text(workload.config_text(seed))
        sidecar = work / "sidecar.json"
        out_dir = work / "out"
        argv = [sys.executable, str(HERE / "child.py"), "--sidecar", str(sidecar)]
        argv += ["--trace"] if trace else []
        argv += ["--setup-only"] if setup_only else []
        argv += ["--", workload.command, "--config", str(config), "--out", str(out_dir)]
        argv += ["--threads", str(workload.threads)]
        with open(work / "output.txt", "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
            )
            killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
            killer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                if status is None:  # interrupted: do not leave the child behind
                    proc.kill()
                    os.waitpid(proc.pid, 0)
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rep = {
            "trace": trace,
            "exit": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "ok": False,
        }
        try:
            record = json.loads(sidecar.read_text())
        except (OSError, ValueError):
            record = {}
        rep["setup_s"] = record.get("t_ready", end) - start
        rep["wall_s"] = record.get("t_done", end) - start
        rep["versions"] = record.get("versions")
        if "layers" in record:
            rep["layers"] = record["layers"]
            rep["spans"] = record["spans"]
        if proc.returncode != 0 or "t_ready" not in record:
            tail = (work / "output.txt").read_text(errors="replace")[-2000:]
            rep["error"] = f"exit status {proc.returncode}: {tail}"
        elif setup_only:
            rep["ok"] = True
        else:
            try:
                verify(name, out_dir)
                rep["ok"] = True
            except (CheckFailed, OSError, LookupError, ValueError) as err:
                rep["error"] = f"check failed: {err!r}"
        return rep
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end_metrics(probes, reps) -> dict:
    done = [r for r in reps if r["ok"]] or reps
    values = {
        "wall_s": statistics.median([r["wall_s"] for r in done]),
        "setup_s": statistics.median([r["setup_s"] for r in probes + done]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in done]),
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer_metrics(reps) -> dict:
    """Per-layer values of the traced repetitions.

    Each is the lower median, a value one repetition measured, so counts
    stay whole numbers.
    """
    traced = [r for r in reps if "layers" in r]

    def low(values):
        # Empty only if every traced process failed (correct is false).
        return statistics.median_low(values) if values else 0

    def wall(trace):
        return statistics.median([r["wall_s"] for r in reps if r["trace"] == trace])

    values = {}
    for key in PER_LAYER:
        if key == "cli.cpu_s":
            values[key] = low([r["cpu_s"] for r in traced])
        elif key == "trace.overhead_s":
            values[key] = wall(True) - wall(False)
        else:
            values[key] = low([r["layers"].get(key, 0) for r in traced])
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def environment(name: str, seed: int, trace: bool) -> dict:
    sha = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass  # not a git checkout: the digest of src/ identifies the code
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "threads": WORKLOADS[name].threads,
        "thread_env": THREAD_ENV,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "stokesdarcy" / "cli.py").is_file():
        print(f"error: no stokesdarcy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    begin = time.monotonic()
    deadline = begin + RUN_BUDGET_S
    probes = [
        run_process(args.workload, args.seed, deadline, setup_only=True)
        for _ in range(SETUP_PROBES)
    ]
    reps = []
    rounds = []
    while True:
        started = time.monotonic()
        if args.trace:
            reps.append(run_process(args.workload, args.seed, deadline))
        reps.append(run_process(args.workload, args.seed, deadline, trace=bool(args.trace)))
        now = time.monotonic()
        rounds.append(now - started)
        expected = statistics.median(rounds)
        if now + expected > begin + args.seconds or now + 2 * expected > deadline:
            break

    metrics = per_layer_metrics(reps) if args.trace else end_to_end_metrics(probes, reps)
    failed = sum(not r["ok"] for r in reps) + sum(not p["ok"] for p in probes)
    result = {
        "correct": failed == 0,
        "attempted": len(reps) + len(probes),
        "failed": failed,
        "metrics": metrics,
    }
    versions = [r.pop("versions") for r in probes + reps]
    record = {
        "environment": environment(args.workload, args.seed, bool(args.trace)),
        "versions": next((v for v in versions if v), None),
        "setup_probes": probes,
        "repetitions": reps,
        "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for rep in reps + probes:
        if "error" in rep:
            print(f"failed: {rep['error']}", file=sys.stderr)
    summary = {k: v for k, v in record.items() if k != "repetitions"}
    summary["repetitions"] = [
        {k: v for k, v in r.items() if k != "spans"} for r in reps
    ]
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
