"""Per-layer spans and counts around the public functions of stokesdarcy.

The tracer lives in the benchmark, not in the program: :func:`install`
replaces each traced function with a timing wrapper in every module
that holds a reference to it, because the program imports most of
these functions by name (``factorize`` into ``fem``, ``icdd`` and
``homogenize``; ``bicgstab`` into ``icdd``).  Methods and cached
properties are replaced on their class.

A layer's self time is its span's duration minus the time covered by
spans nested directly inside it on the same thread, so time spent in
nested layers is counted once, in the innermost one.
Spans stay in memory until :meth:`Tracer.summary` is called at the
end of the run.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter


class Tracer:
    """Collects spans, self time per layer, and work counts."""

    def __init__(self):
        self.spans = []  # (layer, parent layer or None, thread id, start, end)
        self.self_s = Counter()
        self.counts = Counter()
        self.maps = []  # (start, workers) of each study-member map
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn, layer, count=None):
        """Return ``fn`` recording a ``layer`` span per call.

        ``count(counts, args, kwargs, result)`` adds work counts after
        the call; it runs outside the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [layer, time.monotonic(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                with self._lock:
                    self.self_s[layer] += duration - frame[2]
                    self.spans.append(
                        (
                            layer,
                            parent[0] if parent else None,
                            threading.get_ident(),
                            frame[1],
                            end,
                        )
                    )
            if count is not None:
                with self._lock:
                    count(self.counts, args, kwargs, result)
            return result

        return traced

    def map_started(self, workers: int) -> None:
        """Note that study members start on ``workers`` threads."""
        with self._lock:
            self.maps.append((time.monotonic(), workers))

    def summary(self) -> dict:
        """Per-layer metrics of the run, keyed by metric name."""
        members = [s for s in self.spans if s[0] == "validate.member"]
        durations = [end - start for _, _, _, start, end in members]
        idle = 0.0
        if members and self.maps:
            start = min(t for t, _ in self.maps)
            workers = min(max(w for _, w in self.maps), len(members))
            last_end = max(s[4] for s in members)
            idle = workers * (last_end - start) - sum(durations)
        out = {f"{layer}_s": value for layer, value in self.self_s.items()}
        out.update(self.counts)
        out["validate.member_s_max"] = max(durations, default=0.0)
        out["validate.pool_idle_s"] = idle
        return out


def _count_calls(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1

    return count


def _count_factor(counts, args, kwargs, result):
    counts["linalg.factor_calls"] += 1
    # SuperLU's stored nonzeros of L (supernodal) and U.  Reading
    # ``.L``/``.U`` instead would build both factors as new matrices
    # and roughly double the peak memory of the coupled solve.
    counts["linalg.factor_nnz"] += result._lu.nnz


def _count_krylov(counts, args, kwargs, result):
    info = result[1]
    counts["linalg.krylov_iterations"] += info["iterations"]
    counts["linalg.krylov_breakdowns"] += info["breakdowns"]


def _count_assembly(counts, args, kwargs, result):
    counts["fem.assemble_calls"] += 1
    counts["fem.dofs"] += result.matrix.shape[0]


def _count_mesh(counts, args, kwargs, result):
    counts["mesh.nodes"] += args[0].n_nodes


def _count_write(counts, args, kwargs, result):
    counts["io.bytes"] += os.path.getsize(args[0])


def _patch_everywhere(tracer, fn, layer, count=None):
    """Replace ``fn`` by its traced version in every stokesdarcy module."""
    traced = tracer.wrap(fn, layer, count)
    found = False
    for name, module in list(sys.modules.items()):
        if name != "stokesdarcy" and not name.startswith("stokesdarcy."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, traced)
                found = True
    if not found:
        raise RuntimeError(f"{fn.__module__}.{fn.__name__} is not referenced")


def _patch_method(tracer, cls, name, layer, count=None):
    setattr(cls, name, tracer.wrap(vars(cls)[name], layer, count))


def _patch_cached_property(tracer, cls, name, layer):
    prop = functools.cached_property(
        tracer.wrap(vars(cls)[name].func, layer)
    )
    prop.__set_name__(cls, name)
    setattr(cls, name, prop)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported ``stokesdarcy.cli``."""
    from stokesdarcy import cli, dns, fem, homogenize, icdd, io, linalg, mesh
    from stokesdarcy import validate

    _patch_everywhere(tracer, linalg.factorize, "linalg.factor", _count_factor)
    _patch_method(
        tracer,
        linalg.Factorization,
        "solve",
        "linalg.trisolve",
        _count_calls("linalg.trisolve_calls"),
    )
    _patch_everywhere(tracer, linalg.bicgstab, "linalg.krylov", _count_krylov)
    _patch_everywhere(
        tracer,
        icdd.schur_apply,
        "icdd.schur_apply",
        _count_calls("icdd.schur_apply_calls"),
    )
    for fn in (
        fem.assemble_stokes,
        fem.assemble_darcy,
        fem.assemble_cell_problem,
    ):
        _patch_everywhere(tracer, fn, "fem.assemble", _count_assembly)
    for name in ("interior_matrix", "interface_matrix", "interior_rhs"):
        _patch_cached_property(tracer, fem.SaddleSystem, name, "fem.extract")
    _patch_method(tracer, mesh.StructuredMesh, "__init__", "mesh.build", _count_mesh)
    _patch_everywhere(tracer, mesh.build_perforated_mesh, "mesh.build")
    _patch_everywhere(tracer, dns.solve_dns, "dns.solve")
    _patch_method(tracer, dns.DnsSolution, "sample_rows", "dns.sample_rows")
    for fn in (io.write_csv, io.write_vtk, io.write_manifest):
        _patch_everywhere(tracer, fn, "io.write", _count_write)
    _patch_everywhere(tracer, homogenize.solve_cell_problem, "homogenize.cell")
    for fn in (validate.l2_error, validate.l2_norm):
        _patch_everywhere(
            tracer,
            fn,
            "validate.quadrature",
            _count_calls("validate.quadrature_calls"),
        )

    # Study members run through the map function that cmd_validate and
    # cmd_sweep get from ``cli._mapper``; wrapping it times each member.
    make_mapper = cli._mapper

    def traced_mapper(threads, pool_holder):
        inner = make_mapper(threads, pool_holder)

        def mapped(fn, *iterables):
            tracer.map_started(threads)
            return inner(tracer.wrap(fn, "validate.member"), *iterables)

        return mapped

    cli._mapper = traced_mapper
