"""Direct factorization and BiCGStab."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdarcy import dns, fem, homogenize, icdd, linalg
from stokesdarcy.dns import DnsResolution, solve_dns
from stokesdarcy.icdd import assemble_problem, icdd_solve
from stokesdarcy.linalg import (
    KrylovConfig,
    Factorization,
    bicgstab,
    factorize,
)
from stokesdarcy.presets import CONFIGURATIONS, PRESETS


def _random_system(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Well-conditioned dense test matrix and right-hand side."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    return a, b


def _dominant_block(seed: int, n: int, density: float) -> sp.csc_matrix:
    """Random sparse, nonsymmetric block whose diagonal dominates each
    row, with diagonal entries of either sign."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(a, 0.0)
    dominant = np.abs(a).sum(axis=1) + rng.uniform(0.5, 2.0, n)
    np.fill_diagonal(a, rng.choice([-1.0, 1.0], n) * dominant)
    return sp.csc_matrix(a)


def _ordered(a: np.ndarray, order) -> sp.csc_matrix:
    """Block of ``a`` over ``order``, in that order."""
    return linalg.ordered_block(sp.csc_matrix(a), np.asarray(order))


def _nbytes(matrix) -> int:
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


class TestKrylovConfig:
    def test_defaults(self):
        config = KrylovConfig()
        assert config.tol == 1e-8
        assert config.maxiter == 200
        assert config.seed == 0

    @pytest.mark.parametrize(
        ("tol", "maxiter"), [(-1e-8, 10), (1e-8, 0), (1.0, 10), (1e300, 10)]
    )
    def test_invalid_raises(self, tol, maxiter):
        with pytest.raises(ValueError):
            KrylovConfig(tol=tol, maxiter=maxiter)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            KrylovConfig(seed=-1)


class TestFactorization:
    @given(seed=st.integers(0, 50), n=st.integers(2, 30))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_solve(self, seed, n):
        a, b = _random_system(n, seed)
        factor = factorize(sp.csc_matrix(a))
        np.testing.assert_allclose(
            factor.solve(b), np.linalg.solve(a, b), rtol=1e-9, atol=1e-12
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        density=st.floats(0.05, 0.5),
        k=st.integers(-60, 60),
    )
    @settings(max_examples=50, deadline=None)
    def test_each_solve_checks_its_own_backward_error(self, seed, n, density, k):
        """Scaling ``b`` by ``2**k`` scales ``x`` exactly and keeps the
        backward error; a zero ``b`` gives zero and error 0; the health
        reports the largest error over the solves made."""
        block = _dominant_block(seed, n, density)
        b = np.random.default_rng(seed).standard_normal(n)
        rhs = (b, 2.0**k * b, np.zeros(n))
        solutions, errors = [], []
        for r in rhs:
            factor = factorize(block)
            solutions.append(factor.solve(r))
            errors.append(factor.backward_error)
        x, x_scaled, x_zero = solutions
        np.testing.assert_array_equal(x_scaled, 2.0**k * x)
        assert errors[1] == errors[0] <= linalg.BACKWARD_ERROR_BOUND
        assert not x_zero.any() and errors[2] == 0.0
        factor = factorize(block)
        for r in rhs:
            factor.solve(r)
        assert factor.backward_error == max(errors)
        assert factor.health()["backward_error"] == f"{max(errors):.2e}"

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        density=st.floats(0.05, 0.5),
        k=st.integers(-200, 200),
    )
    @settings(max_examples=50, deadline=None)
    def test_single_precision_refines_to_double(self, seed, n, density, k):
        """A float32 factor refined in float64 gives the float64
        factor's ``x`` to 1e-13 in at most three solves; scaling ``b``
        by ``2**k`` scales ``x`` exactly and keeps the backward error; a
        zero ``b`` gives zero and error 0.  The blocks are gathered in a
        random order, so their row indices start unsorted."""
        rng = np.random.default_rng(seed)
        dense = _dominant_block(seed, n, density).toarray()
        order = rng.permutation(n)
        b = rng.standard_normal(n)
        x_double = linalg._splu(_ordered(dense, order)).solve(b)
        solutions, errors = [], []
        for r in (b, 2.0**k * b, np.zeros(n)):
            factor = factorize(_ordered(dense, order))
            solutions.append(factor.solve(r))
            errors.append(factor.backward_error)
            assert factor.precision == "float32"
            assert factor.refinement_steps <= 3
            # The kept block, sorted in place, still holds its values.
            np.testing.assert_array_equal(
                factor._block.toarray(), dense[np.ix_(order, order)]
            )
        x, x_scaled, x_zero = solutions
        assert np.abs(x - x_double).max() <= 1e-13 * np.abs(x_double).max()
        np.testing.assert_array_equal(x_scaled, 2.0**k * x)
        assert errors[1] == errors[0] <= linalg.BACKWARD_ERROR_BOUND
        assert not x_zero.any() and errors[2] == 0.0
        assert factor.refinement_steps == 0

    def test_ill_conditioned_single_factor_refactors_in_double(self):
        # Condition number 1e10: float32 refinement cannot converge, so
        # the first solve warns, refactors in double precision and
        # returns that factor's checked solution.
        rng = np.random.default_rng(0)
        n = 40
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = u @ np.diag(np.logspace(0, -10, n)) @ v.T
        assert 0.5e10 < np.linalg.cond(a) < 2e10
        b = rng.standard_normal(n)
        factor = factorize(sp.csc_matrix(a))
        with pytest.warns(RuntimeWarning, match="refactoring in double precision"):
            x = factor.solve(b)
        health = factor.health()
        assert health["precision"] == "float64"
        assert 1 <= health["refinement_steps"] <= linalg.MAX_REFINEMENT_STEPS
        assert factor.backward_error <= linalg.BACKWARD_ERROR_BOUND
        np.testing.assert_array_equal(x, linalg._splu(sp.csc_matrix(a)).solve(b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor.solve(b)

    def test_multiple_right_hand_sides(self):
        a, _ = _random_system(12, 3)
        rng = np.random.default_rng(4)
        bs = rng.standard_normal((12, 3))
        factor = factorize(sp.csc_matrix(a))
        for j in range(3):
            np.testing.assert_allclose(
                factor.solve(bs[:, j]), np.linalg.solve(a, bs[:, j]), rtol=1e-9
            )

    def test_singular_raises(self):
        a = sp.csc_matrix(np.zeros((4, 4)))
        with pytest.raises((RuntimeError, ValueError)):
            factorize(a).solve(np.ones(4))

    @pytest.mark.parametrize(
        "block", [sp.csr_matrix(np.eye(3)), sp.csc_matrix(np.ones((3, 2)))]
    )
    def test_block_must_be_square_csc(self, block):
        with pytest.raises(ValueError, match="square CSC"):
            factorize(block)


class TestOrderedFactorization:
    def test_solve_above_bound_raises(self, monkeypatch):
        # A bound below any nonzero backward error: refinement misses it,
        # so the factor is remade in double precision, with a warning,
        # and that solve raises.  The failed solve is not recorded.
        monkeypatch.setattr(linalg, "BACKWARD_ERROR_BOUND", 1e-300)
        a, b = _random_system(30, 5)
        factor = factorize(_ordered(a, np.arange(30)[::-1]))
        with pytest.warns(RuntimeWarning, match="refactoring in double precision"):
            with pytest.raises(
                RuntimeError,
                match=r"backward error \d\.\d\de-\d\d of a sparse direct solve "
                r"with 30 unknowns exceeds 1e-300",
            ):
                factor.solve(b)
        assert factor.health()["backward_error"] == "0.00e+00"

    def test_order_must_be_permutation(self):
        a, _ = _random_system(5, 1)
        repeated = np.array([0, 1, 2, 3, 3])
        with pytest.raises(ValueError, match="permutation"):
            linalg.ordered_block(sp.csc_matrix(a), repeated)

    def test_principal_submatrix(self):
        # The factor of a[order][:, order] solves over the indices in
        # ``order``, in that order.
        a, _ = _random_system(40, 7)
        a[np.abs(a) < 1.0] = 0.0
        order = np.array([17, 3, 30, 8, 25, 0, 39, 12, 21, 5])
        b = np.random.default_rng(8).standard_normal(order.size)
        factor = factorize(_ordered(a, order))
        assert factor.shape == (order.size, order.size)
        np.testing.assert_allclose(
            factor.solve(b), np.linalg.solve(a[np.ix_(order, order)], b), rtol=1e-9
        )

    @pytest.mark.parametrize(
        ("diagonal", "interchanges"),
        [
            (2.0, 0),
            (2.0 * linalg.DIAG_PIVOT_THRESH, 0),
            (0.5 * linalg.DIAG_PIVOT_THRESH, 2),
        ],
    )
    def test_row_interchanges_counted(self, diagonal, interchanges):
        # A diagonal entry is kept as pivot down to DIAG_PIVOT_THRESH of
        # the largest entry in its column; below that, its row and the
        # largest entry's row trade places.
        a = sp.csc_matrix([[diagonal, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        health = factorize(a).health()
        assert health["row_interchanges"] == interchanges

    @pytest.mark.parametrize("order", [[0, 5], [-1, 2]])
    def test_order_out_of_range_raises(self, order):
        a, _ = _random_system(5, 1)
        with pytest.raises(ValueError, match="indices"):
            linalg.ordered_block(sp.csc_matrix(a), np.array(order))

    def test_out_of_memory_names_unknowns(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Can't expand MemType 1: jcol 3")

        monkeypatch.setattr(linalg.spla, "splu", exhausted)
        a, _ = _random_system(6, 2)
        with pytest.raises(RuntimeError, match="4 unknowns ran out of memory"):
            factorize(_ordered(a, [0, 2, 4, 5]))

    def test_block_holds_only_its_entries(self):
        # Most entries are kept, as in a system's interior block, so a
        # view of the first ones would not be copied by scipy.
        a, _ = _random_system(40, 7)
        a[np.abs(a) < 1.0] = 0.0
        order = np.random.default_rng(3).permutation(40)[:36]
        block = _ordered(a, order)
        np.testing.assert_array_equal(block.toarray(), a[np.ix_(order, order)])
        for array in (block.data, block.indices):
            assert array.size == block.nnz
            assert array.base is None or array.base.size == block.nnz


class TestFactorCopies:
    """While SuperLU factors, the system's assembled matrix is gone.
    Every factor is made in single precision: SuperLU's argument is a
    float32 copy of the block's values that shares the block's index
    arrays, the block is the only other matrix of the factored size,
    and the factor then keeps that block, not a copy."""

    @staticmethod
    def watch(monkeypatch):
        """Record, per ``splu`` call, its argument and keyword arguments
        and the other live matrices of its size."""
        calls, arguments = [], []
        real = linalg.spla.splu

        def splu(a, *args, **kwargs):
            gc.collect()
            calls.append(
                {
                    id(o)
                    for o in gc.get_objects()
                    if sp.issparse(o) and o.shape == a.shape and o is not a
                }
            )
            arguments.append((a, kwargs))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(linalg.spla, "splu", splu)
        return calls, arguments

    @staticmethod
    def holds_only(factor, block):
        """The factor's one matrix is ``block`` itself, not a copy."""
        matrices = [v for v in vars(factor).values() if sp.issparse(v)]
        return len(matrices) == 1 and matrices[0] is block

    def check_single(self, monkeypatch, watched, factor, block):
        """The one ``splu`` call factored a float32 copy of ``block``
        sharing its sorted index arrays, in panels of
        :data:`linalg.PANEL_SIZE` columns, beside no matrix of its size
        but ``block``, which ``factor`` keeps as its only matrix.  The
        factor is the one SuperLU makes at its default panel width: the
        same entries and row order, and refined solves of one load that
        agree to 1e-9."""
        calls, arguments = watched
        assert calls == [{id(block)}]
        ((a, kwargs),) = arguments
        assert kwargs["panel_size"] == linalg.PANEL_SIZE
        assert block.dtype == np.float64 and a.dtype == np.float32
        np.testing.assert_array_equal(a.data, block.data.astype(np.float32))
        assert np.shares_memory(a.indices, block.indices)
        assert np.shares_memory(a.indptr, block.indptr)
        assert block.has_sorted_indices
        assert factor.precision == "float32"
        assert self.holds_only(factor, block)
        monkeypatch.setattr(linalg, "PANEL_SIZE", None)
        default = factorize(block.copy())
        assert factor._lu.nnz == default._lu.nnz
        np.testing.assert_array_equal(factor._lu.perm_r, default._lu.perm_r)
        b = np.random.default_rng(0).standard_normal(block.shape[0])
        x, x_default = factor.solve(b), default.solve(b)
        assert np.abs(x - x_default).max() <= 1e-9 * np.abs(x_default).max()

    @pytest.mark.parametrize("order", [1, 2])
    def test_dns_factor(self, monkeypatch, dns_systems, order):
        watched = self.watch(monkeypatch)
        preset = PRESETS[1]
        solve_dns(
            preset, preset.lattice(0.25, 0.6), DnsResolution(n_per_cell=5, order=order)
        )
        (system,) = dns_systems
        self.check_single(monkeypatch, watched, system.factor, system._pieces[0])

    def test_icdd_subdomain_factors(self, monkeypatch):
        watched = self.watch(monkeypatch)
        problem = assemble_problem(2, 0.036, 0.1, PRESETS[1], 7.231e-6)
        # The Darcy solver is a tensor-product one: it keeps its block
        # too, and makes no SuperLU call (``check_single`` finds one, the
        # Stokes subdomain's).
        assert self.holds_only(problem.darcy.factor, problem.darcy._pieces[0])
        self.check_single(
            monkeypatch, watched, problem.stokes.factor, problem.stokes._pieces[0]
        )

    def test_cell_factor(self, monkeypatch):
        watched = self.watch(monkeypatch)
        systems = []
        inner = homogenize.assemble_cell_problem

        def recording(mesh):
            systems.append(inner(mesh))
            return systems[-1]

        monkeypatch.setattr(homogenize, "assemble_cell_problem", recording)
        blocks, factors = [], []

        def recording_factorize(block):
            blocks.append(block)
            factors.append(factorize(block))
            return factors[-1]

        monkeypatch.setattr(fem, "factorize", recording_factorize)
        homogenize.solve_cell_problem(0.6, resolution=10)
        (system,) = systems
        assert system.matrix is None
        self.check_single(monkeypatch, watched, factors[0], blocks[0])

    @pytest.mark.parametrize("case", ["dns", "subdomains", "cell"])
    def test_assembled_matrix_gone_when_splu_runs(self, monkeypatch, case):
        # Per splu call, the assemblers whose matrix is no longer alive
        # (no garbage collection is forced).
        refs, dead = {}, []

        def record(module, name):
            inner = getattr(module, name)

            def recording(*args, **kwargs):
                system = inner(*args, **kwargs)
                refs[name] = weakref.ref(system.matrix)
                return system

            monkeypatch.setattr(module, name, recording)

        real = linalg.spla.splu

        def splu(a, *args, **kwargs):
            dead.append(sorted(name for name, ref in refs.items() if ref() is None))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(linalg.spla, "splu", splu)
        preset = PRESETS[1]
        if case == "dns":
            record(dns, "assemble_stokes")
            solve_dns(
                preset, preset.lattice(0.25, 0.6), DnsResolution(n_per_cell=5, order=2)
            )
            assert dead == [["assemble_stokes"]]
        elif case == "subdomains":
            record(icdd, "assemble_stokes")
            record(icdd, "assemble_darcy")
            built = []
            tensor_solver = fem.TensorSolver

            def recording_solver(*args, **kwargs):
                built.append(sorted(n for n, ref in refs.items() if ref() is None))
                return tensor_solver(*args, **kwargs)

            monkeypatch.setattr(fem, "TensorSolver", recording_solver)
            problem = assemble_problem(2, 0.036, 0.1, preset, 7.231e-6)
            icdd_solve(problem, KrylovConfig())
            # The Stokes subdomain is factored first, by SuperLU; the
            # Darcy one gets a tensor-product solver, built once its
            # assembled matrix is gone too.
            assert dead == [["assemble_stokes"]]
            assert built == [["assemble_darcy", "assemble_stokes"]]
        else:
            # The Stokes system the cell is folded from, and the folded
            # operator its block is gathered from (the block itself is
            # the cell system's matrix, which SuperLU factors).
            record(fem, "assemble_stokes")
            gather = fem.ordered_block

            def recording_gather(matrix, order):
                refs["folded"] = weakref.ref(matrix)
                return gather(matrix, order)

            monkeypatch.setattr(fem, "ordered_block", recording_gather)
            homogenize.solve_cell_problem(0.6, resolution=10)
            assert dead == [["assemble_stokes", "folded"]]


    @pytest.mark.parametrize("case", ["dns", "subdomains"])
    def test_load_gathered_once_matrix_is_gone(self, monkeypatch, case):
        # ``SaddleSystem.solve`` on a fresh system factors before it
        # gathers the interior load, so the assembled matrix is dropped
        # before any piece is gathered.
        dropped = []
        inner = fem.SaddleSystem.interior_rhs

        def recording(system):
            dropped.append(system.matrix is None)
            return inner.func(system)

        monkeypatch.setattr(fem.SaddleSystem, "interior_rhs", property(recording))
        preset = PRESETS[1]
        if case == "dns":
            solve_dns(
                preset, preset.lattice(0.25, 0.6), DnsResolution(n_per_cell=5, order=2)
            )
        else:
            problem = assemble_problem(2, 0.036, 0.1, preset, 7.231e-6)
            icdd_solve(problem, KrylovConfig())
        assert dropped and all(dropped)


class TestHeapTrim:
    """Before SuperLU runs, the C heap's free pages are returned."""

    def test_factorize_without_malloc_trim(self, monkeypatch):
        # A C library without ``malloc_trim``: nothing is trimmed, and
        # the factor is made and solves as before.
        monkeypatch.setattr(linalg, "_malloc_trim", False)
        a, b = _random_system(20, 3)
        x = factorize(sp.csc_matrix(a)).solve(b)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-12)

    def test_lookup_made_once(self, monkeypatch):
        monkeypatch.setattr(linalg, "_malloc_trim", None)
        linalg._trim_heap()
        found = linalg._malloc_trim
        assert found is False or callable(found)
        linalg._trim_heap()
        assert linalg._malloc_trim is found

    def test_once_per_splu_never_for_tensor_solver(self, monkeypatch):
        events = []
        monkeypatch.setattr(linalg, "_malloc_trim", lambda pad: events.append("trim"))
        real = linalg.spla.splu

        def splu(*args, **kwargs):
            events.append("splu")
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg.spla, "splu", splu)
        problem = assemble_problem(1, 0.036, 0.1, PRESETS[1], 7.231e-6)
        assert isinstance(problem.darcy.factor, linalg.TensorSolver)
        assert events == []
        problem.stokes.factor
        assert events == ["trim", "splu"]
        # The double-precision refactor is a second SuperLU call.
        monkeypatch.setattr(linalg, "BACKWARD_ERROR_BOUND", 1e-300)
        with pytest.warns(RuntimeWarning, match="refactoring in double precision"):
            with pytest.raises(RuntimeError, match="backward error"):
                problem.stokes.solve()
        assert events == ["trim", "splu"] * 2


#: Factors one pore-scale block of ``configs/dns.ini`` in a fresh
#: interpreter, in panels of ``sys.argv[1]`` columns, and prints the
#: process's peak resident memory in KiB.  That is Linux's ``VmHWM``:
#: ``ru_maxrss`` starts at the peak of the process that started it.
_PEAK_SCRIPT = """\
import sys
from stokesdarcy import linalg
from stokesdarcy.fem import assemble_stokes
from stokesdarcy.mesh import build_perforated_mesh
from stokesdarcy.presets import CONFIGURATIONS, PRESETS
linalg.PANEL_SIZE = int(sys.argv[1])
preset = PRESETS[1]
lattice = preset.lattice(0.1, CONFIGURATIONS["C1"].size_ratio)
mesh = build_perforated_mesh(preset.domain, lattice, 10, order=2)
system = assemble_stokes(mesh, mu=preset.mu, f=preset.force,
                         bc=preset.dns_bc(), null_mean_pressure=preset.pin_pressure)
assert system.factor.precision == "float32"
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


class TestPanelSize:
    """SuperLU factors in panels of :data:`linalg.PANEL_SIZE` columns,
    in less memory than at its default width of 20 (the same factor:
    see :meth:`TestFactorCopies.check_single`)."""

    def test_at_most_superlu_default(self):
        assert 1 <= linalg.PANEL_SIZE <= 20

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_peak_memory_below_default_width(self):
        # Two fresh interpreters run at once, each factoring the block
        # of ``configs/dns.ini`` (53,098 unknowns): the factor sets the
        # process's peak, which the narrow panel lowers by about 10 MB.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(linalg.__file__))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", _PEAK_SCRIPT, str(width)],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
            for width in (linalg.PANEL_SIZE, 20)
        ]
        narrow, default = (int(run.communicate(timeout=120)[0]) for run in runs)
        assert default - narrow >= 5 * 1024, f"{(default - narrow) / 1024:.1f} MB"


class _DoubleFactor:
    """Double-precision SuperLU factor of a block, standing in for a
    system's single-precision one.  It is made in the same order and
    with the same options (:func:`linalg._splu`): a COLAMD-ordered
    factor differs by roundoff alone up to 1.6e-10 in the porous
    velocity of preset 1, which would hide the precision's effect."""

    def __init__(self, block):
        self._lu = linalg._splu(block)

    def solve(self, b):
        return self._lu.solve(b)

    def health(self):
        return {}


@given(
    preset=st.sampled_from([1, 2, 3]),
    configuration=st.sampled_from(["C1", "C2"]),
    order=st.sampled_from([1, 2]),
    hx=st.sampled_from([1 / 24, 1 / 36, 1 / 48]),
    ell=st.sampled_from([0.1, 0.05]),
)
@settings(max_examples=10, deadline=None)
def test_single_precision_subdomain_and_cell_factors(
    preset, configuration, order, hx, ell
):
    """The coupled solve with a single-precision Stokes factor gives,
    field by field, the composite solution of a double-precision factor
    to 1e-10, and the unit cell its ``k_hat`` to 1e-12; every factor is
    float32 with at most :data:`MAX_REFINEMENT_STEPS` refinement steps."""
    porous = CONFIGURATIONS[configuration]

    def solve(factorize):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fem, "factorize", factorize)
            cell = homogenize.solve_cell_problem(
                porous.size_ratio, resolution=10, order=order
            )
            problem = assemble_problem(
                order,
                homogenize.delta_star(porous.porosity, ell),
                hx,
                PRESETS[preset],
                homogenize.permeability_dimensional(cell.k_scalar(), ell),
            )
            return cell, icdd_solve(problem, KrylovConfig())

    cell, result = solve(fem.factorize)
    cell_oracle, oracle = solve(_DoubleFactor)
    for health in (cell.factor_health, result.factor_health["stokes_factor"]):
        assert health["precision"] == "float32"
        assert 1 <= health["refinement_steps"] <= linalg.MAX_REFINEMENT_STEPS
    k_hat = cell_oracle.k_hat
    assert np.abs(cell.k_hat - k_hat).max() <= 1e-12 * np.abs(k_hat).max()
    for name in (
        "stokes_velocity", "stokes_pressure", "darcy_velocity", "darcy_pressure"
    ):
        got = getattr(result.composite, name).values
        want = getattr(oracle.composite, name).values
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name


#: Numpy memory allowed per unknown, beyond the pieces, when SuperLU
#: starts: eight vectors of 8-byte entries (the interior dofs, the
#: interior positions, the node order and the like).
PEAK_SLACK_PER_UNKNOWN = 64


def _extra_at_splu(monkeypatch, assemble, factor):
    """Traced numpy memory when SuperLU starts on the block of the
    system ``assemble()`` returns, factored by ``factor(system)``, less
    its level with the assembled system, plus the assembled matrix,
    less the gathered interior block and the constrained coupling; and
    the system.  (SuperLU's own arrays are not numpy's, so they are not
    traced.)"""
    at_splu = []
    real = linalg.spla.splu

    def splu(a, *args, **kwargs):
        at_splu.append(tracemalloc.get_traced_memory()[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", splu)
    tracemalloc.start()
    try:
        system = assemble()
        entry = tracemalloc.get_traced_memory()[0]
        matrix_bytes = _nbytes(system.matrix)
        factor(system)
    finally:
        tracemalloc.stop()
    block, coupling = system._pieces
    extra = at_splu[0] - (entry - matrix_bytes + _nbytes(block) + _nbytes(coupling))
    return extra, system


def test_factorization_peak_memory(monkeypatch, assemble_dns_q2):
    """When SuperLU starts on the freshly assembled pore-scale system of
    ``configs/dns.ini``, the traced numpy memory is at most its level
    with the assembled system, less the assembled matrix, plus the
    gathered interior block and the constrained coupling, plus
    :data:`PEAK_SLACK_PER_UNKNOWN` bytes per unknown."""
    extra, system = _extra_at_splu(monkeypatch, assemble_dns_q2, lambda s: s.factor)
    bound = PEAK_SLACK_PER_UNKNOWN * system.n_dofs
    assert extra <= bound, f"{(extra - bound) / 2**20:.1f} MB over"


def test_single_precision_factorization_peak_memory(monkeypatch, assemble_dns_q2):
    """Made in single precision, as every factor is, the factor adds to
    the level of a double-precision SuperLU factor of the same block the
    float32 values, 4 bytes per entry, and at most one vector of 8-byte
    entries per unknown: SuperLU's argument shares the block's index
    arrays (a copy would add another 4 bytes per entry)."""

    def factor_in_double(system):
        # What :attr:`SaddleSystem.factor` does before SuperLU runs, and
        # a double-precision factor in its place.
        block, _ = system._pieces
        system.matrix = None
        linalg._row_sum_norm(block)
        linalg._splu(block)

    double, _ = _extra_at_splu(monkeypatch, assemble_dns_q2, factor_in_double)
    single, system = _extra_at_splu(monkeypatch, assemble_dns_q2, lambda s: s.factor)
    bound = double + 4 * system._pieces[0].nnz + 8 * system.n_dofs
    assert single <= bound, f"{(single - bound) / 2**20:.1f} MB over"


def test_factored_copy_beyond_32_bits_raises():
    huge = SimpleNamespace(
        shape=(3, 3), indptr=np.array([0, 2**30, 2**31, 2**31 + 5], dtype=np.int64)
    )
    with pytest.raises(ValueError, match="exceeds 32-bit indices"):
        linalg.ordered_block(huge, np.arange(3))


class TestBicgstab:
    @given(seed=st.integers(0, 40), n=st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_converges_on_random_systems(self, seed, n):
        a, b = _random_system(n, seed)
        x, info = bicgstab(lambda v: a @ v, b, KrylovConfig(tol=1e-10))
        assert info["converged"]
        assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_residual_history_tracks_true_residual(self):
        a, b = _random_system(25, 7)
        x, info = bicgstab(lambda v: a @ v, b, KrylovConfig(tol=1e-12))
        assert info["residuals"][0] == 1.0
        assert info["residuals"][-1] <= 1e-12
        assert info["true_residual"] <= 1e-11
        assert info["iterations"] == len(info["residuals"]) - 1

    def test_zero_rhs_short_circuits(self):
        x, info = bicgstab(lambda v: v, np.zeros(5))
        np.testing.assert_array_equal(x, np.zeros(5))
        assert info["converged"] and info["iterations"] == 0

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((60, 60))  # indefinite, hard
        b = rng.standard_normal(60)
        x, info = bicgstab(lambda v: a @ v, b, KrylovConfig(tol=1e-14, maxiter=3))
        assert not info["converged"]
        assert info["iterations"] <= 3

    def test_deterministic_across_runs(self):
        a, b = _random_system(30, 13)
        x1, info1 = bicgstab(lambda v: a @ v, b, KrylovConfig(tol=1e-10, seed=5))
        x2, info2 = bicgstab(lambda v: a @ v, b, KrylovConfig(tol=1e-10, seed=5))
        np.testing.assert_array_equal(x1, x2)
        assert info1["residuals"] == info2["residuals"]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_breakdown_restarts_once_and_converges(self, seed):
        """``r_hat . A r = 0`` at the first step: one breakdown, one
        restart from the current iterate (zero) with a perturbed shadow
        residual, then convergence; the seed fixes every bit of ``x``."""
        a = np.array([[0.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 0.0])
        applied = []

        def op(v):
            applied.append(v.copy())
            return a @ v

        x, info = bicgstab(op, b, KrylovConfig(seed=seed))
        assert info["converged"] and info["reason"] == "converged"
        assert info["breakdowns"] == 1 and info["iterations"] <= 2
        assert sum(not v.any() for v in applied) == 1  # the restart
        np.testing.assert_allclose(x, [-1.0, 1.0], atol=1e-10)
        again, _ = bicgstab(lambda v: a @ v, b, KrylovConfig(seed=seed))
        np.testing.assert_array_equal(x, again)

    def test_second_breakdown_aborts(self):
        x, info = bicgstab(np.zeros_like, np.ones(3))
        assert info["reason"] == "breakdown" and info["breakdowns"] == 2
        assert info["converged"] is False
        np.testing.assert_array_equal(x, np.zeros(3))

    def test_icdd_solve_names_the_breakdown(self, monkeypatch):
        # AB = I, so the reduced operator I - AB is zero.
        monkeypatch.setattr(icdd, "_reduced_rhs", lambda problem: np.ones(4))
        monkeypatch.setattr(icdd, "_porous_velocity", lambda problem, g: g)
        monkeypatch.setattr(icdd, "_free_pressure", lambda problem, g: g)
        with pytest.raises(
            RuntimeError, match="interface solver failed: breakdown after 0 iterations"
        ):
            icdd.icdd_solve(None)

    def test_drifting_operator_fails_true_residual_check(self):
        """An operator that changes after its second application: the
        recursion converges, the recomputed residual does not."""
        a = np.diag([1.0, 2.0, 3.0])
        calls = []

        def drifting(v):
            calls.append(1)
            return a @ v if len(calls) <= 2 else 2.0 * (a @ v)

        x, info = bicgstab(drifting, np.ones(3), KrylovConfig(tol=1e-10))
        assert info["reason"] == "true residual check failed"
        assert info["converged"] is False
        assert info["residuals"][-1] < 1e-10 < info["true_residual"] / 10
