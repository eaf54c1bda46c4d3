"""Deterministic CSV, VTK and manifest serialization."""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdarcy.io import (
    FLOAT_FORMAT,
    config_digest,
    format_value,
    write_csv,
    write_manifest,
    write_vtk,
)
from stokesdarcy.mesh import (
    ObstacleLattice,
    RectDomain,
    build_perforated_mesh,
    build_rect_mesh,
)


class TestFormatValue:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (7, "7"),
            (0.5, "5.00000000e-01"),
            (np.float64(1.0 / 3.0), "3.33333333e-01"),
            (-2.5e-11, "-2.50000000e-11"),
            (np.int64(-3), "-3"),
            ("stokes", "stokes"),
        ],
    )
    def test_rendering_table(self, value, expected):
        assert format_value(value) == expected

    @given(value=st.floats(-1e12, 1e12, allow_nan=False))
    @settings(max_examples=50)
    def test_floats_have_nine_significant_digits(self, value):
        text = format_value(value)
        assert text == FLOAT_FORMAT % value
        mantissa = text.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 9


class TestCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, {"a": [1, 2], "b": [0.5, -1.0], "c": ["x", "y"]})
        assert path.read_text() == (
            "a,b,c\n1,5.00000000e-01,x\n2,-1.00000000e+00,y\n"
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "table.csv"
        table = {"i": np.arange(1, 3), "v": np.array([2.5e-3, 3.25]), "tag": ["s", "d"]}
        write_csv(path, table)
        with open(path, newline="") as f:
            header, *back = csv.reader(f)
        assert header == ["i", "v", "tag"]
        assert [r[2] for r in back] == ["s", "d"]
        assert float(back[0][1]) == pytest.approx(2.5e-3)

    def test_rerun_byte_identical(self, tmp_path):
        table = {"k": np.arange(20), "v": np.sin(np.arange(20))}
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, table)
        write_csv(p2, table)
        assert p1.read_bytes() == p2.read_bytes()


def assert_same_text(text, expected):
    """Equal texts; on failure name the first differing line only."""
    lines, want = text.split("\n"), expected.split("\n")
    bad = next((i for i, (a, b) in enumerate(zip(lines, want)) if a != b), None)
    assert bad is None, f"line {bad}: {lines[bad]!r} != {want[bad]!r}"
    assert len(lines) == len(want)


def reference_csv(table) -> str:
    """Cell-by-cell rendering that the column writer must reproduce."""
    lines = [",".join(table)]
    lines += [",".join(format_value(v) for v in row) for row in zip(*table.values())]
    return "\n".join(lines) + "\n"


#: Floats including -0.0, nan, inf and subnormals, as Python or NumPy values.
any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
cell_kinds = {
    "float": st.one_of(any_float, any_float.map(np.float64)),
    "int": st.one_of(st.integers(-(10**12), 10**12), st.integers(-5, 5).map(np.int64)),
    "str": st.text("ab%s,.-", max_size=4),
}


@st.composite
def tables(draw):
    """Columns of one kind each, as lists or numpy arrays, 0-12 rows."""
    kinds = draw(st.lists(st.sampled_from(list(cell_kinds)), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 12))
    table = {}
    for k, kind in enumerate(kinds):
        column = draw(st.lists(cell_kinds[kind], min_size=n_rows, max_size=n_rows))
        table[f"c{k}"] = np.array(column) if draw(st.booleans()) else column
    return table


class TestCsvColumns:
    @given(table=tables())
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_cell_by_cell(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, table)
        assert_same_text(path.read_text(), reference_csv(table))

    def test_special_floats(self, tmp_path):
        values = [-0.0, float("nan"), float("inf"), 5e-324, np.float64(-np.inf)]
        table = {name: [value] for name, value in zip("abcde", values)}
        path = tmp_path / "t.csv"
        write_csv(path, table)
        assert path.read_text() == reference_csv(table)
        assert path.read_text().splitlines()[1].startswith("-0.00000000e+00,nan,inf,")

    def test_row_length_mismatch_raises(self, tmp_path):
        # A short column would leave the last row without its cell.
        with pytest.raises(ValueError, match=r"unequal length \[1, 2\]"):
            write_csv(tmp_path / "t.csv", {"a": [1.0, 3.0], "b": [2.0]})
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "column",
        [["dns", 1.0], [0.5, "stokes"], ["a", None], [True, False], np.array([True])],
        ids=["text-float", "float-text", "text-none", "bool-list", "bool-array"],
    )
    def test_mixed_or_bool_column_raises(self, tmp_path, column):
        # numpy would render the number among strings as "1.0".
        with pytest.raises(ValueError, match="column .tag. must be all floats, ints or text"):
            write_csv(tmp_path / "t.csv", {"tag": column})
        assert not (tmp_path / "t.csv").exists()


def reference_vtk(mesh, point_data, title) -> str:
    """Value-by-value rendering that the block writer must reproduce."""
    fmt = FLOAT_FORMAT
    out = [
        "# vtk DataFile Version 3.0", title, "ASCII", "DATASET RECTILINEAR_GRID",
        f"DIMENSIONS {mesh.nnx} {mesh.nny} 1",
        f"X_COORDINATES {mesh.nnx} double", " ".join(fmt % v for v in mesh.node_x),
        f"Y_COORDINATES {mesh.nny} double", " ".join(fmt % v for v in mesh.node_y),
        "Z_COORDINATES 1 double", fmt % 0.0, f"POINT_DATA {mesh.n_nodes}",
    ]
    for name, values in point_data.items():
        values = np.asarray(values, dtype=float)
        if values.ndim == 2:
            out.append(f"VECTORS {name} double")
            out += [f"{fmt % u} {fmt % v} {fmt % 0.0}" for u, v in values]
        else:
            out += [f"SCALARS {name} double", "LOOKUP_TABLE default"]
            out += [fmt % v for v in values]
    if not np.all(mesh.active):
        k = mesh.order
        grid = mesh.active.reshape(mesh.ney, mesh.nex)
        lattice = np.repeat(np.repeat(grid, k, axis=0), k, axis=1)
        out += [f"CELL_DATA {lattice.size}", "SCALARS active int", "LOOKUP_TABLE default"]
        out += [str(int(v)) for v in lattice.ravel()]
    return "\n".join(out) + "\n"


@given(
    order=st.sampled_from([1, 2]),
    perforated=st.booleans(),
    values=st.lists(any_float, min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_vtk_bytes_match_value_by_value(tmp_path_factory, order, perforated, values, seed):
    band = RectDomain(0.0, 1.0, 0.0, 0.5)
    if perforated:
        mesh = build_perforated_mesh(
            RectDomain(0.0, 1.0, 0.0, 1.0), ObstacleLattice(0.5, 0.6, band), 5, order
        )
    else:
        mesh = build_rect_mesh(band, 0.25, order=order)
    # Cycle the drawn special values through otherwise random fields.
    rng = np.random.default_rng(seed)
    pool = np.concatenate([values, rng.standard_normal(3 * mesh.n_nodes)])
    data = {
        "velocity": rng.permutation(pool)[: 2 * mesh.n_nodes].reshape(-1, 2),
        "pressure": rng.permutation(pool)[: mesh.n_nodes],
    }
    path = tmp_path_factory.mktemp("vtk") / "out.vtk"
    write_vtk(path, mesh, data, "fields")
    assert_same_text(path.read_text(), reference_vtk(mesh, data, "fields"))


class TestVtk:
    def _full_mesh(self):
        return build_rect_mesh(RectDomain(0.0, 1.0, 0.0, 0.5), 0.25, order=2)

    def test_structure_and_counts(self, tmp_path):
        mesh = self._full_mesh()
        rng = np.random.default_rng(0)
        data = {
            "velocity": rng.standard_normal((mesh.n_nodes, 2)),
            "pressure": rng.standard_normal(mesh.n_nodes),
        }
        path = tmp_path / "out.vtk"
        write_vtk(path, mesh, data, "test dataset")
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[1] == "test dataset"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET RECTILINEAR_GRID"
        assert lines[4] == f"DIMENSIONS {mesh.nnx} {mesh.nny} 1"
        assert f"POINT_DATA {mesh.n_nodes}" in lines
        vec = lines.index("VECTORS velocity double")
        # Three components per point, third identically zero.
        first = lines[vec + 1].split()
        assert len(first) == 3 and float(first[2]) == 0.0
        assert "SCALARS pressure double" in lines
        assert "CELL_DATA" not in path.read_text()

    def test_active_mask_written_for_perforated(self, tmp_path):
        band = RectDomain(0.0, 1.0, 0.0, 0.5)
        lattice = ObstacleLattice(0.5, 0.6, band)
        mesh = build_perforated_mesh(
            RectDomain(0.0, 1.0, 0.0, 1.0), lattice, n_per_cell=5, order=2
        )
        path = tmp_path / "holes.vtk"
        write_vtk(path, mesh, {"p": np.zeros(mesh.n_nodes)}, "holes")
        text = path.read_text()
        n_cells = (mesh.nnx - 1) * (mesh.nny - 1)
        assert f"CELL_DATA {n_cells}" in text
        tail = text.split("LOOKUP_TABLE default")[-1].split()
        assert set(tail) == {"0", "1"}
        assert tail.count("0") == mesh.order**2 * int((~mesh.active).sum())

    def test_vector_third_component_zero_everywhere(self, tmp_path):
        mesh = self._full_mesh()
        data = {"velocity": np.ones((mesh.n_nodes, 2))}
        path = tmp_path / "v.vtk"
        write_vtk(path, mesh, data, "v")
        lines = path.read_text().splitlines()
        start = lines.index("VECTORS velocity double") + 1
        for line in lines[start : start + mesh.n_nodes]:
            assert line.split()[2] == FLOAT_FORMAT % 0.0


class TestManifest:
    def test_sorted_and_stable(self, tmp_path):
        a = {"zeta": 1, "alpha": {"b": 2.5, "a": [1, 2]}}
        b = {"alpha": {"a": [1, 2], "b": 2.5}, "zeta": 1}
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(pa, a)
        write_manifest(pb, b)
        assert pa.read_bytes() == pb.read_bytes()
        assert json.loads(pa.read_text()) == a

    def test_config_digest_is_sha256(self):
        text = "[case]\npreset = 1\n"
        assert config_digest(text) == hashlib.sha256(text.encode()).hexdigest()
