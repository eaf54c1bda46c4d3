"""Deterministic artifact writers: CSV tables, legacy VTK, manifests.

A CSV table is a ``dict`` of named, equal-length columns.  All
floating-point output uses scientific notation with nine
significant digits, so identical inputs always serialize to identical
bytes.  Manifests are JSON with sorted keys and no timestamps.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from .mesh import StructuredMesh

#: Fixed float format: nine significant digits, scientific.
FLOAT_FORMAT = "%.8e"


def format_value(value) -> str:
    """Render one CSV cell: fixed-format floats, plain ints and text."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FORMAT % float(value)
    return str(value)


def _fill(row_template: str, n_rows: int, values) -> str:
    """Render ``n_rows`` lines of a printf row template with one ``%``."""
    return "\n".join([row_template] * n_rows) % tuple(values)


#: printf template of a CSV column, by the kind of its numpy dtype.
_TEMPLATES = {"f": FLOAT_FORMAT, "i": "%d", "u": "%d", "U": "%s"}


def write_csv(path, table: dict) -> None:
    """Write a table of named, equal-length columns as CSV.

    Each column is rendered with the printf template of its numpy
    dtype (floats :data:`FLOAT_FORMAT`, integers ``%d``, text ``%s``),
    all in one pass; a cell reads as :func:`format_value` renders its
    value in that dtype.

    Parameters
    ----------
    path : path-like
        Output file.
    table : dict
        Column name to values (an array or a sequence), in output order.

    Raises
    ------
    ValueError
        If the columns differ in length, or a column holds anything but
        only floats, only integers or only text (booleans included).
    """
    lengths = {len(column) for column in table.values()}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length {sorted(lengths)}")
    templates, columns = [], []
    for name, column in table.items():
        array = np.asarray(column)
        kind = array.dtype.kind
        # numpy turns numbers listed among strings into text.
        text = isinstance(column, np.ndarray) or all(isinstance(v, str) for v in column)
        if kind not in _TEMPLATES or (kind == "U" and not text):
            raise ValueError(f"column {name!r} must be all floats, ints or text")
        templates.append(_TEMPLATES[kind])
        columns.append(array.tolist())
    lines = [",".join(table)]
    if lengths and (n_rows := lengths.pop()):
        values = itertools.chain.from_iterable(zip(*columns))
        lines.append(_fill(",".join(templates), n_rows, values))
    Path(path).write_text("\n".join(lines) + "\n")


def write_vtk(path, mesh: StructuredMesh, point_data: dict, title: str) -> None:
    """Write a legacy-VTK ASCII rectilinear grid with nodal fields.

    Vector fields (``(n, 2)`` arrays) gain a zero third component;
    scalar fields are written as-is.  On perforated meshes an
    ``active`` cell field records which lattice cells belong to fluid
    elements.

    Parameters
    ----------
    path : path-like
        Output file.
    mesh : StructuredMesh
        Mesh supplying the nodal lattice.
    point_data : dict
        Field name to nodal array (``(n,)`` or ``(n, 2)``).
    title : str
        Dataset title line.
    """
    path = Path(path)
    fmt = FLOAT_FORMAT
    out = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET RECTILINEAR_GRID",
        f"DIMENSIONS {mesh.nnx} {mesh.nny} 1",
        f"X_COORDINATES {mesh.nnx} double",
        " ".join(fmt % v for v in mesh.node_x),
        f"Y_COORDINATES {mesh.nny} double",
        " ".join(fmt % v for v in mesh.node_y),
        "Z_COORDINATES 1 double",
        fmt % 0.0,
        f"POINT_DATA {mesh.n_nodes}",
    ]
    for name, values in point_data.items():
        values = np.asarray(values, dtype=float)
        if values.ndim == 2:
            out.append(f"VECTORS {name} double")
            row = f"{fmt} {fmt} {fmt % 0.0}"
            out.append(_fill(row, len(values), values[:, :2].ravel().tolist()))
        else:
            out.append(f"SCALARS {name} double")
            out.append("LOOKUP_TABLE default")
            out.append(_fill(fmt, len(values), values.tolist()))
    if not np.all(mesh.active):
        k = mesh.order
        grid = mesh.active.reshape(mesh.ney, mesh.nex)
        lattice = np.repeat(np.repeat(grid, k, axis=0), k, axis=1)
        out.append(f"CELL_DATA {lattice.size}")
        out.append("SCALARS active int")
        out.append("LOOKUP_TABLE default")
        out.append(_fill("%d", lattice.size, lattice.ravel().tolist()))
    path.write_text("\n".join(out) + "\n")


def config_digest(text: str) -> str:
    """SHA-256 hex digest of a configuration file's text."""
    return hashlib.sha256(text.encode()).hexdigest()


def write_manifest(path, payload: dict) -> None:
    """Write a deterministic JSON manifest (sorted keys, no clock).

    Parameters
    ----------
    path : path-like
        Output file.
    payload : dict
        JSON-serializable run description; floats pass through the
        default JSON repr, which is value-stable.
    """
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
