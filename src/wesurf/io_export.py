"""Deterministic exporters: OBJ meshes, CSV node tables, gnuplot tables.

All writers are byte-deterministic for fixed input (fixed float formatting,
no timestamps) and atomic (temp file + rename), so repeated runs with the
same configuration produce identical files.

Each writer takes a real SurfaceGrid or S_theta (`family.WickRotated`).
Complex values are serialized as adjacent <name>_re, <name>_im columns; a
real surface's imaginary columns are constants.  CSV and table files carry
a schema comment line as their first row.
"""

from __future__ import annotations

import os
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np

from .family import WickRotated
from .grids import SurfaceGrid

SCHEMA = "wesurf/1"

# node columns of the CSV and table writers, in file order
_NODE_COLUMNS = ("r1", "r2", "x_re", "x_im", "t_re", "t_im", "phi_re", "phi_im")


def _atomic_write(path, chunks) -> Path:
    """Write the strings of `chunks` to a temp file, then rename it to `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _lines(template: str, columns) -> str:
    """`template` filled from each row of the equal-length 1-D `columns`,
    one line per row.

    `.tolist()` yields Python ints and floats, for which '%.17g' % v is
    exactly format(v, '.17g'); 17 digits read back as the same double.
    """
    return "".join(map(f"{template}\n".__mod__, zip(*[c.tolist() for c in columns])))


def _node_rows(s: SurfaceGrid | WickRotated, sep: str):
    """(format, rows): `format` fills one node's _NODE_COLUMNS, joined by
    `sep`, from the float columns that `rows` yields per grid row.

    A real surface has no imaginary parts: its x_im and phi_im print as 0,
    and its t_im as -0 under meta["flip_t"], the sign of zero that negating
    t + 0j gives, else as 0.  Only the five real columns are formatted.
    """
    r = s.grid.nodes()
    x, t, phi = s.values
    if isinstance(s, SurfaceGrid):
        t_im = "-0" if s.meta.get("flip_t") else "0"
        fmt = sep.join(["%.17g"] * 3 + ["0", "%.17g", t_im, "%.17g", "0"])
        cols = (r.real, r.imag, x, t, phi)
    else:
        fmt = sep.join(["%.17g"] * 8)
        cols = [a for z in (r, x, t, phi) for a in (z.real, z.imag)]
    return fmt, ([c[i] for c in cols] for i in range(s.grid.n1))


def mesh_vertices(s: SurfaceGrid | WickRotated) -> np.ndarray:
    """Vertex coordinates for meshing, shape (n1*n2, 3), row-major.

    Real grids use (x, t, phi) directly; S_theta uses (Re x, |Im t|, Re phi)
    with the full complex data kept for the sidecar.
    """
    if isinstance(s, SurfaceGrid):
        coords = s.values
    else:
        x, t, phi = s.values
        coords = np.stack([x.real, np.abs(t.imag), phi.real])
    return coords.reshape(3, -1).T


def _faces(n1: int, n2: int) -> np.ndarray:
    """Two triangles per grid quad, vertices in row-major order, 0-based:
    a (2*(n1-1)*(n2-1), 3) integer array."""
    v00 = (np.arange(0, (n1 - 1) * n2, n2)[:, None] + np.arange(n2 - 1)).ravel()
    v10 = v00 + n2
    return np.stack([v00, v10, v10 + 1, v10 + 1, v00 + 1, v00], axis=1).reshape(-1, 3)


def export_mesh(s: SurfaceGrid | WickRotated, path) -> Path:
    """Write the surface as an OBJ mesh (plus a complex-data sidecar CSV for
    S_theta).

    Grids sampled over a full circle close up automatically because the
    angular axis includes both endpoints (seam vertices coincide).
    """
    path = Path(path)
    n1, n2 = s.grid.shape
    verts, faces = mesh_vertices(s), _faces(n1, n2) + 1
    out = _atomic_write(path, chain(
        [f"# wesurf mesh export (schema {SCHEMA})\n"],
        (_lines("v %.17g %.17g %.17g", verts[k:k + n2].T) for k in range(0, len(verts), n2)),
        (_lines("f %d %d %d", faces[k:k + n2].T) for k in range(0, len(faces), n2))))
    if not isinstance(s, SurfaceGrid):
        write_surface_csv(s, path.with_name(path.stem + "_complex.csv"))
    return out


def write_surface_csv(s: SurfaceGrid | WickRotated, path) -> Path:
    """Node table: grid indices, parameter-plane position, complex components."""
    j = np.arange(s.grid.n2)
    fmt, rows = _node_rows(s, ",")
    return _atomic_write(path, chain(
        [f"# schema: {SCHEMA}\ni,j,{','.join(_NODE_COLUMNS)}\n"],
        (_lines("%d,%d," + fmt, [np.full_like(j, i), j, *row])
         for i, row in enumerate(rows))))


def write_surface_table(s: SurfaceGrid | WickRotated, path) -> Path:
    """Gnuplot-ready table: whitespace columns, blank line between grid rows
    (splot/pm3d block format)."""
    fmt, rows = _node_rows(s, " ")
    return _atomic_write(path, chain(
        [f"# schema: {SCHEMA}\n# columns: {' '.join(_NODE_COLUMNS)}\n"],
        (_lines(fmt, row) + "\n" for row in rows)))


def write_report_csv(path, header: list[str], rows: list[list]) -> Path:
    """Generic report writer with the schema comment + named header row."""
    lines = [f"# schema: {SCHEMA}", ",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append("%.17g" % v)
        lines.append(",".join(cells))
    return _atomic_write(path, ["\n".join(lines) + "\n"])


__all__ = ["SCHEMA", "export_mesh", "write_report_csv", "write_surface_csv",
           "write_surface_table"]
