"""Serialization: field tables, trajectory scalars, generic CSV/NDJSON writers.

Data files are deterministic: stable column order, floats at 17 significant
digits (exact round-trip for doubles), no timestamps.  Units are documented in
a comment line above the header; velocities are dimensionless torus units and
times are in the solver's time unit (viscous scale).  A missing number
(``None``) is written ``nan`` in a CSV cell and ``null`` in NDJSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dynamics import TrajectoryRecord
from .noise import Control
from .spectral import SpectralField, TorusLattice, make_lattice

FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return FLOAT_FMT % float(x)
    if x is None:
        return "nan"
    # cells are comma-delimited; keep free-text values one cell wide
    return str(x).replace(",", ";")


def write_csv(path, records: Sequence[dict], columns: Sequence[str] | None = None,
              units: str | None = None) -> Path:
    """Write dict records to CSV with a stable column order.

    Columns default to the key order of the first record; an empty record
    list with explicit ``columns`` produces a header-only file.
    """
    path = Path(path)
    if columns is None:
        if not records:
            raise ValueError("empty record list needs explicit columns")
        columns = list(records[0].keys())
    lines = []
    if units:
        lines.append(f"# units: {units}")
    lines.append(",".join(columns))
    for rec in records:
        lines.append(",".join(_fmt(rec.get(c)) for c in columns))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv(path) -> list[dict]:
    """Parse a CSV written by :func:`write_csv`; numbers come back as floats."""
    rows = []
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    for ln in lines[1:]:
        vals = []
        for tok in ln.split(","):
            try:
                vals.append(float(tok))
            except ValueError:
                vals.append(tok)
        rows.append(dict(zip(header, vals)))
    return rows


def write_ndjson(path, records: Iterable[dict]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for rec in records:
            fh.write(json.dumps(_jsonable(rec), sort_keys=False))
            fh.write("\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def read_ndjson(path) -> list[dict]:
    return [json.loads(ln) for ln in Path(path).read_text().splitlines() if ln.strip()]


def write_outputs(records: Sequence[dict], path, fmt: str = "csv",
                  columns: Sequence[str] | None = None, units: str | None = None) -> Path:
    """Dispatch on format: ``csv`` or ``ndjson``."""
    if fmt == "csv":
        return write_csv(path, records, columns=columns, units=units)
    if fmt == "ndjson":
        return write_ndjson(path, records)
    raise ValueError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# Spectral field table
# ---------------------------------------------------------------------------


def save_field(field: SpectralField, path) -> Path:
    """One row per band wavevector: k1 k2 Re(u1) Im(u1) Re(u2) Im(u2)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    k, values = field.lattice.band_rows(field.coeffs)
    np.savetxt(path, np.column_stack([k, values.view(np.float64)]),
               fmt=["%d", "%d"] + [FLOAT_FMT] * 4,
               header=f"n={field.lattice.n}\ncolumns: k1 k2 re_u1 im_u1 re_u2 im_u2 (velocity units)")
    return path


def load_field(path, lattice: TorusLattice | None = None) -> SpectralField:
    """Read a ``save_field`` table.  A row outside the lattice's band, or a
    ``k2 < 0`` row that is not the conjugate of its mirror, raises ValueError."""
    lines = Path(path).read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("# n=")]
    if not header:
        raise ValueError(f"{path}: missing lattice header '# n=...'")
    n = int(header[0].split("=", 1)[1])
    if lattice is None:
        lattice = make_lattice(n)
    elif lattice.n != n:
        raise ValueError(f"{path}: table was written for n={n}, lattice has n={lattice.n}")
    rows = [ln.split() for ln in lines if ln and not ln.startswith("#")]
    k = [(int(t[0]), int(t[1])) for t in rows]
    values = [(complex(float(t[2]), float(t[3])), complex(float(t[4]), float(t[5]))) for t in rows]
    return SpectralField(lattice, lattice.from_band_rows(k, values))


# ---------------------------------------------------------------------------
# Trajectories and controls
# ---------------------------------------------------------------------------

# the record's series of each name, ``times`` as column "time"
TRAJ_COLUMNS = ["time", "norm_h", "norm_v", "norm_a", "norm_alpha", "dissipation"]


def save_trajectory(traj: TrajectoryRecord, path, fmt: str = "csv") -> Path:
    """One row per recorded state, in ``fmt`` (``csv`` or ``ndjson``)."""
    series = [traj.times] + [getattr(traj, name) for name in TRAJ_COLUMNS[1:]]
    rows = [dict(zip(TRAJ_COLUMNS, values)) for values in zip(*series)]
    return write_outputs(rows, path, fmt, columns=TRAJ_COLUMNS,
                         units="time: viscous units; norms: L2 velocity units")


def save_control(h: Control, path) -> Path:
    rows = [
        {"step": m, "j": j, "value": h.values[m, j]}
        for m in range(h.steps)
        for j in range(h.rank)
    ]
    return write_csv(path, rows, columns=["step", "j", "value"],
                     units="value: K-coordinate amplitude; dt=" + (FLOAT_FMT % h.dt))


def load_control(path) -> Control:
    """Read a ``save_control`` table on the grid its ``dt=`` header names."""
    dt = None
    for ln in Path(path).read_text().splitlines():
        if ln.startswith("# units:") and "dt=" in ln:
            dt = float(ln.split("dt=", 1)[1])
    if dt is None:
        raise ValueError("control table carries no dt")
    rows = read_csv(path)
    steps = int(max(r["step"] for r in rows)) + 1
    rank = int(max(r["j"] for r in rows)) + 1
    vals = np.zeros((steps, rank))
    for r in rows:
        vals[int(r["step"]), int(r["j"])] = r["value"]
    return Control(dt, vals)

