"""Deterministic CSV and JSON writers.

Identical inputs must produce byte-identical files: field order is fixed,
CSV numbers carry 17 significant digits (round-trip exact for doubles),
JSON uses UTF-8 with stable key order and LF line endings.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .mode_solver import ModeTrajectory, wronskian
from .states import WaveFunctionGrid


def fmt(value: float) -> str:
    """17-significant-digit decimal form of one float."""
    return f"{float(value):.17g}"


def write_trajectory_csv(traj: ModeTrajectory, path, theta, indices=None) -> None:
    """Columns: t, Re u, Im u, Re u', Im u', |W - i|, rho, Theta.

    ``theta`` is the trajectory's unwrapped phase, taken from the caller
    (polar_decompose of a base mode, squeezed_phase of a squeezed one) so
    that row selection cannot change branch continuity.  ``indices`` selects
    the rows to write, in time order (default: all samples); the Wronskian
    drift and rho are computed on those rows only.
    """
    if indices is not None:
        traj = ModeTrajectory(*(a[indices] for a in (traj.t, traj.u, traj.u_dot, traj.mass)))
        theta = np.asarray(theta)[indices]
    columns = (traj.t, traj.u.real, traj.u.imag, traj.u_dot.real, traj.u_dot.imag)
    columns += (np.abs(wronskian(traj) - 1j), np.abs(traj.u), theta)
    text = "t,re_u,im_u,re_u_dot,im_u_dot,abs_wronskian_minus_i,rho,theta\n"
    text += _rows(np.column_stack(columns))
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_wavefunction_csv(grid: WaveFunctionGrid, path) -> None:
    """Columns: x, Re psi, Im psi, |psi|^2, with state parameters in the
    comment header (t, n, alpha, r, phi, hbar, profile hash)."""
    meta = grid.meta
    alpha = complex(meta.get("alpha", 0j))
    header = [
        f"# t={fmt(grid.t)}",
        f"# n={int(meta.get('n', 0))}",
        f"# alpha={fmt(alpha.real)}{'+' if alpha.imag >= 0 else '-'}{fmt(abs(alpha.imag))}j",
        f"# r={fmt(meta.get('r', 0.0))}",
        f"# phi={fmt(meta.get('phi', 0.0))}",
        f"# hbar={fmt(meta.get('hbar', 1.0))}",
        f"# profile_hash={meta.get('profile_hash', 'none')}",
        "x,re_psi,im_psi,abs2_psi",
    ]
    abs2 = [abs(c) ** 2 for c in grid.psi.tolist()]  # a pow, not x * x
    table = np.column_stack((grid.x, grid.psi.real, grid.psi.imag, abs2))
    text = "\n".join(header) + "\n" + _rows(table)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _rows(table: np.ndarray) -> str:
    """CSV lines of a 2-d float table, every value as fmt writes it: one
    ``%`` call over the row-major values, byte for byte the per-value form."""
    rows, cols = table.shape
    return ("%.17g," * (cols - 1) + "%.17g\n") * rows % tuple(table.ravel().tolist())


def _encode(obj):
    """JSON form of the values json cannot encode itself: complex numbers
    as {"re", "im"}, NumPy scalars and arrays as Python numbers and lists.
    np.float64 is a float and never reaches this hook."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(obj, path) -> None:
    """UTF-8 JSON with stable (insertion) key order and a trailing newline."""
    text = json.dumps(obj, indent=2, ensure_ascii=False, default=_encode)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")
