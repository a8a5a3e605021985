"""Output checks, run after the timed phase.

Each check reads the files one scenario's requests wrote and returns a list
of problems (empty when the output is correct).  Expected values come from
reference.py, which shares no code with the program, or from properties
the method must have (unit norm, the Wronskian, the uncertainty floor).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import trapezoid

import reference as ref

# |W - i| of every trajectory row, recomputed from the exported u and u'.
WRONSKIAN_TOL = 1e-8
# program mode (DOP853, rtol 1e-10) against the LSODA reference, relative
# to the largest |u| (or |u'|) of the file.
MODE_TOL = 1e-6
# analytic <x>, <p> against the reference classical solve, relative to
# 1 + max |x|.  Analytic against quadrature moments are held to the
# scenario's quadrature_tol times (2n + 1), the factor by which the second
# moments of a number state grow; quadrature <x>, <p> get both allowances.
CLASSICAL_TOL = 1e-6
# exported |psi|^2 against the reference density, relative to its peak,
# and the trapezoid norm against 1.
DENSITY_TOL = 1e-6
NORM_TOL = 1e-6
# static-compare: pipeline against the closed form, pointwise.
STATIC_COMPARE_TOL = 1e-9


def _time_grid(raw: dict) -> np.ndarray:
    tg = raw["time_grid"]
    return np.linspace(tg["t_start"], tg["t_end"], tg["samples"])


def _read_rows(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return np.array(rows[1:], dtype=float)


# ---------------------------------------------------------------- state_sweep
def check_moments(raw: dict, out: Path) -> list:
    problems = []
    report = json.loads((out / "moments.json").read_text(encoding="utf-8"))
    records = report["records"]
    states, times = raw["states"], _time_grid(raw)
    if len(records) != len(states) * times.size:
        return [f"moments: {len(records)} records, expected {len(states) * times.size}"]
    profile = ref.Profile(raw["profile"])
    hbar = raw["hbar"]
    blocks = [records[i * times.size : (i + 1) * times.size] for i in range(len(states))]
    for i, (state, block) in enumerate(zip(states, blocks)):
        n = state["n"]
        if any(rec["n"] != n for rec in block):
            problems.append(f"moments: state {i} records carry another n")
        t = np.array([rec["t"] for rec in block])
        if np.max(np.abs(t - times)) > 1e-12 * max(1.0, times[-1]):
            problems.append(f"moments: state {i} record times differ from the time grid")
        tol = raw["tolerances"]["quadrature_tol"] * (2 * n + 1)
        floor = hbar * (n + 0.5)
        for rec in block:
            a, q = rec["analytic"], rec["quadrature"]
            gap = max(abs(a[k] - q[k]) for k in ("mean_x", "mean_p", "mean_x2", "mean_p2"))
            if gap > tol:
                problems.append(f"moments: state {i} t={rec['t']:.4g} moment gap {gap:.2e} > {tol:.1e}")
            if q["uncertainty_product"] < floor - tol:
                problems.append(
                    f"moments: state {i} t={rec['t']:.4g} dx dp {q['uncertainty_product']:.9g} "
                    f"below hbar (n + 1/2) = {floor}"
                )
    # the centres of all states follow the classical equation of motion
    # from their first record
    first = [block[0]["analytic"] for block in blocks]
    x_ref, p_ref = ref.classical(
        profile, [f["mean_x"] for f in first], [f["mean_p"] for f in first], times
    )
    for i, block in enumerate(blocks):
        scale = 1.0 + float(np.max(np.abs(x_ref[i])))
        allowance = {
            "analytic": CLASSICAL_TOL * scale,
            "quadrature": CLASSICAL_TOL * scale + raw["tolerances"]["quadrature_tol"] * (2 * states[i]["n"] + 1),
        }
        for kind, tol in allowance.items():
            xs = np.array([rec[kind]["mean_x"] for rec in block])
            ps = np.array([rec[kind]["mean_p"] for rec in block])
            dev = max(np.max(np.abs(xs - x_ref[i])), np.max(np.abs(ps - p_ref[i])))
            if dev > tol:
                problems.append(f"moments: state {i} {kind} <x>,<p> off the classical path by {dev:.2e} > {tol:.1e}")
    return problems


def check_wavefunction(raw: dict, out: Path, state_index: int, t: float) -> list:
    paths = sorted(out.glob(f"wavefunction_state_{state_index:03d}_t_*.csv"))
    if len(paths) != 1:
        return [f"wavefunction: expected one export for state {state_index}, found {len(paths)}"]
    data = _read_rows(paths[0])
    x, re, im, abs2 = data.T
    problems = []
    if np.max(np.abs(abs2 - (re**2 + im**2))) > 1e-12 * np.max(abs2):
        problems.append("wavefunction: |psi|^2 column disagrees with Re psi, Im psi")
    norm = float(trapezoid(abs2, x))
    if abs(norm - 1.0) > NORM_TOL:
        problems.append(f"wavefunction: norm {norm:.12g}")
    state = raw["states"][state_index]
    u, _ = ref.mode(ref.Profile(raw["profile"]), [0.0, t] if t > 0 else [0.0])
    u_nu = ref.squeeze(u[-1], state["r"], state["phi"])
    alpha = complex(*state["alpha"])
    hbar = raw["hbar"]
    x_c = 2.0 * math.sqrt(hbar) * (alpha * u_nu).real
    expected = ref.number_density(state["n"], x, x_c, abs(u_nu), hbar)
    dev = float(np.max(np.abs(abs2 - expected))) / float(np.max(expected))
    if dev > DENSITY_TOL:
        problems.append(f"wavefunction: |psi|^2 off the reference density by {dev:.2e} of its peak")
    return problems


# ---------------------------------------------------------------- mode_solve
def check_trajectories(raw: dict, out: Path) -> list:
    problems = []
    profile = ref.Profile(raw["profile"])
    times = _time_grid(raw)
    p = raw["profile"]
    if p["kind"] == "static":
        m0, w0 = p["m0"], p["omega0"]
        u_ref = np.exp(-1j * w0 * times) / math.sqrt(2.0 * m0 * w0)
        ud_ref = -1j * w0 * u_ref
    else:
        u_ref, ud_ref = ref.mode(profile, times)
    files = [("trajectory_base.csv", 0.0, 0.0)] + [
        (f"trajectory_state_{i:03d}.csv", s["r"], s["phi"]) for i, s in enumerate(raw["states"])
    ]
    mass = profile.mass(times)
    for name, r, phi in files:
        data = _read_rows(out / name)
        if data.shape != (times.size, 8):
            problems.append(f"evolve: {name} has shape {data.shape}, expected ({times.size}, 8)")
            continue
        if np.max(np.abs(data[:, 0] - times)) > 1e-12 * max(1.0, times[-1]):
            problems.append(f"evolve: {name} row times differ from the time grid")
        u = data[:, 1] + 1j * data[:, 2]
        ud = data[:, 3] + 1j * data[:, 4]
        drift = np.max(np.abs(mass * (u * np.conj(ud) - np.conj(u) * ud) - 1j))
        if drift > WRONSKIAN_TOL:
            problems.append(f"evolve: {name} Wronskian off i by {drift:.2e}")
        for label, got, want in (
            ("u", u, ref.squeeze(u_ref, r, phi)),
            ("u'", ud, ref.squeeze(ud_ref, r, phi)),
        ):
            dev = np.max(np.abs(got - want)) / np.max(np.abs(want))
            if dev > MODE_TOL:
                problems.append(f"evolve: {name} {label} off the reference by {dev:.2e}")
    return problems


# ---------------------------------------------------------------- verify_suite
def expected_verify_checks(raw: dict) -> int:
    """Number of checks ``tdho verify`` runs on this scenario: one base
    Wronskian; per state a squeezed Wronskian, normalization, moment and
    uncertainty checks at each probe time, two classical checks when
    displaced, and a Schroedinger residual; one orthogonality check per pair
    of states of different n sharing (alpha, r, phi); and on the unit static
    oscillator the two Nieto identities and the closed-form comparison per
    state."""
    samples = raw["time_grid"]["samples"]
    probes = len(range(0, samples, max(1, (samples - 1) // 4)))
    total = 1
    groups: dict = {}
    for s in raw["states"]:
        alpha = tuple(s.get("alpha", (0.0, 0.0)))
        displaced = alpha != (0.0, 0.0)
        total += 1 + 3 * probes + (2 if displaced else 0) + 1
        key = (s.get("r", 0.0), s.get("phi", 0.0) % (2.0 * math.pi), alpha)
        groups.setdefault(key, []).append(s["n"])
    for ns in groups.values():
        total += sum(1 for a in range(len(ns)) for b in range(a + 1, len(ns)) if ns[a] != ns[b])
    p = raw["profile"]
    if p["kind"] == "static" and raw.get("hbar", 1.0) == 1.0 and p["m0"] == 1.0 and p["omega0"] == 1.0:
        total += 3 * len(raw["states"])
    return total


def check_verify(raw: dict, out: Path) -> list:
    report = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    problems = []
    checks = report["checks"]
    expected = expected_verify_checks(raw)
    if len(checks) != expected or report["checks_total"] != expected:
        problems.append(
            f"verify: {len(checks)} checks listed, total {report['checks_total']}, expected {expected}"
        )
    failed = [c["check"] for c in checks if not c["passed"]]
    if failed or report["checks_failed"] != 0:
        problems.append(f"verify: failed checks {failed}")
    return problems


def check_static_compare(raw: dict, out: Path) -> list:
    report = json.loads((out / "static_compare.json").read_text(encoding="utf-8"))
    cases = report["cases"]
    expected = len(raw["states"]) * raw["time_grid"]["samples"]
    problems = []
    if len(cases) != expected:
        problems.append(f"static-compare: {len(cases)} cases, expected {expected}")
    worst = max((c["max_pointwise_diff"] for c in cases), default=math.inf)
    if not worst <= STATIC_COMPARE_TOL:
        problems.append(f"static-compare: worst pointwise gap {worst:.2e}")
    return problems


def check_request(raw: dict, out: Path, request: list) -> list:
    """Problems in the output of one request of a scenario."""
    command = request[0]
    if command == "moments":
        return check_moments(raw, out)
    if command == "wavefunction":
        return check_wavefunction(raw, out, int(request[2]), float(request[4]))
    if command == "evolve":
        return check_trajectories(raw, out)
    if command == "verify":
        return check_verify(raw, out)
    if command == "static-compare":
        return check_static_compare(raw, out)
    raise ValueError(f"no check for {command!r}")
