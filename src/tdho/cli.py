"""Scenario-driven command line: tdho <subcommand> <scenario.json> [...].

A scenario file is the complete experiment record; flags only select the
subcommand, a state index, a time, and the output directory, so identical
scenario + flags reproduce byte-identical outputs.  Subcommands:

  evolve          mode-trajectory CSVs (base mode and per-state squeezed)
  wavefunction    one wave-function CSV at --t for --state-index
  moments         analytic vs quadrature moment JSON over the time grid
  verify          full invariant and cross-check suite (exit 2 on failure)
  static-compare  pipeline vs closed-form sweep report (static profiles)

Exit codes: 0 success, 1 scenario validation error, 2 verification failure
(verify only), 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .errors import (
    GridError,
    ModeSolverError,
    PhaseUnwrapError,
    ProfileError,
    ScenarioError,
    TdhoError,
)
from .mode_solver import (
    MAX_PATH_ROWS,
    SqueezeParams,
    apply_squeeze,
    evolve_mode,
    polar_decompose,
    squeezed_phase,
    wkb_mode,
)
from .observables import analytic_moments, inner_product, quadrature_moments
from .profiles import OscillatorProfile, finite_number, parse_profile, profile_hash
from .states import (
    _GRID_POINTS_MAX,
    WRONSKIAN_GUARD,
    StateSpec,
    comoving_hermite,
    dsn_wavefunction,
    spatial_grid,
)
from .verification import (
    classical_equation_residual,
    crosscheck_static,
    nieto_t0_identity_residuals,
    nieto_time_identity_residuals,
    schrodinger_residual,
)

# verify-subcommand tolerances
WRONSKIAN_TOL = 1e-8
ORTHOGONALITY_TOL = 1e-8
RESIDUAL_TOL = 1e-4
CLASSICAL_TOL = 1e-6
NIETO_T0_TOL = 1e-12
NIETO_TIME_TOL = 1e-10
CROSSCHECK_TOL = 1e-10
#: growth with r of the static closed forms' rounding in the Nieto time
#: identities and in the pipeline-vs-closed-form gap (see _squeezed_tol)
NIETO_TIME_GROWTH = 5.0
CROSSCHECK_GROWTH = 4.5

#: largest squeeze amplitude the loader accepts (about 11.1): beyond it the
#: rounding of cosh^2 r alone pushes |W - i| of the squeezed mode past the
#: wave-function guard.
MAX_SQUEEZE_R = 0.5 * math.log(WRONSKIAN_GUARD / sys.float_info.epsilon)


@dataclass(frozen=True)
class Scenario:
    profile: OscillatorProfile
    hbar: float
    states: list
    t_start: float
    t_end: float
    samples: int
    grid_points: int
    half_width_sigmas: float
    ode_rel_tol: float
    quadrature_tol: float
    residual_dt: float
    out_dir: str
    write_csv: bool
    write_json: bool

    def time_grid(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.samples)


def _require_keys(mapping: dict, where: str, required: set, optional: set):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = set(mapping) - required - optional
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(mapping)
    if missing:
        raise ScenarioError(f"{where}: missing key(s) {sorted(missing)}")


def _number(mapping: dict, where: str, key: str, default=None):
    value = mapping.get(key, default)
    if not finite_number(value):
        raise ScenarioError(f"{where}.{key}: expected a finite number, got {value!r}")
    return float(value)


def load_scenario(path) -> Scenario:
    """Parse and validate one scenario file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, digit limits
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from None
    _require_keys(
        raw,
        "scenario",
        {"profile", "states", "time_grid"},
        {"hbar", "grid", "tolerances", "outputs"},
    )
    try:
        profile = parse_profile(raw["profile"])
    except ProfileError as exc:
        raise ScenarioError(str(exc)) from None

    hbar = _number(raw, "scenario", "hbar", 1.0)
    if hbar <= 0:
        raise ScenarioError("scenario.hbar: must be positive")

    tg = raw["time_grid"]
    _require_keys(tg, "time_grid", {"t_start", "t_end", "samples"}, set())
    t_start = _number(tg, "time_grid", "t_start")
    t_end = _number(tg, "time_grid", "t_end")
    samples = tg["samples"]
    if not isinstance(samples, int) or not 2 <= samples <= MAX_PATH_ROWS:
        raise ScenarioError(f"time_grid.samples: must be an integer in [2, {MAX_PATH_ROWS}]")
    if not t_end > t_start:
        raise ScenarioError("time_grid: t_end must be greater than t_start")

    grid = raw.get("grid", {})
    _require_keys(grid, "grid", set(), {"points", "half_width_sigmas"})
    points = grid.get("points", 2048)
    if not isinstance(points, int) or not 64 <= points <= _GRID_POINTS_MAX:
        raise ScenarioError(f"grid.points: must be an integer in [64, {_GRID_POINTS_MAX}]")
    sigmas = _number(grid, "grid", "half_width_sigmas", 8.0)
    if sigmas < 4:
        raise ScenarioError("grid.half_width_sigmas: must be >= 4")

    tol = raw.get("tolerances", {})
    _require_keys(tol, "tolerances", set(), {"ode_rel_tol", "quadrature_tol", "residual_dt"})
    ode_rel_tol = _number(tol, "tolerances", "ode_rel_tol", 1e-10)
    if not 1e-13 <= ode_rel_tol <= 1e-6:
        raise ScenarioError("tolerances.ode_rel_tol: must lie in [1e-13, 1e-6]")
    quadrature_tol = _number(tol, "tolerances", "quadrature_tol", 1e-6)
    if quadrature_tol <= 0:
        raise ScenarioError("tolerances.quadrature_tol: must be positive")
    residual_dt = _number(tol, "tolerances", "residual_dt", 1e-4)
    if not 0 < residual_dt <= 1e-3:
        raise ScenarioError("tolerances.residual_dt: must lie in (0, 1e-3]")

    outputs = raw.get("outputs", {})
    _require_keys(outputs, "outputs", set(), {"directory", "csv", "json"})
    out_dir = outputs.get("directory", "tdho_out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ScenarioError("outputs.directory: must be a non-empty string")
    write_csv = outputs.get("csv", True)
    write_json = outputs.get("json", True)
    if not isinstance(write_csv, bool) or not isinstance(write_json, bool):
        raise ScenarioError("outputs.csv and outputs.json must be booleans")

    states_raw = raw["states"]
    if not isinstance(states_raw, list) or not states_raw:
        raise ScenarioError("scenario.states: expected a non-empty list")
    states = []
    for i, entry in enumerate(states_raw):
        where = f"states[{i}]"
        _require_keys(entry, where, {"n"}, {"alpha", "r", "phi"})
        n = entry["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ScenarioError(f"{where}.n: must be a non-negative integer")
        alpha_raw = entry.get("alpha", [0.0, 0.0])
        if (
            not isinstance(alpha_raw, list)
            or len(alpha_raw) != 2
            or not all(finite_number(v) for v in alpha_raw)
        ):
            raise ScenarioError(f"{where}.alpha: expected [re, im] of finite numbers")
        r = _number(entry, where, "r", 0.0)
        if r < 0:
            raise ScenarioError(f"{where}.r: must be >= 0")
        phi = _number(entry, where, "phi", 0.0)
        try:
            states.append(
                StateSpec(
                    n=n,
                    alpha=complex(alpha_raw[0], alpha_raw[1]),
                    squeeze=SqueezeParams(r=r, phi=phi),
                    hbar=hbar,
                )
            )
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
    r_max = max(spec.squeeze.r for spec in states)
    if r_max > MAX_SQUEEZE_R:
        raise ScenarioError(
            f"states: largest r {r_max:.6g} above the squeeze ceiling of {MAX_SQUEEZE_R:.4g}"
        )

    return Scenario(
        profile=profile,
        hbar=hbar,
        states=states,
        t_start=t_start,
        t_end=t_end,
        samples=samples,
        grid_points=points,
        half_width_sigmas=sigmas,
        ode_rel_tol=ode_rel_tol,
        quadrature_tol=quadrature_tol,
        residual_dt=residual_dt,
        out_dir=out_dir,
        write_csv=write_csv,
        write_json=write_json,
    )


def _path_stride(scenario: Scenario, coarse: np.ndarray) -> int:
    """Sub-steps per time-grid step of the base path: at least 4 and enough
    to unwrap the base phase at the largest frequency on the time grid
    (squeezed phases follow from it in closed form, so r does not enter).
    A path of more than MAX_PATH_ROWS rows is refused with a ScenarioError
    before anything of its size is allocated."""
    span = scenario.t_end - scenario.t_start
    omega_max = float(np.sqrt(np.max(scenario.profile.omega_sq(coarse))))
    needed = span * 16.0 * max(omega_max, 0.25)
    rows = needed
    if needed <= MAX_PATH_ROWS:
        stride = max(4, math.ceil(needed / (scenario.samples - 1)))
        rows = (scenario.samples - 1) * stride + 1
        if rows <= MAX_PATH_ROWS:
            return stride
    raise ScenarioError(
        f"time_grid: the mode path needs {rows:.3g} rows (span {span:.6g}, largest omega "
        f"{omega_max:.3g}, {scenario.samples} samples), above the ceiling of {MAX_PATH_ROWS}"
    )


def _base_trajectory(scenario: Scenario, at=None):
    """Base mode on one uniform path that holds the scenario time grid.

    Each time-grid step is split into ``_path_stride`` equal sub-steps, so
    row ``j * stride`` is time-grid sample j bit for bit.  Returns the
    trajectory, its unwrapped phase and the rows of the time grid, or with
    ``at`` the row of that one time, merged into the path.
    """
    coarse = scenario.time_grid()
    stride = _path_stride(scenario, coarse)
    steps = coarse[:-1, None] + np.diff(coarse)[:, None] * (np.arange(stride) / stride)
    path = np.append(steps.ravel(), coarse[-1])
    if at is None:
        rows = np.arange(scenario.samples) * stride
    else:
        path = np.union1d(path, [at])
        rows = np.searchsorted(path, [at])
    initial = wkb_mode(scenario.profile, scenario.t_start)
    base = evolve_mode(scenario.profile, initial, path, rel_tol=scenario.ode_rel_tol)
    _, theta = polar_decompose(base)
    return base, theta, rows


def _wavefunctions(scenario: Scenario, specs: list, point, theta: float, hermite=None) -> list:
    """Wave functions of states sharing alpha and squeeze at one mode point,
    on one scenario grid sized for the highest n among them.  ``hermite`` is
    the comoving_hermite table of a single state."""
    x = spatial_grid(
        point,
        scenario.hbar,
        n=max(spec.n for spec in specs),
        alpha=specs[0].alpha,
        points=scenario.grid_points,
        half_width_sigmas=scenario.half_width_sigmas,
    )
    return [dsn_wavefunction(spec, point, x, theta=theta, hermite=hermite) for spec in specs]


def _state_rows(scenario: Scenario, spec: StateSpec, squeezed, theta, rows):
    """Mode point and wave function of one state at each of ``rows`` of its
    squeezed mode, all from one comoving_hermite table: the state's grid
    follows the classical center and scales with rho, so h_n is the same at
    every time."""
    hermite = comoving_hermite(spec.n, scenario.grid_points, scenario.half_width_sigmas)
    for k in rows:
        point = squeezed.point(k)
        (grid,) = _wavefunctions(scenario, [spec], point, float(theta[k]), hermite)
        yield k, point, grid


def _moments(scenario: Scenario, spec: StateSpec, point, grid):
    """Analytic and quadrature moments of one state and their largest gap."""
    analytic = analytic_moments(spec, point)
    quad = quadrature_moments(grid, scenario.hbar)
    gap = max(
        abs(analytic.mean_x - quad.mean_x),
        abs(analytic.mean_p - quad.mean_p),
        abs(analytic.mean_x2 - quad.mean_x2),
        abs(analytic.mean_p2 - quad.mean_p2),
    )
    return analytic, quad, gap


def _state_label(spec: StateSpec) -> dict:
    return {
        "n": spec.n,
        "alpha": {"re": spec.alpha.real, "im": spec.alpha.imag},
        "r": spec.squeeze.r,
        "phi": spec.squeeze.phi,
    }


# ---------------------------------------------------------------- commands
def _cmd_evolve(scenario: Scenario, args, outdir: Path) -> int:
    base, theta, rows = _base_trajectory(scenario)
    if not scenario.write_csv:
        print(f"evolve: {1 + len(scenario.states)} trajectories, CSV output disabled")
        return 0
    io.write_trajectory_csv(base, outdir / "trajectory_base.csv", theta, indices=rows)
    for i, spec in enumerate(scenario.states):
        io.write_trajectory_csv(
            apply_squeeze(base, spec.squeeze),
            outdir / f"trajectory_state_{i:03d}.csv",
            squeezed_phase(theta, spec.squeeze),
            indices=rows,
        )
    print(f"evolve: wrote {1 + len(scenario.states)} trajectory files to {outdir}")
    return 0


def _cmd_wavefunction(scenario: Scenario, args, outdir: Path) -> int:
    index = args.state_index
    if not 0 <= index < len(scenario.states):
        raise ScenarioError(f"--state-index {index} out of range (0..{len(scenario.states) - 1})")
    t = scenario.t_start if args.t is None else args.t
    if not scenario.t_start <= t <= scenario.t_end:
        raise ScenarioError(f"--t {t} outside the scenario window")
    spec = scenario.states[index]
    base, theta, (k,) = _base_trajectory(scenario, at=t)
    squeezed = apply_squeeze(base, spec.squeeze)
    theta_nu = squeezed_phase(theta, spec.squeeze)
    (grid,) = _wavefunctions(scenario, [spec], squeezed.point(k), float(theta_nu[k]))
    if not scenario.write_csv:
        print(f"wavefunction: state {index} at t={io.fmt(t)}, CSV output disabled")
        return 0
    grid.meta["profile_hash"] = profile_hash(scenario.profile)
    path = outdir / f"wavefunction_state_{index:03d}_t_{io.fmt(t)}.csv"
    io.write_wavefunction_csv(grid, path)
    print(f"wavefunction: wrote {path}")
    return 0


def _moment_records(scenario: Scenario, base, theta, rows, spec: StateSpec) -> list:
    squeezed = apply_squeeze(base, spec.squeeze)
    theta_nu = squeezed_phase(theta, spec.squeeze)
    records = []
    for k, point, grid in _state_rows(scenario, spec, squeezed, theta_nu, rows):
        analytic, quad, diff = _moments(scenario, spec, point, grid)
        records.append(
            {
                "t": float(squeezed.t[k]),
                **_state_label(spec),
                "analytic": analytic.to_dict(),
                "quadrature": quad.to_dict(),
                "max_abs_diff": diff,
            }
        )
    return records


def _cmd_moments(scenario: Scenario, args, outdir: Path) -> int:
    base, theta, rows = _base_trajectory(scenario)
    records = [
        rec
        for spec in scenario.states
        for rec in _moment_records(scenario, base, theta, rows, spec)
    ]
    worst = max(rec["max_abs_diff"] for rec in records)
    report = {
        "profile_hash": profile_hash(scenario.profile),
        "worst_max_abs_diff": worst,
        "records": records,
    }
    if scenario.write_json:
        io.write_json(report, outdir / "moments.json")
    print(f"moments: {len(records)} records, worst analytic/quadrature gap {worst:.3e}")
    return 0


def _squeezed_tol(tol: float, r: float, growth: float) -> float:
    """``tol``, or 4 eps e^{growth r} where that is larger.

    static_coefficients takes a squeezed state's width from
    cosh 2r + sinh 2r cos(2 omega0 t - phi), which cancels down to e^{-2r}
    at the narrowest, so its relative rounding reaches eps e^{4r}/2.  A_nu
    (up to e^r) carries it into the Nieto time identities as up to
    eps e^{5r}/2, and the closed-form amplitude (up to e^{r/2}) into the
    pointwise gap as about eps e^{4.5r} (2n + 1)/20.  On a scan of
    r in [0, 5], phi in {0, pi/2, pi}, t in (0, 2 pi] and n <= 9 the
    residuals stay below a quarter of the widened tolerances, and an A_nu or
    a closed-form amplitude off by 1e-6 relative at the narrowest time still
    fails them.  Both tolerances equal ``tol`` at r = 0.
    """
    return max(tol, 4.0 * sys.float_info.epsilon * math.exp(growth * r))


def _verify_checks(scenario: Scenario) -> list:
    checks = []

    def add(name, inputs, residual, tolerance, larger_is_fail=True):
        passed = residual <= tolerance if larger_is_fail else residual >= tolerance
        checks.append(
            {
                "check": name,
                "inputs": inputs,
                "residual": float(residual),
                "tolerance": float(tolerance),
                "passed": bool(passed),
            }
        )

    base, base_theta, rows = _base_trajectory(scenario)
    add("wronskian_drift_base", {"profile": scenario.profile.kind}, base.max_wronskian_drift, WRONSKIAN_TOL)
    probe_rows = rows[:: max(1, (len(rows) - 1) // 4)]
    t_mid = 0.5 * (scenario.t_start + scenario.t_end)
    residuals = schrodinger_residual(
        scenario.states, scenario.profile, base, t_mid, scenario.residual_dt
    )

    # states sharing a mode and a displacement, keyed to that shared mode
    groups: dict = {}
    for idx, spec in enumerate(scenario.states):
        squeezed = apply_squeeze(base, spec.squeeze)
        theta = squeezed_phase(base_theta, spec.squeeze)
        _, _, members = groups.setdefault((spec.squeeze, spec.alpha), (squeezed, theta, []))
        members.append((idx, spec))
        add("wronskian_drift_squeezed", {"state": idx}, squeezed.max_wronskian_drift, WRONSKIAN_TOL)
        for k, point, grid in _state_rows(scenario, spec, squeezed, theta, probe_rows):
            t_k = float(squeezed.t[k])
            add(
                "normalization",
                {"state": idx, "t": t_k},
                abs(grid.norm_sq() - 1.0),
                scenario.quadrature_tol,
            )
            _, quad, gap = _moments(scenario, spec, point, grid)
            add("moment_agreement", {"state": idx, "t": t_k}, gap, scenario.quadrature_tol)
            floor = scenario.hbar * (spec.n + 0.5) - scenario.quadrature_tol
            add(
                "uncertainty_floor",
                {"state": idx, "t": t_k},
                quad.uncertainty_product,
                floor,
                larger_is_fail=False,
            )
        if spec.alpha != 0:
            classical = classical_equation_residual(squeezed, spec.alpha, scenario.hbar)
            add("classical_equation", {"state": idx}, classical["equation_residual"], CLASSICAL_TOL)
            add("classical_momentum", {"state": idx}, classical["momentum_mismatch"], CLASSICAL_TOL)
        add("schrodinger_residual", {"state": idx, "t": t_mid}, residuals[idx], RESIDUAL_TOL)

    # orthogonality between states sharing a mode and a displacement
    for squeezed, theta, members in groups.values():
        if len(members) < 2:
            continue
        k = probe_rows[len(probe_rows) // 2]
        grids = _wavefunctions(
            scenario, [spec for _, spec in members], squeezed.point(k), float(theta[k])
        )
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                (ia, sa), (ib, sb) = members[a], members[b]
                if sa.n == sb.n:
                    continue
                overlap = abs(inner_product(grids[a], grids[b]))
                add(
                    "orthogonality",
                    {"states": [ia, ib], "t": float(squeezed.t[k])},
                    overlap,
                    ORTHOGONALITY_TOL,
                )

    if scenario.profile.kind == "static" and abs(scenario.hbar - 1.0) < 1e-15:
        p = scenario.profile.params
        if abs(p["m0"] - 1.0) < 1e-15 and abs(p["omega0"] - 1.0) < 1e-15:
            for idx, spec in enumerate(scenario.states):
                t0_res = nieto_t0_identity_residuals(spec.squeeze)
                add("nieto_t0", {"state": idx}, max(t0_res.values()), NIETO_T0_TOL)
                t_probe = min(scenario.t_end, scenario.t_start + 2.0 * math.pi)
                if t_probe > 0:
                    (time_res,) = nieto_time_identity_residuals(spec.squeeze, [t_probe])
                    add(
                        "nieto_time",
                        {"state": idx, "t": t_probe},
                        max(time_res.values()),
                        _squeezed_tol(NIETO_TIME_TOL, spec.squeeze.r, NIETO_TIME_GROWTH),
                    )
                if scenario.t_start >= 0:
                    (report,) = crosscheck_static(
                        spec.squeeze,
                        spec.n,
                        spec.alpha,
                        [max(scenario.t_start, min(scenario.t_end, 2.0))],
                    )
                    add(
                        "pipeline_vs_closed_form",
                        {"state": idx, "t": report["t"]},
                        report["max_pointwise_diff"],
                        _squeezed_tol(CROSSCHECK_TOL, spec.squeeze.r, CROSSCHECK_GROWTH),
                    )
    return checks


def _cmd_verify(scenario: Scenario, args, outdir: Path) -> int:
    checks = _verify_checks(scenario)
    failed = [c for c in checks if not c["passed"]]
    report = {
        "profile_hash": profile_hash(scenario.profile),
        "checks_total": len(checks),
        "checks_failed": len(failed),
        "checks": checks,
    }
    if scenario.write_json:
        io.write_json(report, outdir / "verify.json")
    for check in checks:
        status = "pass" if check["passed"] else "FAIL"
        print(
            f"{status} {check['check']} residual={check['residual']:.3e} "
            f"tol={check['tolerance']:.3e}"
        )
    print(f"verify: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return 2 if failed else 0


def _cmd_static_compare(scenario: Scenario, args, outdir: Path) -> int:
    if scenario.profile.kind != "static":
        raise ScenarioError("static-compare requires a static profile")
    p = scenario.profile.params
    if scenario.t_start < 0:
        raise ScenarioError("static-compare requires t_start >= 0")
    times = scenario.time_grid()

    unit = p["m0"] == 1.0 and p["omega0"] == 1.0 and scenario.hbar == 1.0
    reports = []
    for spec in scenario.states:
        cases = crosscheck_static(
            spec.squeeze,
            spec.n,
            spec.alpha,
            times,
            m0=p["m0"],
            omega0=p["omega0"],
            hbar=scenario.hbar,
        )
        if unit:
            # Nieto's identities: the t = 0 set once, the time set along one path
            t0_identities = nieto_t0_identity_residuals(spec.squeeze)
            time_identities = nieto_time_identity_residuals(spec.squeeze, times)
            for case, identities in zip(cases, time_identities):
                case["t0_identities"] = t0_identities
                case["time_identities"] = identities
        reports += cases
    worst = max(rep["max_pointwise_diff"] for rep in reports)
    summary = {
        "profile_hash": profile_hash(scenario.profile),
        "worst_max_pointwise_diff": worst,
        "cases": reports,
    }
    if scenario.write_json:
        io.write_json(summary, outdir / "static_compare.json")
    print(f"static-compare: {len(reports)} cases, worst pointwise gap {worst:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdho",
        description="Displaced and squeezed number states of a time-dependent oscillator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("evolve", "export mode trajectories as CSV"),
        ("wavefunction", "export one wave function as CSV"),
        ("moments", "analytic vs quadrature moments as JSON"),
        ("verify", "run the invariant and cross-check suite"),
        ("static-compare", "pipeline vs closed-form sweep (static profiles)"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("scenario", help="path to the scenario JSON file")
        cmd.add_argument("--out", default=None, help="output directory override")
        if name == "wavefunction":
            cmd.add_argument("--state-index", type=int, default=0)
            cmd.add_argument("--t", type=float, default=None)
    return parser


# built once: parse_args leaves the parser unchanged
_PARSER = build_parser()

_COMMANDS = {
    "evolve": _cmd_evolve,
    "wavefunction": _cmd_wavefunction,
    "moments": _cmd_moments,
    "verify": _cmd_verify,
    "static-compare": _cmd_static_compare,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        outdir = Path(args.out) if args.out else Path(scenario.out_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](scenario, args, outdir)
    except (ScenarioError, ProfileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ModeSolverError, GridError, PhaseUnwrapError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except TdhoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
