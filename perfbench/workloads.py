"""Seeded scenario generation for the three benchmark workloads.

Every input is drawn from ``numpy.random.default_rng([seed, workload])``,
so one seed always yields the same scenarios and requests.  The program sees only the
scenario files written here and the command lines built for them.

Profile kinds are assigned round-robin rather than drawn, and quantum
numbers are drawn one per stratum of the allowed range, so that two seeds
give workloads of nearly the same cost and the run-to-run spread of the
end-to-end metrics reflects the program and the machine, not the draw.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KINDS = ("static", "linear_ramp", "sinusoidal", "tanh_quench", "mass_linear_ramp")


@dataclass
class Scenario:
    """One generated scenario file and the requests made against it."""

    name: str
    raw: dict
    requests: list = field(default_factory=list)  # argv lists, without the scenario path

    def path(self, root: Path) -> Path:
        return root / "scenarios" / f"{self.name}.json"

    def out_dir(self, root: Path) -> Path:
        return root / "out" / self.name


def _profile(rng, kind: str, window: float, unit_static: bool = False) -> dict:
    """One profile of ``kind`` that stays physical over [0, window].

    Ramps are scaled with the window so that mass and frequency stay within
    a factor of about two of their start values; sinusoidal modulation keeps
    its rate between the first two parametric resonances (2 omega0 and
    omega0) so the mode amplitude stays bounded over long windows.

    Modulation depth stays at or below 0.15 and a quench changes the
    frequency by at most a factor of 1.5.  Both squeeze the states further,
    and the CLI's fixed spatial grid then under-resolves n = 25 states with
    r = 0.5: their analytic/quadrature moment gaps reach 4e-7 x (2n + 1) at
    depth 0.2, 6e-7 x (2n + 1) at a quench ratio of 2 and fail the check at
    a ratio of 2.6 (see README).
    """
    if unit_static:
        return {"kind": "static", "m0": 1.0, "omega0": 1.0}
    m0 = float(rng.uniform(0.5, 2.0))
    omega0 = float(rng.uniform(0.6, 2.0))
    if kind == "static":
        return {"kind": kind, "m0": m0, "omega0": omega0}
    if kind in ("linear_ramp", "mass_linear_ramp"):
        rate = float(rng.uniform(-0.4, 0.8)) / window
        return {"kind": kind, "m0": m0, "omega0": omega0, "rate": rate, "start": 0.0}
    if kind == "sinusoidal":
        return {
            "kind": kind,
            "m0": m0,
            "omega0": omega0,
            "depth": float(rng.uniform(0.05, 0.15)),
            "rate": float(rng.uniform(1.2, 1.6)) * omega0,
        }
    if kind == "tanh_quench":
        return {
            "kind": kind,
            "m0": m0,
            "omega_initial": omega0,
            "omega_final": omega0 * 1.5 ** float(rng.uniform(-1.0, 1.0)),
            "t_center": float(rng.uniform(0.2, 0.8)) * window,
            "width": float(rng.uniform(0.2, 1.5)),
        }
    raise ValueError(f"unknown profile kind {kind!r}")


def _state(rng, n: int, r_max: float) -> dict:
    return {
        "n": int(n),
        "alpha": [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))],
        "r": float(rng.uniform(0.0, r_max)),
        "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
    }


def _stratified_n(rng, count: int, n_max: int) -> list:
    """``count`` quantum numbers in 0..n_max, one per equal stratum, shuffled."""
    edges = np.linspace(0, n_max + 1, count + 1).astype(int)
    values = [int(rng.integers(lo, max(lo + 1, hi))) for lo, hi in zip(edges[:-1], edges[1:])]
    rng.shuffle(values)
    return values


def _scenario(profile: dict, states: list, window: float, samples: int, points: int) -> dict:
    return {
        "profile": profile,
        "hbar": 1.0,
        "states": states,
        "time_grid": {"t_start": 0.0, "t_end": window, "samples": samples},
        "grid": {"points": points, "half_width_sigmas": 8.0},
        "tolerances": {"ode_rel_tol": 1e-10, "quadrature_tol": 1e-6, "residual_dt": 1e-4},
        "outputs": {"csv": True, "json": True},
    }


# state_sweep: quantum numbers stay at or below 25, where the CLI's fixed
# 4096-point grid keeps analytic/quadrature moment gaps well inside the
# checks' allowance (see README).
SWEEP_STATES = 8
SWEEP_N_MAX = 25
SWEEP_SAMPLES = 33
SWEEP_POINTS = 4096


def state_sweep(rng, index: int) -> Scenario:
    kind = KINDS[index % len(KINDS)]
    window = float(rng.uniform(4.0, 8.0))
    profile = _profile(rng, kind, window)
    states = [_state(rng, n, 0.5) for n in _stratified_n(rng, SWEEP_STATES, SWEEP_N_MAX)]
    raw = _scenario(profile, states, window, SWEEP_SAMPLES, SWEEP_POINTS)
    requests = [["moments"]]
    # a wave-function export costs a sixth of a moments sweep.  Every cheap
    # request pushes the latency median down towards the fastest moments
    # requests, where a change of machine speed moves it most; one export
    # for every eighth scenario keeps the median near the middle of them.
    if index % 8 == 0:
        t = float(rng.uniform(0.0, window))
        requests.append(
            ["wavefunction", "--state-index", str(int(rng.integers(SWEEP_STATES))), "--t", repr(t)]
        )
    return Scenario(f"s{index:04d}", raw, requests)


MODE_SAMPLES = 201


def mode_solve(rng, index: int) -> Scenario:
    kind = KINDS[index % len(KINDS)]
    window = float(rng.uniform(36.0, 44.0))
    profile = _profile(rng, kind, window)
    states = [_state(rng, int(rng.integers(0, 4)), 0.5) for _ in range(2)]
    raw = _scenario(profile, states, window, MODE_SAMPLES, 2048)
    return Scenario(f"s{index:04d}", raw, [["evolve"]])


VERIFY_N_MAX = 9
VERIFY_SAMPLES = 33
# tanh quenches are left out: on some of them verify's own classical_equation
# check exceeds its tolerance (1.4e-6 against 1e-6 at width 0.2, up to 9.6e-7
# at width 0.3), so the request would fail on some seeds only (see README)
VERIFY_KINDS = ("linear_ramp", "sinusoidal", "mass_linear_ramp")


def verify_suite(rng, index: int) -> Scenario:
    """Two pairs of displaced states; each pair shares (alpha, r, phi), so
    orthogonality is checked within it.  Every third scenario is the unit
    static oscillator, where the Nieto identities and the closed-form
    cross-check run and static-compare is requested as well."""
    unit_static = index % 3 == 0
    # the other scenarios cycle through the time-dependent kinds
    earlier_dynamic = index - index // 3 - 1
    kind = "static" if unit_static else VERIFY_KINDS[earlier_dynamic % len(VERIFY_KINDS)]
    window = float(rng.uniform(4.0, 8.0))
    profile = _profile(rng, kind, window, unit_static=unit_static)
    ns = _stratified_n(rng, 4, VERIFY_N_MAX)  # distinct: one per stratum
    states = []
    for pair in range(2):
        shared = _state(rng, 0, 0.5)
        states += [dict(shared, n=ns[2 * pair]), dict(shared, n=ns[2 * pair + 1])]
    raw = _scenario(profile, states, window, VERIFY_SAMPLES, 4096)
    requests = [["verify"]] + ([["static-compare"]] if unit_static else [])
    return Scenario(f"s{index:04d}", raw, requests)


WORKLOADS = {
    "state_sweep": state_sweep,
    "mode_solve": mode_solve,
    "verify_suite": verify_suite,
}


def stream(workload: str, seed: int):
    """The endless, reproducible sequence of ``workload`` scenarios for ``seed``."""
    make = WORKLOADS[workload]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return (make(rng, i) for i in itertools.count())


def generate(workload: str, seed: int, count: int) -> list:
    """The first ``count`` scenarios of ``stream(workload, seed)``."""
    return list(itertools.islice(stream(workload, seed), count))


def write(scenario: Scenario, root: Path) -> None:
    """Write the scenario file; the program creates the output directory."""
    path = scenario.path(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(scenario.raw), encoding="utf-8")


def argv(sc: Scenario, request: list, root: Path) -> list:
    """Full ``tdho`` command line of one request."""
    return [request[0], str(sc.path(root)), "--out", str(sc.out_dir(root)), *request[1:]]
