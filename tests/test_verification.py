import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid

from tdho import (
    GridError,
    ModeTrajectory,
    OscillatorProfile,
    ScenarioError,
    SqueezeParams,
    StateSpec,
    apply_squeeze,
    classical_equation_residual,
    crosscheck_static,
    dsn_wavefunction,
    evolve_mode,
    nieto_F,
    nieto_t0_identity_residuals,
    nieto_time_identity_residuals,
    polar_decompose,
    schrodinger_residual,
    spatial_grid,
    static_closed_form_wavefunction,
    static_coefficients,
    static_mode,
    wkb_mode,
)
from tdho import verification
from tdho._numerics import second_derivative
from tdho.mode_solver import MAX_PATH_ROWS


# ------------------------------------------------------- static coefficients
def test_static_coefficients_unsqueezed():
    coeff = static_coefficients(SqueezeParams(0.0, 0.0), 2.0, 1.5, 2.0, 3.0)
    assert coeff.A_nu == pytest.approx(math.sqrt(2.0 * 1.5 / 2.0), abs=1e-15)
    assert coeff.B_nu == pytest.approx(2.0 * 1.5 / (2.0 * 2.0), abs=1e-15)
    assert coeff.theta_nu == pytest.approx(1.5 * 3.0, abs=1e-12)


def test_static_coefficients_squeezed_width():
    # A_nu(0) = e^{-r} at phi=0, m0=omega0=hbar=1
    coeff = static_coefficients(SqueezeParams(0.5, 0.0), 1.0, 1.0, 1.0, 0.0)
    assert coeff.A_nu == pytest.approx(0.6065306597126334, abs=1e-15)


def test_static_coefficients_match_pipeline(rng):
    # A_nu = 1/(sqrt(2 hbar) rho_nu), Re B_nu = 1/(4 hbar rho_nu^2),
    # theta_nu = unwrapped mode phase
    hbar = 1.0
    for _ in range(20):
        sq = SqueezeParams(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
        t = rng.uniform(0.0, 8.0)
        ts = np.linspace(0.0, max(t, 1e-6), 4096)
        traj = apply_squeeze(static_mode(1.0, 1.0, ts), sq)
        rho_arr, theta_arr = polar_decompose(traj)
        rho = rho_arr[-1]
        coeff = static_coefficients(sq, 1.0, 1.0, hbar, float(ts[-1]))
        assert abs(coeff.A_nu - 1.0 / (math.sqrt(2.0 * hbar) * rho)) <= 1e-12
        assert abs(coeff.B_nu.real - 1.0 / (4.0 * hbar * rho**2)) <= 1e-12
        assert abs(coeff.theta_nu - theta_arr[-1]) <= 1e-10
        assert coeff.B_nu.real > 0
        assert abs(coeff.A_nu**2 - 2.0 * coeff.B_nu.real) <= 1e-12


# ------------------------------------------------------- Nieto coefficients
def test_nieto_F_unsqueezed():
    f = nieto_F(SqueezeParams(0.0, 0.0))
    assert f.F2 == pytest.approx(1.0, abs=1e-15)
    assert f.F3 == pytest.approx(1.0, abs=1e-15)
    assert f.F4 == pytest.approx(1.0, abs=1e-15)


def test_nieto_F_frozen_values():
    f = nieto_F(SqueezeParams(0.5, 0.0))
    # F4 = cosh r + sinh r = e^r, F2 = e^{-2r} at phi = 0
    assert f.F4 == pytest.approx(1.6487212707001282, abs=1e-15)
    assert f.F2 == pytest.approx(0.36787944117144233, abs=1e-14)


def test_nieto_F3_is_pure_phase(rng):
    for _ in range(25):
        f = nieto_F(SqueezeParams(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi)))
        assert abs(abs(f.F3) - 1.0) <= 1e-14


def test_nieto_t0_identities():
    for r in (0.0, 0.25, 0.5, 1.0, 1.5):
        for phi in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
            residuals = nieto_t0_identity_residuals(SqueezeParams(r, phi))
            assert max(residuals.values()) <= 1e-12


def test_nieto_time_identities_random_sweep(rng):
    for _ in range(30):
        sq = SqueezeParams(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
        times = np.sort(rng.uniform(0.0, 2 * math.pi, 3))
        residuals = nieto_time_identity_residuals(sq, times)
        assert len(residuals) == 3
        assert max(max(res.values()) for res in residuals) <= 1e-10


# ------------------------------------------------------- pipeline crosscheck
def test_crosscheck_trivial_case():
    (report,) = crosscheck_static(SqueezeParams(0.0, 0.0), 0, 0j, [0.0])
    assert report["max_pointwise_diff"] <= 1e-12


def test_crosscheck_generic_case():
    sq = SqueezeParams(0.5, 1.0)
    (report,) = crosscheck_static(sq, 3, 1.0 + 0.5j, [2.7])
    assert report["t"] == 2.7
    assert report["max_pointwise_diff"] <= 1e-10
    assert max(nieto_t0_identity_residuals(sq).values()) <= 1e-12
    (time_identities,) = nieto_time_identity_residuals(sq, [2.7])
    assert max(time_identities.values()) <= 1e-10


@pytest.mark.parametrize("m0, omega0, hbar", [(1.0, 1.0, 1.0), (2.0, 1.5, 0.7)])
def test_static_sweep_matches_single_times(m0, omega0, hbar):
    # one path, one unwrap and one Hermite table per grid size serve the
    # whole sweep; each time reads what a call for that time alone reads
    sq, n, alpha = SqueezeParams(0.8, 2.1), 2, 0.4 - 0.7j
    times = np.linspace(0.0, 2 * math.pi, 9)
    sweep = crosscheck_static(sq, n, alpha, times, m0, omega0, hbar)
    assert [report["t"] for report in sweep] == times.tolist()
    for t, report in zip(times, sweep):
        (alone,) = crosscheck_static(sq, n, alpha, [t], m0, omega0, hbar)
        assert report.keys() == alone.keys()
        assert abs(report["max_pointwise_diff"] - alone["max_pointwise_diff"]) <= 1e-13
    for t, identities in zip(times, nieto_time_identity_residuals(sq, times)):
        (alone,) = nieto_time_identity_residuals(sq, [t])
        for key, value in identities.items():
            assert abs(value - alone[key]) <= 1e-13


@pytest.mark.parametrize(
    "sweep",
    [
        lambda times: crosscheck_static(SqueezeParams(0.3, 0.0), 1, 0j, times),
        lambda times: nieto_time_identity_residuals(SqueezeParams(0.3, 0.0), times),
    ],
    ids=["crosscheck_static", "nieto_time_identity_residuals"],
)
def test_static_sweep_rejects_negative_time(sweep):
    with pytest.raises(ValueError, match=">= 0"):
        sweep([0.5, -0.25, 1.0])


@pytest.mark.parametrize(
    "sweep",
    [
        lambda times: crosscheck_static(SqueezeParams(6.0, 0.0), 0, 0j, times),
        lambda times: nieto_time_identity_residuals(SqueezeParams(6.0, 0.0), times),
    ],
    ids=["crosscheck_static", "nieto_time_identity_residuals"],
)
def test_static_sweep_ceiling_refused_unbuilt(sweep):
    # r = 6 to t = 2 pi asks for 6.1e6 samples: refused before any is built
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match=f"ceiling of {MAX_PATH_ROWS}"):
            sweep([1.0, 2 * math.pi])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_crosscheck_detects_phase_branch_corruption():
    # a forced 2 pi jump in theta flips e^{-i theta (n+1/2)} sign
    sq = SqueezeParams(0.4, 0.7)
    n, alpha, t = 2, 0.5 + 0j, 1.9
    ts = np.linspace(0.0, t, 2048)
    traj = apply_squeeze(static_mode(1.0, 1.0, ts), sq)
    _, theta_arr = polar_decompose(traj)
    point = traj.point(len(traj) - 1)
    spec = StateSpec(n=n, alpha=alpha, squeeze=sq)
    x = spatial_grid(point, 1.0, n=n, alpha=alpha)
    corrupted = dsn_wavefunction(spec, point, x, theta=float(theta_arr[-1]) + 2 * math.pi)
    closed = static_closed_form_wavefunction(sq, n, alpha, t, x)
    assert np.max(np.abs(corrupted.psi - closed)) > 0.1


# ------------------------------------------------------- Schroedinger residual
def test_residual_static_ground(static_profile):
    t_grid = np.linspace(0.0, 2.0, 41)
    traj = evolve_mode(static_profile, static_mode(1, 1, 0.0), t_grid)
    spec = StateSpec(n=0)
    assert schrodinger_residual([spec], static_profile, traj, 1.0, 1e-4)[0] <= 1e-7


def test_residual_quench_dsn_state(quench_profile):
    t_grid = np.linspace(0.0, 10.0, 41)
    traj = evolve_mode(quench_profile, wkb_mode(quench_profile, 0.0), t_grid)
    spec = StateSpec(n=2, alpha=1.0 + 0j, squeeze=SqueezeParams(0.5, 0.0))
    (r1,) = schrodinger_residual([spec], quench_profile, traj, 6.0, 1e-4)
    assert r1 <= 1e-4
    # halving dt shrinks the residual about 4x (second order)
    (big,) = schrodinger_residual([spec], quench_profile, traj, 6.0, 8e-4)
    (small,) = schrodinger_residual([spec], quench_profile, traj, 6.0, 4e-4)
    assert big / small == pytest.approx(4.0, abs=0.6)


def test_residual_one_solve_serves_all_states(quench_profile, monkeypatch):
    # the solve is sampled for the most squeezed state, which therefore gets
    # the value it gets alone; the others stay small on the denser path
    t_grid = np.linspace(0.0, 10.0, 41)
    traj = evolve_mode(quench_profile, wkb_mode(quench_profile, 0.0), t_grid)
    specs = [
        StateSpec(n=0),
        StateSpec(n=2, alpha=1.0 + 0j, squeeze=SqueezeParams(0.5, 0.0)),
        StateSpec(n=1, alpha=0.5j, squeeze=SqueezeParams(0.2, 1.0)),
    ]
    (alone,) = schrodinger_residual(specs[1:2], quench_profile, traj, 6.0, 1e-4)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return evolve_mode(*args, **kwargs)

    monkeypatch.setattr(verification, "evolve_mode", counting)
    together = schrodinger_residual(specs, quench_profile, traj, 6.0, 1e-4)
    assert len(calls) == 1
    assert together[1] == alone
    assert all(value <= 1e-4 for value in together)


def test_residual_negative_control(quench_profile):
    # dropping the plane-wave factor must blow the residual up to O(1)
    t, dt = 6.0, 1e-4
    spec = StateSpec(n=2, alpha=1.0 + 0j, squeeze=SqueezeParams(0.5, 0.0))
    hbar = 1.0
    path = np.union1d(np.linspace(0.0, t + dt, 4096), [t - dt, t, t + dt])
    base = evolve_mode(quench_profile, wkb_mode(quench_profile, 0.0), path)
    mode_nu = apply_squeeze(base, spec.squeeze)
    _, theta_arr = polar_decompose(mode_nu)
    idx = [int(np.argmin(np.abs(path - s))) for s in (t - dt, t, t + dt)]
    x = spatial_grid(mode_nu.point(idx[1]), hbar, n=spec.n, alpha=spec.alpha)
    psis = []
    for k in idx:
        point = mode_nu.point(k)
        grid = dsn_wavefunction(spec, point, x, theta=float(theta_arr[k]))
        p_c = grid.meta["p_c"]
        psis.append(grid.psi * np.exp(-1j * p_c * x / hbar))
    dpsi_dt = (psis[2] - psis[0]) / (2 * dt)
    mass = float(quench_profile.mass(t))
    omega_sq = float(quench_profile.omega_sq(t))
    dx = float(x[1] - x[0])
    h_psi = -0.5 / mass * second_derivative(psis[1], dx) + 0.5 * mass * omega_sq * x**2 * psis[1]
    residual = 1j * dpsi_dt - h_psi
    rel = math.sqrt(trapezoid(np.abs(residual) ** 2, x)) / math.sqrt(
        trapezoid(np.abs(h_psi) ** 2, x)
    )
    assert rel >= 1e-1


def test_residual_rejects_large_dt(quench_profile):
    t_grid = np.linspace(0.0, 10.0, 41)
    traj = evolve_mode(quench_profile, wkb_mode(quench_profile, 0.0), t_grid)
    spec = StateSpec(n=0)
    with pytest.raises(ValueError, match="dt"):
        schrodinger_residual([spec], quench_profile, traj, 6.0, 2e-3)


def test_residual_rejects_overflowing_squeeze(static_profile):
    # e^{2r} is beyond the float range at r = 400: the dt guard still
    # refuses the step instead of overflowing
    traj = static_mode(1.0, 1.0, np.linspace(0.0, 2.0, 9))
    spec = StateSpec(n=0, squeeze=SqueezeParams(400.0, 0.0))
    with pytest.raises(GridError, match="too large"):
        schrodinger_residual([spec], static_profile, traj, 1.0, 1e-4)


def test_residual_path_ceiling_refused_unbuilt(monkeypatch):
    # omega = 1e7 over one time unit needs 1.6e8 path rows, far above the
    # ceiling: refused before the path is allocated or solved
    profile = OscillatorProfile.static(m0=1.0, omega0=1e7)
    traj = static_mode(1.0, 1e7, np.array([0.0, 2.0]))

    def no_solve(*args, **kwargs):
        raise AssertionError("evolve_mode reached")

    monkeypatch.setattr(verification, "evolve_mode", no_solve)
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match=f"more than {MAX_PATH_ROWS} rows"):
            schrodinger_residual([StateSpec(n=0)], profile, traj, 1.0, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


# ------------------------------------------------------- classical center
def test_classical_residual_quench(quench_profile):
    t_grid = np.linspace(0.0, 10.0, 2001)
    traj = evolve_mode(quench_profile, wkb_mode(quench_profile, 0.0), t_grid)
    traj_nu = apply_squeeze(traj, SqueezeParams(0.5, 0.3))
    result = classical_equation_residual(traj_nu, 1.0 + 0.5j, 1.0)
    assert result["equation_residual"] <= 1e-6
    assert result["momentum_mismatch"] <= 1e-6


def test_classical_residual_rejects_corrupted_trajectory(quench_profile):
    # u' scaled by 1.001 moves p_c off the classical path at once and x_c
    # after it; the independent solve sees both
    t_grid = np.linspace(0.0, 10.0, 2001)
    traj = evolve_mode(quench_profile, wkb_mode(quench_profile, 0.0), t_grid)
    traj_nu = apply_squeeze(traj, SqueezeParams(0.5, 0.3))
    corrupted = ModeTrajectory(
        traj_nu.t, traj_nu.u, traj_nu.u_dot * 1.001, traj_nu.mass, profile=quench_profile
    )
    result = classical_equation_residual(corrupted, 1.0 + 0.5j, 1.0)
    assert result["equation_residual"] > 1e-6
    assert result["momentum_mismatch"] > 1e-6
