import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from tdho import (
    ModePoint,
    ModeSolverError,
    OscillatorProfile,
    PhaseUnwrapError,
    ProfileError,
    SqueezeParams,
    apply_squeeze,
    diagonalization_residual,
    evolve_mode,
    polar_decompose,
    squeezed_phase,
    static_mode,
    wkb_mode,
    wronskian,
)
from tdho import cli, mode_solver

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def brute_force_rk4(profile, u0, udot0, t_end, steps):
    """Independent fixed-step RK4 oracle for the mode equation."""

    def rhs(t, y):
        m = float(profile.mass(t))
        mdot = float(profile.mass_dot(t))
        w2 = float(profile.omega_sq(t))
        return np.array([y[1], -(mdot / m) * y[1] - w2 * y[0]])

    dt = t_end / steps
    y = np.array([u0, udot0], dtype=complex)
    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + dt / 2 * k1)
        k3 = rhs(t + dt / 2, y + dt / 2 * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return y


# ---------------------------------------------------------------- static
def test_static_mode_at_origin():
    point = static_mode(1.0, 1.0, 0.0)
    assert point.u == pytest.approx(1 / math.sqrt(2))
    assert point.u_dot == pytest.approx(-1j / math.sqrt(2))
    assert complex(wronskian(point)) == pytest.approx(1j, abs=1e-15)


def test_static_mode_closed_form_values():
    # u = e^{-i pi}/sqrt(12) = -1/sqrt(12), u' = -3i u
    point = static_mode(2.0, 3.0, math.pi / 3)
    assert point.u.real == pytest.approx(-0.28867513459481287, abs=1e-15)
    assert point.u.imag == pytest.approx(0.0, abs=1e-15)
    assert abs(point.u) == pytest.approx(0.28867513459481287, abs=1e-15)
    assert point.u_dot == pytest.approx(0.8660254037844386j, abs=1e-15)


def test_static_mode_rejects_bad_domain():
    with pytest.raises(ProfileError):
        static_mode(-1.0, 1.0, 0.0)
    with pytest.raises(ProfileError):
        static_mode(1.0, 0.0, 0.0)


def test_wronskian_bilinearity():
    point = static_mode(1.0, 1.0, 0.3)
    doubled = type(point)(t=point.t, u=2 * point.u, u_dot=2 * point.u_dot, mass=point.mass)
    assert complex(wronskian(doubled)) == pytest.approx(4j, abs=1e-14)


# ---------------------------------------------------------------- WKB
def test_wkb_equals_static_for_constant_profile(static_profile):
    for t in (0.0, 1.7, 7.3, -2.5):
        wkb = wkb_mode(static_profile, t)
        exact = static_mode(1.0, 1.0, t)
        assert wkb.u == pytest.approx(exact.u, abs=1e-12)
        assert wkb.u_dot == pytest.approx(exact.u_dot, abs=1e-12)


def test_wkb_diagonalizes_slow_ramp():
    prof = OscillatorProfile.linear_ramp(m0=1.0, omega0=1.0, rate=1e-4)
    point = wkb_mode(prof, 10.0)
    assert diagonalization_residual(point, float(prof.omega_sq(10.0))) <= 1e-3
    assert complex(wronskian(point)) == pytest.approx(1j, abs=1e-12)


def test_wkb_rejects_vanishing_frequency():
    prof = OscillatorProfile.sinusoidal(m0=1.0, omega0=1.0, depth=1.2, rate=1.0)
    with pytest.raises(ModeSolverError, match="omega"):
        wkb_mode(prof, 10.0)


# ---------------------------------------------------------------- evolve
def test_evolve_static_matches_closed_form(static_profile):
    t_grid = np.linspace(0.0, 20 * math.pi, 1001)
    traj = evolve_mode(static_profile, static_mode(1, 1, 0.0), t_grid)
    exact = np.exp(-1j * t_grid) / math.sqrt(2)
    assert np.max(np.abs(traj.u - exact)) <= 1e-8
    assert np.max(np.abs(traj.u_dot + 1j * exact)) <= 1e-8


def test_evolve_mass_ramp_conserves_wronskian(mass_ramp_profile):
    t_grid = np.linspace(0.0, 100.0, 401)
    traj = evolve_mode(mass_ramp_profile, wkb_mode(mass_ramp_profile, 0.0), t_grid)
    assert traj.max_wronskian_drift <= 1e-8


def test_evolve_quench_against_brute_force(quench_profile):
    t_grid = np.linspace(0.0, 10.0, 11)
    init = wkb_mode(quench_profile, 0.0)
    traj = evolve_mode(quench_profile, init, t_grid)
    oracle = brute_force_rk4(quench_profile, init.u, init.u_dot, 10.0, 40000)
    assert abs(traj.u[-1] - oracle[0]) <= 1e-7
    assert abs(traj.u_dot[-1] - oracle[1]) <= 1e-7


def test_evolve_quench_mixes_mode(quench_profile):
    # after the quench |u| oscillates between turning values instead of
    # staying at the adiabatic magnitude
    t_grid = np.linspace(0.0, 30.0, 601)
    traj = evolve_mode(quench_profile, wkb_mode(quench_profile, 0.0), t_grid)
    late = np.abs(traj.u[traj.t > 10.0])
    assert late.max() - late.min() > 0.1


def test_evolve_independent_of_output_grid(
    static_profile, quench_profile, mass_ramp_profile, sinusoidal_profile
):
    # the solve does not depend on the output grid, so every 4th sample of a
    # fine solve is the coarse solve bit for bit: the CLI reads the scenario
    # time grid off a finer path on this basis.  So is a sparse grid, on
    # which most steps cover no output time and keep no dense output
    ramp = OscillatorProfile.linear_ramp(m0=1.0, omega0=1.0, rate=0.05)
    t_grid = np.linspace(0.0, 10.0, 2001)
    for profile in (static_profile, ramp, sinusoidal_profile, quench_profile, mass_ramp_profile):
        fine = evolve_mode(profile, wkb_mode(profile, 0.0), t_grid)
        for every in (4, 400):
            coarse = evolve_mode(profile, wkb_mode(profile, 0.0), t_grid[::every])
            assert np.array_equal(coarse.u, fine.u[::every]), profile.kind
            assert np.array_equal(coarse.u_dot, fine.u_dot[::every]), profile.kind
        # the sparse solve runs the three extra stages for fewer steps
        assert coarse.rhs_evals < fine.rhs_evals


def test_evolve_independent_of_dense_output_blocks(monkeypatch, sinusoidal_profile):
    # kept steps are packed into arrays of _BLOCK steps, each given its own
    # dense-output pass; the size of the arrays changes no value
    t_grid = np.linspace(0.0, 10.0, 2001)
    initial = wkb_mode(sinusoidal_profile, 0.0)
    whole = evolve_mode(sinusoidal_profile, initial, t_grid)
    for block in (1, 7):
        monkeypatch.setattr(mode_solver, "_BLOCK", block)
        split = evolve_mode(sinusoidal_profile, initial, t_grid)
        assert np.array_equal(split.u, whole.u)
        assert np.array_equal(split.u_dot, whole.u_dot)
        assert split.rhs_evals == whole.rhs_evals


def test_evolve_validates_inputs(static_profile):
    good = static_mode(1, 1, 0.0)
    with pytest.raises(ValueError, match="rel_tol"):
        evolve_mode(static_profile, good, np.linspace(0, 1, 5), rel_tol=1e-3)
    with pytest.raises(ValueError, match="start"):
        evolve_mode(static_profile, good, np.linspace(1.0, 2.0, 5))
    bad = type(good)(t=0.0, u=good.u * 1.01, u_dot=good.u_dot, mass=good.mass)
    with pytest.raises(ModeSolverError, match="Wronskian"):
        evolve_mode(static_profile, bad, np.linspace(0, 1, 5))
    # a NaN start would otherwise choose a NaN step and never finish
    nan = type(good)(t=0.0, u=complex("nan+nanj"), u_dot=good.u_dot, mass=good.mass)
    with pytest.raises(ModeSolverError, match="Wronskian"):
        evolve_mode(static_profile, nan, np.linspace(0, 1, 5))


def test_evolve_reports_profile_failure():
    # mass hits zero at t=5; the integrator must fail and report where
    prof = OscillatorProfile.mass_linear_ramp(m0=1.0, omega0=1.0, rate=-0.2)
    with pytest.raises(ModeSolverError, match="t=5"):
        evolve_mode(prof, wkb_mode(prof, 0.0), np.linspace(0.0, 10.0, 21))


class NonFiniteAfter:
    """A profile whose omega^2 turns infinite after ``calls`` evaluations."""

    def __init__(self, profile, calls):
        self.profile, self.calls = profile, calls

    def coefficients(self, t):
        self.calls -= 1
        m, k, omega_sq = self.profile.coefficients(t)
        return m, k, omega_sq if self.calls >= 0 else math.inf

    def mass(self, t):
        return self.profile.mass(t)


def test_evolve_refuses_non_finite_dense_output(static_profile):
    # the dense output's three extra stages are evaluated after the last
    # step; a non-finite coefficient there is an error, never an inf or NaN
    # written into the trajectory
    t_grid = [0.0, 5.0]  # only the last step covers an output time
    evals = evolve_mode(static_profile, static_mode(1, 1, 0.0), t_grid).rhs_evals
    profile = NonFiniteAfter(static_profile, evals - 3)
    with pytest.raises(ModeSolverError, match="not finite"):
        evolve_mode(profile, static_mode(1, 1, 0.0), t_grid)


def scipy_dop853(profile, initial, t_eval, rel_tol):
    """Reference solve: SciPy's own DOP853 on the same right-hand side."""
    coefficients = profile.coefficients

    def rhs(t, y):
        _, k, omega_sq = coefficients(t)
        return np.array([y[1], -k * y[1] - omega_sq * y[0]], dtype=complex)

    y0 = np.array([initial.u, initial.u_dot], dtype=complex)
    span = (t_eval[0], t_eval[-1])
    return solve_ivp(
        rhs, span, y0, method="DOP853", rtol=rel_tol, atol=1e-12, t_eval=t_eval
    )


def cli_paths():
    """(profile, initial point, path, rel_tol) of each shipped scenario's
    base solve, as the command line builds it, named after the scenario."""
    out = []

    def record(profile, initial, path, rel_tol):
        out.append(pytest.param(profile, initial, np.asarray(path), rel_tol, id=name))
        return evolve_mode(profile, initial, path, rel_tol=rel_tol)

    original = cli.evolve_mode
    cli.evolve_mode = record
    try:
        for name in ("static", "quench", "mass_ramp", "sinusoidal"):
            cli._base_trajectory(cli.load_scenario(SCENARIOS / f"{name}.json"))
    finally:
        cli.evolve_mode = original
    return out


def extra_paths():
    rng = np.random.default_rng(7)
    sinusoid = OscillatorProfile.sinusoidal(
        m0=float(rng.uniform(0.5, 2.0)),
        omega0=float(rng.uniform(0.6, 2.0)),
        depth=float(rng.uniform(0.05, 0.3)),
        rate=float(rng.uniform(1.0, 3.0)),
    )
    narrow = OscillatorProfile.tanh_quench(
        m0=1.0, omega_initial=1.0, omega_final=3.0, t_center=4.0, width=0.02
    )
    ramp = OscillatorProfile.mass_linear_ramp(m0=1.5, omega0=1.2, rate=-0.03, start=1.0)
    # the sinusoid's output is sparse: most of its steps cover no output time
    sparse = np.array([0.0, 3.3, 17.0, 40.0])
    return [
        pytest.param(sinusoid, wkb_mode(sinusoid, 0.0), sparse, 1e-10, id="seeded_sinusoid"),
        pytest.param(
            narrow, wkb_mode(narrow, 0.0), np.linspace(0.0, 8.0, 801), 1e-11, id="narrow_quench"
        ),
        pytest.param(
            ramp, wkb_mode(ramp, 0.0), np.linspace(0.0, 25.0, 333), 1e-9, id="mass_ramp"
        ),
    ]


@pytest.mark.parametrize("profile, initial, t_eval, rel_tol", cli_paths() + extra_paths())
def test_evolve_matches_scipy_dop853(profile, initial, t_eval, rel_tol):
    # the in-module stepper is SciPy's DOP853: the same steps, hence the same
    # count of right-hand-side evaluations, and values equal to rounding
    traj = evolve_mode(profile, initial, t_eval, rel_tol=rel_tol)
    sol = scipy_dop853(profile, initial, t_eval, rel_tol)
    assert sol.success
    assert traj.rhs_evals == sol.nfev
    for ours, ref in ((traj.u, sol.y[0]), (traj.u_dot, sol.y[1])):
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_evolve_reports_step_underflow():
    # omega = 1e100 needs steps near 1e-100, far below ten units in the last
    # place of t = 1, so the step size underflows at once
    prof = OscillatorProfile.static(m0=1.0, omega0=1e100)
    with pytest.raises(ModeSolverError, match="step size"):
        evolve_mode(prof, static_mode(1.0, 1e100, 1.0), [1.0, 2.0])


def test_evolve_reports_overflow():
    # a normalized mode with |u| near the top of the float range: |u| itself
    # is no longer a float, and the solve fails with a named error
    mass, c = 1e-10, 0.25 / 1e-10 / 1.3e308
    start = ModePoint(t=0.0, u=1.3e308 * (1 + 1j), u_dot=complex(c, -c), mass=mass)
    assert abs(complex(wronskian(start)) - 1j) <= 1e-12
    with pytest.raises(ModeSolverError, match="overflow"):
        evolve_mode(OscillatorProfile.static(mass, 1.0), start, [0.0, 1.0])


# ---------------------------------------------------------------- squeeze
def test_apply_squeeze_identity_at_zero_r():
    point = static_mode(1, 1, 0.4)
    out = apply_squeeze(point, SqueezeParams(0.0, 0.0))
    assert out.u == point.u
    assert out.u_dot == point.u_dot


def test_apply_squeeze_closed_form_value():
    # u_nu(0) = (cosh 0.5 + sinh 0.5)/sqrt(2) = e^{0.5}/sqrt(2)
    out = apply_squeeze(static_mode(1, 1, 0.0), SqueezeParams(0.5, 0.0))
    assert out.u == pytest.approx(1.1658219907985621, abs=1e-15)


def test_squeeze_composition_additive(static_profile):
    t_grid = np.linspace(0.0, 5.0, 101)
    base = evolve_mode(static_profile, static_mode(1, 1, 0.0), t_grid)
    once = apply_squeeze(apply_squeeze(base, SqueezeParams(0.3, 0.0)), SqueezeParams(0.45, 0.0))
    combined = apply_squeeze(base, SqueezeParams(0.75, 0.0))
    assert np.max(np.abs(once.u - combined.u)) <= 1e-12
    assert np.max(np.abs(once.u_dot - combined.u_dot)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=5.0),
    phi=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)
@example(r=5.0, phi=0.0)
def test_squeeze_params_hyperbolic_identity(r, phi):
    sq = SqueezeParams(r, phi)
    # |mu|^2 + |nu|^2 = cosh(2r): rounding of the difference scales with it
    assert abs(abs(sq.mu) ** 2 - abs(sq.nu) ** 2 - 1.0) <= 1e-12 * math.cosh(2 * r)


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=3.0),
    phi=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
    t=st.floats(min_value=-5.0, max_value=5.0),
)
def test_squeeze_preserves_wronskian(r, phi, t):
    out = apply_squeeze(static_mode(1.0, 1.0, t), SqueezeParams(r, phi))
    assert abs(complex(wronskian(out)) - 1j) <= 1e-12


# ---------------------------------------------------------------- polar
def test_polar_decompose_static_unwraps(static_profile):
    t_grid = np.linspace(0.0, 4 * math.pi, 301)
    traj = evolve_mode(static_profile, static_mode(1, 1, 0.0), t_grid)
    rho, theta = polar_decompose(traj)
    assert np.max(np.abs(rho - 1 / math.sqrt(2))) <= 1e-9
    assert theta[-1] == pytest.approx(4 * math.pi, abs=1e-8)


def test_polar_decompose_squeezed_magnitude():
    # rho^2(t) = [cosh 2r + sinh 2r cos 2t]/2 for r=0.5, phi=0
    t_grid = np.linspace(0.0, 2.0, 201)
    traj = apply_squeeze(static_mode(1.0, 1.0, t_grid), SqueezeParams(0.5, 0.0))
    rho, _ = polar_decompose(traj)
    assert rho[90] ** 2 == pytest.approx(0.6380362309667779, abs=1e-14)  # t = 0.9
    expected = 0.5 * (np.cosh(1.0) + np.sinh(1.0) * np.cos(2 * t_grid))
    assert np.max(np.abs(rho**2 - expected)) <= 1e-14


def test_polar_decompose_reconstructs(static_profile):
    t_grid = np.linspace(0.0, 6.0, 300)
    traj = apply_squeeze(
        evolve_mode(static_profile, static_mode(1, 1, 0.0), t_grid), SqueezeParams(0.8, 1.3)
    )
    rho, theta = polar_decompose(traj)
    assert np.max(np.abs(rho * np.exp(-1j * theta) - traj.u)) <= 1e-14


def test_polar_decompose_single_point():
    point = static_mode(1.0, 1.0, 0.7)
    rho, theta = polar_decompose(point)
    assert rho == pytest.approx(1 / math.sqrt(2))
    assert theta == pytest.approx(0.7)


def test_polar_decompose_guards_coarse_grid(static_profile):
    # phase advances by 2.0 rad per step, above the pi/2 guard
    t_grid = np.linspace(0.0, 8.0, 5)
    traj = evolve_mode(static_profile, static_mode(1, 1, 0.0), t_grid)
    with pytest.raises(PhaseUnwrapError):
        polar_decompose(traj)


@pytest.mark.parametrize(
    "profile_name, t_start, turn",
    [
        ("quench_profile", 4.0, 0.0),  # across the quench at t = 5
        ("sinusoidal_profile", 0.0, 0.0),
        ("sinusoidal_profile", 0.0, 3.0),  # base phase starting near pi
    ],
)
@pytest.mark.parametrize("r", [0.0, 0.5, 2.0, 5.0])
def test_squeezed_phase_matches_unwrap(request, profile_name, t_start, turn, r):
    # the closed form against the numerical unwrap of a squeezed trajectory
    # sampled densely enough for it: 2^17 rows over two time units keep
    # its phase steps under 0.7 rad at r = 5
    profile = request.getfixturevalue(profile_name)
    start = wkb_mode(profile, t_start)
    rotation = complex(math.cos(turn), -math.sin(turn))
    start = ModePoint(start.t, start.u * rotation, start.u_dot * rotation, start.mass)
    base = evolve_mode(profile, start, np.linspace(t_start, t_start + 2.0, (1 << 17) + 1))
    _, theta = polar_decompose(base)
    # both routes round at about eps e^{2r}: the squeezed mode's modulus
    # dips to e^{-r} of its two terms
    tol = max(1e-12, 4e-15 * math.exp(2.0 * r))
    for phi in np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False):
        sq = SqueezeParams(r, phi)
        _, expected = polar_decompose(apply_squeeze(base, sq))
        assert np.max(np.abs(squeezed_phase(theta, sq) - expected)) <= tol


# ---------------------------------------------------------------- residual
def test_diagonalization_residual_static_zero():
    for t in (0.0, 1.1, 9.4):
        assert diagonalization_residual(static_mode(1, 1, t), 1.0) <= 1e-14


def test_diagonalization_residual_squeezed():
    # tanh(2r) at t=0 for phi=0: frozen for r=0.5
    point = apply_squeeze(static_mode(1, 1, 0.0), SqueezeParams(0.5, 0.0))
    assert diagonalization_residual(point, 1.0) == pytest.approx(0.7615941559557649, abs=1e-14)


def test_diagonalization_residual_degenerate_case():
    from tdho import ModePoint

    point = ModePoint(t=0.0, u=1.0 + 0j, u_dot=0j, mass=1.0)
    assert diagonalization_residual(point, 0.0) == 0.0
