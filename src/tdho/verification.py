"""Independent correctness checks for the state-construction pipeline.

Three families of checks live here.  The first discretizes the
time-dependent Schroedinger equation directly: wave functions built
independently at t-dt, t, t+dt are combined into the centered residual
i hbar dPsi/dt - H Psi, which must vanish at second order in dt.  One fresh
mode solve from the trajectory's first sample (no propagator), dense enough
to unwrap its phase, serves every state: each squeezes it and takes its
phase in closed form from that one unwrap.  The second checks that the
displaced states are centred on classical trajectories: the centre
(x_c, p_c) taken from the squeezed mode is compared at every sample with an
independent LSODA solve of x' = p/m, p' = -m omega^2 x started from its
first value.  The third specializes the pipeline to the static oscillator,
where every quantity has a closed form: the Gaussian-envelope coefficients
A, B and the phase Theta admit trigonometric expressions, and at
m0 = omega0 = hbar = 1 they reduce to Nieto's displaced-squeezed-state
coefficient set (F2, F3, F4) and evolution factors (A, B).  These checks
sweep one state over a list of times.  crosscheck_static samples the
squeezed static mode once from t = 0 through the last time, unwraps it
once and reads each time's row; one comoving_hermite table per grid size
serves the pipeline's wave function at every time.  The square roots of
the time-evolved identities are branch-tracked by continuity along one path
from their principal values at t = 0, mirroring the Theta unwrap; the
identities are branch-sensitive.  A squeezed static phase turns at up to
omega0 e^{2r}, so both paths take 6 t_max omega0 e^{2r} samples: that count
is worked out in log form first, and a path of more than MAX_PATH_ROWS rows
is refused with ScenarioError before it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite as hermite_poly
from scipy.integrate import odeint

from ._numerics import continuous_sqrt, second_derivative, trapezoid
from .errors import GridError, ModeSolverError, ScenarioError
from .mode_solver import (
    MAX_PATH_ROWS,
    ModeTrajectory,
    SqueezeParams,
    apply_squeeze,
    evolve_mode,
    polar_decompose,
    squeezed_phase,
    static_mode,
)
from .profiles import OscillatorProfile, evaluate_profile
from .states import (
    StateSpec,
    classical_trajectory,
    comoving_hermite,
    dsn_wavefunction,
    spatial_grid,
)

#: relative tolerance of the fresh mode solves behind schrodinger_residual.
RESIDUAL_ODE_REL_TOL = 1e-11
#: LSODA tolerances of the classical solve behind classical_equation_residual.
CLASSICAL_ODE_RTOL = 1e-11
CLASSICAL_ODE_ATOL = 1e-13


@dataclass(frozen=True)
class StaticCoefficients:
    """Gaussian-envelope coefficients of the static-oscillator closed form.

    A_nu = 1/(sqrt(2 hbar) rho_nu) sets the Hermite argument, B_nu the
    quadratic exponent (Re B_nu = 1/(4 hbar rho_nu^2) > 0 for
    normalizability), and theta_nu is the unwrapped mode phase.
    """

    A_nu: float
    B_nu: complex
    theta_nu: float


@dataclass(frozen=True)
class NietoCoefficients:
    """Static-oscillator displaced-squeezed-state coefficient set (F2, F3, F4)."""

    F2: complex
    F3: complex
    F4: float


def _static_mode_nu(sq: SqueezeParams, m0: float, omega0: float, t):
    """Closed-form squeezed static mode and derivative (no pipeline calls)."""
    t = np.asarray(t, dtype=float)
    c, s_nu = math.cosh(sq.r), math.sinh(sq.r) * np.exp(-1j * sq.phi)
    norm = math.sqrt(2.0 * m0 * omega0)
    u = (c * np.exp(-1j * omega0 * t) + s_nu * np.exp(1j * omega0 * t)) / norm
    u_dot = -1j * omega0 * (c * np.exp(-1j * omega0 * t) - s_nu * np.exp(1j * omega0 * t)) / norm
    return u, u_dot


def static_coefficients(
    sq: SqueezeParams, m0: float, omega0: float, hbar: float, t: float
) -> StaticCoefficients:
    """Closed-form A_nu, B_nu, theta_nu of the squeezed static oscillator.

    theta_nu is continuous in t with the principal value at t = 0 (the
    argument of the squeeze-mixed phasor never leaves (-pi/2, pi/2), so the
    unwrapped phase is omega0 t plus a bounded correction).
    """
    if m0 <= 0 or omega0 <= 0:
        raise ValueError(f"m0 and omega0 must be positive, got ({m0}, {omega0})")
    r, phi = sq.r, sq.phi
    two_wt = 2.0 * omega0 * t - phi
    envelope = math.cosh(2.0 * r) + math.sinh(2.0 * r) * math.cos(two_wt)
    a_nu = math.sqrt(m0 * omega0 / hbar) / math.sqrt(envelope)
    theta = omega0 * t - math.atan2(
        math.sinh(r) * math.sin(two_wt), math.cosh(r) + math.sinh(r) * math.cos(two_wt)
    )
    c, s = math.cosh(r), math.sinh(r)
    zp = c * np.exp(1j * omega0 * t) + s * np.exp(1j * (phi - omega0 * t))
    zm = c * np.exp(1j * omega0 * t) - s * np.exp(1j * (phi - omega0 * t))
    b_nu = (m0 * omega0 / (2.0 * hbar)) * zm / zp
    return StaticCoefficients(A_nu=float(a_nu), B_nu=complex(b_nu), theta_nu=float(theta))


def nieto_F(sq: SqueezeParams) -> NietoCoefficients:
    """Displaced-squeezed-state coefficients F2, F3, F4 of the squeeze."""
    r, phi = sq.r, sq.phi
    c, s = math.cosh(r), math.sinh(r)
    eip = np.exp(1j * phi)
    f2 = (1.0 - 1j * math.sin(phi) * s * (c + eip * s)) / (
        (c + math.cos(phi) * s) * (c + eip * s)
    )
    f3 = (c + np.conj(eip) * s) / (c + eip * s)
    f4 = math.sqrt(c**2 + s**2 + 2.0 * math.cos(phi) * c * s)
    return NietoCoefficients(F2=complex(f2), F3=complex(f3), F4=float(f4))


def nieto_t0_identity_residuals(sq: SqueezeParams) -> dict:
    """Residuals of the t = 0 identities A_nu(0) F4 = 1, B_nu(0) = F2 / 2,
    e^{-i theta_nu(0)} = sqrt(F3), at m0 = omega0 = hbar = 1."""
    f = nieto_F(sq)
    coeff = static_coefficients(sq, 1.0, 1.0, 1.0, 0.0)
    return {
        "A_nu_F4": abs(coeff.A_nu * f.F4 - 1.0),
        "B_nu_F2": abs(coeff.B_nu - f.F2 / 2.0),
        "theta_F3": abs(np.exp(-1j * coeff.theta_nu) - np.sqrt(f.F3)),
    }


def _static_path(times, rate: float, r: float, what: str):
    """Path from t = 0 through the largest of ``times``, merged with them,
    and the row of each time on it: max(64, 6 t_max rate e^{2r} + 1)
    uniform samples, refused above MAX_PATH_ROWS before they are built."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"{what}: times must be a non-empty list")
    if not np.all(times >= 0):
        raise ValueError(f"{what}: times must be >= 0, got {times.min()}")
    t_max = float(times.max())
    # 6 t_max rate e^{2r} in log form: e^{2r} overflows above r ~ 355
    log_rows = math.log(6.0 * t_max * rate) + 2.0 * r if t_max > 0 else -math.inf
    if log_rows > math.log(MAX_PATH_ROWS - 1):
        rows = math.exp(log_rows) + 1.0 if log_rows < 709.0 else math.inf
        raise ScenarioError(
            f"{what}: the squeezed static path to t_max={t_max:.6g} needs {rows:.3g} rows "
            f"(r {r:.6g}), above the ceiling of {MAX_PATH_ROWS}"
        )
    count = max(64, int(math.ceil(t_max * rate * 6.0 * math.exp(2.0 * r))) + 1)
    path = np.union1d(np.linspace(0.0, t_max, count), times)
    return path, np.searchsorted(path, times)


def nieto_time_identity_residuals(sq: SqueezeParams, times) -> list:
    """Residuals of the time-evolved identities A_nu = 1/(F4 B sqrt(A)),
    B_nu = (F2 cos t + i sin t)/(2 (cos t + i F2 sin t)), and
    e^{-i theta_nu} = sqrt(F3 A), with branch-tracked square roots: one dict
    per time of ``times`` (all >= 0), in order.

    Convention m0 = omega0 = hbar = 1, with the evolution factors
    B = cos t + i F2 sin t and A = (F4^2 B - 2 i sin t) / (F4^2 B), which
    stays on the unit circle.  The branches of sqrt(A) and sqrt(F3 A)
    follow continuity in t from their principal values at t = 0 along one
    path through every time; a path of more than MAX_PATH_ROWS rows is
    refused with ScenarioError before it is built.
    """
    path, rows = _static_path(times, 1.0, sq.r, "nieto_time_identity_residuals")
    f = nieto_F(sq)
    b_path = np.cos(path) + 1j * f.F2 * np.sin(path)
    a_path = (f.F4**2 * b_path - 2j * np.sin(path)) / (f.F4**2 * b_path)
    sqrt_a = continuous_sqrt(a_path)[rows]
    sqrt_f3a = continuous_sqrt(f.F3 * a_path)[rows]
    residuals = []
    for t, b, root_a, root_f3a in zip(path[rows].tolist(), b_path[rows], sqrt_a, sqrt_f3a):
        coeff = static_coefficients(sq, 1.0, 1.0, 1.0, t)
        residuals.append(
            {
                "A_nu": abs(coeff.A_nu - 1.0 / (f.F4 * b * root_a)),
                "B_nu": abs(
                    coeff.B_nu
                    - (f.F2 * math.cos(t) + 1j * math.sin(t))
                    / (2.0 * (math.cos(t) + 1j * f.F2 * math.sin(t)))
                ),
                "theta": abs(np.exp(-1j * coeff.theta_nu) - root_f3a),
            }
        )
    return residuals


def static_closed_form_wavefunction(
    sq: SqueezeParams,
    n: int,
    alpha: complex,
    t: float,
    x: np.ndarray,
    m0: float = 1.0,
    omega0: float = 1.0,
    hbar: float = 1.0,
) -> np.ndarray:
    """Displaced-squeezed number-state amplitude from the closed form alone.

    Built entirely from static_coefficients and the trigonometric mode
    expressions, with the Hermite polynomial evaluated through the numpy
    polynomial basis: an independent route against dsn_wavefunction.
    """
    coeff = static_coefficients(sq, m0, omega0, hbar, t)
    u_nu, ud_nu = _static_mode_nu(sq, m0, omega0, t)
    alpha = complex(alpha)
    x_c = math.sqrt(hbar) * 2.0 * (alpha * u_nu).real
    p_c = math.sqrt(hbar) * m0 * 2.0 * (alpha * ud_nu).real
    x = np.asarray(x, dtype=float)
    z = coeff.A_nu * (x - x_c)
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    hermite_vals = hermite_poly.hermval(z, unit)
    log_norm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0))
    prefactor = math.exp(log_norm) * math.sqrt(coeff.A_nu / math.sqrt(math.pi))
    phase = (
        -coeff.theta_nu * (n + 0.5)
        + p_c * x / hbar
        - p_c * x_c / (2.0 * hbar)
    )
    return prefactor * hermite_vals * np.exp(1j * phase - coeff.B_nu * (x - x_c) ** 2)


def crosscheck_static(
    sq: SqueezeParams,
    n: int,
    alpha: complex,
    times,
    m0: float = 1.0,
    omega0: float = 1.0,
    hbar: float = 1.0,
) -> list:
    """Compare the general pipeline against the static closed form for one
    state at each of ``times`` (all >= 0): one report per time, in order.

    Route (a): the closed-form static mode sampled once from t = 0 through
    the last time, with every time on the path, squeezed and
    polar-decomposed once for the unwrapped phase; then dsn_wavefunction at
    each time's row, with one comoving_hermite table per grid size that
    spatial_grid picks along the sweep (its automatic size follows rho).
    Route (b): static_closed_form_wavefunction.  Each report carries the
    state, the time and the max pointwise amplitude difference.  A path of
    more than MAX_PATH_ROWS rows is refused with ScenarioError before it is
    built.
    """
    path, rows = _static_path(times, omega0, sq.r, "crosscheck_static")
    traj_nu = apply_squeeze(static_mode(m0, omega0, path), sq)
    _, theta = polar_decompose(traj_nu)
    spec = StateSpec(n=n, alpha=alpha, squeeze=sq, hbar=hbar)
    tables = {}
    reports = []
    for k in rows.tolist():
        t = float(path[k])
        point = traj_nu.point(k)
        x = spatial_grid(point, hbar, n=n, alpha=alpha)
        if x.size not in tables:
            tables[x.size] = comoving_hermite(n, x.size)
        psi = dsn_wavefunction(spec, point, x, theta=float(theta[k]), hermite=tables[x.size])
        psi_closed = static_closed_form_wavefunction(sq, n, alpha, t, x, m0, omega0, hbar)
        reports.append(
            {
                "r": sq.r,
                "phi": sq.phi,
                "n": n,
                "alpha_re": complex(alpha).real,
                "alpha_im": complex(alpha).imag,
                "t": t,
                "max_pointwise_diff": float(np.max(np.abs(psi.psi - psi_closed))),
            }
        )
    return reports


def schrodinger_residual(
    specs: list,
    profile: OscillatorProfile,
    traj: ModeTrajectory,
    t: float,
    dt: float,
) -> list:
    """Relative residual of i hbar dPsi/dt = H Psi at time t, per state.

    The time derivative is the centered difference of wave functions built
    independently at t - dt and t + dt from one fresh mode solve started at
    the trajectory's first sample, sampled densely enough to unwrap its
    phase; each state takes its squeezed phase from that one unwrap
    (squeezed_phase).  H Psi uses the 8th-order spatial stencil.  Returns
    ||i hbar dPsi/dt - H Psi|| / ||H Psi|| in L2 on the grid for each of
    ``specs``, in order.  A mode path of more than
    MAX_PATH_ROWS rows is refused with ScenarioError before it is built.
    """
    if not 0.0 < dt <= 1e-3:
        raise ValueError(f"dt must lie in (0, 1e-3], got {dt}")
    t0, t_end = float(traj.t[0]), float(traj.t[-1])
    if t - dt < t0 - 1e-12 or t + dt > t_end + 1e-12:
        raise ValueError(f"t +- dt = [{t - dt}, {t + dt}] not inside span [{t0}, {t_end}]")
    span_scan = np.linspace(t0, max(t + dt, t0 + 1e-9), 512)
    omega_max = float(np.sqrt(np.max(profile.omega_sq(span_scan))))
    # dt (n + 1) omega e^{2r} <= 0.25 in log form: e^{2r} overflows above r ~ 355
    limit = math.log(0.25) - math.log(dt) - math.log(max(omega_max, 1e-12))
    for spec in specs:
        if math.log(spec.n + 1.0) + 2.0 * spec.squeeze.r > limit:
            raise GridError(
                f"time step dt={dt} too large for n={spec.n}, omega~{omega_max:.3g}, "
                f"r={spec.squeeze.r} (phase advance above 0.25 rad)"
            )

    eval_times = np.array([t - dt, t, t + dt])
    needed = (t + dt - t0) * 16.0 * max(omega_max, 0.25)
    # capped so that an overflowing estimate still converts; refused below
    density = max(256, int(math.ceil(min(MAX_PATH_ROWS, needed))) + 1)
    if density > MAX_PATH_ROWS:
        raise ScenarioError(
            f"schrodinger_residual: the mode path to t={t + dt:.6g} needs more than "
            f"{MAX_PATH_ROWS} rows (largest omega {omega_max:.3g})"
        )
    path = np.union1d(np.linspace(t0, t + dt, density), eval_times)
    base = evolve_mode(profile, traj.point(0), path, rel_tol=RESIDUAL_ODE_REL_TOL)
    _, theta = polar_decompose(base)

    indices = [int(np.argmin(np.abs(path - s))) for s in eval_times]
    mass, omega_sq = evaluate_profile(profile, t)
    residuals = []
    for spec in specs:
        mode_nu = apply_squeeze(base, spec.squeeze)
        theta_arr = squeezed_phase(theta, spec.squeeze)
        points = [mode_nu.point(i) for i in indices]
        x = spatial_grid(points[1], spec.hbar, n=spec.n, alpha=spec.alpha)
        psis = [
            dsn_wavefunction(spec, pt, x, theta=float(theta_arr[i])).psi
            for pt, i in zip(points, indices)
        ]
        hbar = spec.hbar
        dpsi_dt = (psis[2] - psis[0]) / (2.0 * dt)
        dx = float(x[1] - x[0])
        h_psi = -(hbar**2) / (2.0 * mass) * second_derivative(psis[1], dx) + (
            0.5 * mass * omega_sq * x**2
        ) * psis[1]
        residual = 1j * hbar * dpsi_dt - h_psi
        steps = np.diff(x)
        num = math.sqrt(float(trapezoid(np.abs(residual) ** 2, steps)))
        den = math.sqrt(float(trapezoid(np.abs(h_psi) ** 2, steps)))
        residuals.append(num / den)
    return residuals


def classical_equation_residual(traj: ModeTrajectory, alpha: complex, hbar: float) -> dict:
    """Check that the displaced-state center follows a classical trajectory.

    (x_c, p_c) from classical_trajectory are compared at every sample of the
    trajectory with an independent LSODA solve of x' = p/m, p' = -m omega^2 x
    started from their first values.  Returns the largest |x_c - x_ref|
    relative to max |x_ref| as ``equation_residual`` and the same for p as
    ``momentum_mismatch``.
    """
    profile = traj.profile
    if profile is None:
        raise ValueError("trajectory must carry its profile")
    x_c, p_c = classical_trajectory(alpha, traj, hbar)

    def rhs(y, s):
        m, _, w_sq = profile.coefficients(s)
        return [y[1] / m, -m * w_sq * y[0]]

    # tcrit keeps LSODA inside the window, past which a mass ramp may end
    ref, info = odeint(
        rhs, [x_c[0], p_c[0]], traj.t, rtol=CLASSICAL_ODE_RTOL, atol=CLASSICAL_ODE_ATOL,
        tcrit=traj.t[-1:], mxstep=1_000_000, full_output=True,
    )
    if info["message"] != "Integration successful.":
        raise ModeSolverError(f"classical reference solve failed: {info['message']}")
    return {
        "equation_residual": _relative_gap(x_c, ref[:, 0]),
        "momentum_mismatch": _relative_gap(p_c, ref[:, 1]),
    }


def _relative_gap(values: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref)))
    gap = float(np.max(np.abs(values - ref)))
    return gap / scale if scale > 0.0 else gap
