"""Complex mode functions u(t) of the classical oscillator equation.

The mode function solves  u'' + (m'/m) u' + omega^2 u = 0  subject to the
Wronskian normalization  m (u u'* - u* u') = i,  equivalently
Im(m u u'*) = 1/2.  Everything downstream (wave functions, moments,
verification) consumes (u, u') pairs produced here, either in closed form
(static, adiabatic/WKB) or by adaptive numerical integration.  Squeezing
mixes a base mode with its conjugate, u -> cosh(r) u + e^{-i phi} sinh(r) u*,
which preserves the Wronskian exactly.

Wronskian drift of integrated trajectories is monitored and reported but
never corrected by rescaling; a drifting Wronskian indicates integrator
trouble and silent renormalization would mask it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from ._numerics import unwrap_angles
from .errors import ModeSolverError, PhaseUnwrapError, ProfileError
from .profiles import OscillatorProfile, evaluate_profile

#: |W - i| above which initial data is rejected by evolve_mode.
INITIAL_WRONSKIAN_TOL = 1e-12

#: largest phase step polar_decompose accepts between consecutive samples.
MAX_PHASE_STEP = math.pi / 2


@dataclass(frozen=True)
class ModePoint:
    """Mode value and derivative at one time, with the local mass attached."""

    t: float
    u: complex
    u_dot: complex
    mass: float


@dataclass(frozen=True)
class SqueezeParams:
    """Bogoliubov squeeze (r, phi): mu = cosh r, nu = e^{-i phi} sinh r."""

    r: float
    phi: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"squeeze amplitude r must be >= 0, got {self.r}")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))
        object.__setattr__(self, "r", float(self.r))

    @property
    def mu(self) -> float:
        return math.cosh(self.r)

    @property
    def nu(self) -> complex:
        return complex(math.cos(self.phi), -math.sin(self.phi)) * math.sinh(self.r)


class ModeTrajectory:
    """Mode samples on a strictly increasing time grid.

    Arrays are frozen after construction; instances are safe to share.
    """

    def __init__(self, t, u, u_dot, mass, profile: OscillatorProfile | None = None):
        t = np.asarray(t, dtype=float)
        u = np.asarray(u, dtype=complex)
        u_dot = np.asarray(u_dot, dtype=complex)
        mass = np.asarray(mass, dtype=float)
        if not (t.shape == u.shape == u_dot.shape == mass.shape) or t.ndim != 1:
            raise ValueError("trajectory arrays must be 1-d with matching shapes")
        if t.size >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        for arr in (t, u, u_dot, mass):
            arr.setflags(write=False)
        self.t = t
        self.u = u
        self.u_dot = u_dot
        self.mass = mass
        self.profile = profile

    def __len__(self) -> int:
        return self.t.size

    def point(self, index: int) -> ModePoint:
        return ModePoint(
            t=float(self.t[index]),
            u=complex(self.u[index]),
            u_dot=complex(self.u_dot[index]),
            mass=float(self.mass[index]),
        )

    @property
    def max_wronskian_drift(self) -> float:
        return float(np.max(np.abs(wronskian(self) - 1j)))


def wronskian(mode):
    """m (u u'* - u* u'), equal to i for a canonically normalized mode.

    Accepts a ModePoint (returns a complex scalar) or a ModeTrajectory
    (returns a complex array).  Diagnostic only; never used to renormalize.
    """
    return mode.mass * (mode.u * np.conj(mode.u_dot) - np.conj(mode.u) * mode.u_dot)


def static_mode(m0: float, omega0: float, t):
    """Constant-coefficient mode u = e^{-i omega0 t} / sqrt(2 m0 omega0).

    Satisfies the Wronskian normalization exactly and diagonalizes the
    Hamiltonian of the static oscillator.  A scalar t yields a ModePoint;
    an increasing time array yields the closed-form ModeTrajectory.
    """
    if m0 <= 0 or omega0 <= 0:
        raise ProfileError(f"static_mode requires m0 > 0 and omega0 > 0, got ({m0}, {omega0})")
    u = np.exp(-1j * omega0 * np.asarray(t, dtype=float)) / math.sqrt(2.0 * m0 * omega0)
    u_dot = -1j * omega0 * u
    if np.ndim(t) == 0:
        return ModePoint(t=float(t), u=complex(u), u_dot=complex(u_dot), mass=m0)
    return ModeTrajectory(t, u, u_dot, np.full(np.shape(t), m0))


def wkb_mode(profile: OscillatorProfile, t: float) -> ModePoint:
    """Adiabatic mode u = e^{-i int_0^t omega} / sqrt(2 m omega).

    Exact for constant coefficients; for slowly varying m, omega it
    approximately diagonalizes the Hamiltonian.  The derivative includes the
    full prefactor term, so the Wronskian normalization holds exactly.  The
    frequency must stay positive between 0 and t (checked on a dense scan).
    """
    t = float(t)
    lo, hi = min(0.0, t), max(0.0, t)
    scan = np.linspace(lo, hi, 1001)
    omega_scan = profile.omega(scan)
    if np.any(omega_scan <= 0):
        bad = scan[int(np.argmax(omega_scan <= 0))]
        raise ModeSolverError(f"WKB mode invalid: omega(t) reaches zero near t={bad:.6g}")
    phase, abserr = quad(
        lambda s: float(profile.omega(s)), 0.0, t, epsabs=1e-13, epsrel=1e-13, limit=500
    )
    if abserr > 1e-9 * (1.0 + abs(phase)):
        raise ModeSolverError(f"WKB phase quadrature failed to converge (abserr={abserr:.2e})")
    mass, omega_sq = evaluate_profile(profile, t)
    omega = math.sqrt(omega_sq)
    u = np.exp(-1j * phase) / math.sqrt(2.0 * mass * omega)
    mass_dot = float(profile.mass_dot(t))
    omega_dot = float(profile.omega_sq_dot(t)) / (2.0 * omega)
    gamma = mass_dot / mass + omega_dot / omega
    u_dot = (-1j * omega - 0.5 * gamma) * u
    return ModePoint(t=t, u=complex(u), u_dot=complex(u_dot), mass=mass)


def evolve_mode(
    profile: OscillatorProfile,
    initial: ModePoint,
    t_grid,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
) -> ModeTrajectory:
    """Integrate the mode equation and sample the solution on t_grid.

    Uses an adaptive embedded Runge-Kutta pair (DOP853) on the first-order
    complex system (u, u'), with dense output interpolated onto the
    requested grid.  The right-hand side reads (m'/m, omega^2) from one
    scalar ``profile.coefficients(t)`` call per evaluation; a non-positive
    mass raises ModeSolverError naming the last good time.  The initial
    point must satisfy the Wronskian normalization to 1e-12; drift along the
    trajectory is reported through ModeTrajectory.max_wronskian_drift, never
    corrected.
    """
    if not 1e-13 <= rel_tol <= 1e-6:
        raise ValueError(f"rel_tol must lie in [1e-13, 1e-6], got {rel_tol}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if abs(t_grid[0] - initial.t) > 1e-12 * max(1.0, abs(initial.t)):
        raise ValueError(f"t_grid must start at the initial time {initial.t}, got {t_grid[0]}")
    if t_grid.size >= 2 and np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    drift = abs(complex(wronskian(initial)) - 1j)
    if drift > INITIAL_WRONSKIAN_TOL:
        raise ModeSolverError(
            f"initial mode violates the Wronskian normalization (|W - i| = {drift:.2e})"
        )

    last_good = [initial.t]
    coefficients = profile.coefficients

    def rhs(t, y):
        _, k, omega_sq = coefficients(t)
        last_good[0] = t
        return np.array([y[1], -k * y[1] - omega_sq * y[0]], dtype=complex)

    y0 = np.array([initial.u, initial.u_dot], dtype=complex)
    if t_grid.size == 1:
        return ModeTrajectory(
            t_grid, [initial.u], [initial.u_dot], [initial.mass], profile
        )
    try:
        sol = solve_ivp(
            rhs,
            (t_grid[0], t_grid[-1]),
            y0,
            method="DOP853",
            rtol=rel_tol,
            atol=abs_tol,
            t_eval=t_grid,
        )
    except ProfileError as exc:
        raise ModeSolverError(
            f"profile became invalid during integration (last good t={last_good[0]:.6g}): {exc}"
        ) from exc
    if not sol.success:
        raise ModeSolverError(
            f"mode integration failed after t={last_good[0]:.6g}: {sol.message}"
        )
    mass = profile.mass(t_grid)
    return ModeTrajectory(t_grid, sol.y[0], sol.y[1], mass, profile)


def apply_squeeze(base, sq: SqueezeParams):
    """Mix a mode with its conjugate: u -> mu u + nu u* (same for u').

    Accepts a ModePoint or a ModeTrajectory and returns the same shape.
    Because |mu|^2 - |nu|^2 = 1, the output satisfies the Wronskian
    normalization whenever the input does.
    """
    mu, nu = sq.mu, sq.nu
    if isinstance(base, ModeTrajectory):
        return ModeTrajectory(
            base.t,
            mu * base.u + nu * np.conj(base.u),
            mu * base.u_dot + nu * np.conj(base.u_dot),
            base.mass,
            base.profile,
        )
    return ModePoint(
        t=base.t,
        u=mu * base.u + nu * np.conj(base.u),
        u_dot=mu * base.u_dot + nu * np.conj(base.u_dot),
        mass=base.mass,
    )


def polar_decompose(mode):
    """Split u = rho e^{-i Theta} with Theta continuously unwrapped.

    For a trajectory, Theta starts at the principal value in (-pi, pi] at the
    first sample and follows the nearest branch afterwards; a step larger
    than pi/2 between consecutive samples raises PhaseUnwrapError (the grid
    is too coarse to unwrap safely).  For a single point the principal value
    is returned.
    """
    if isinstance(mode, ModeTrajectory):
        rho = np.abs(mode.u)
        if np.any(rho == 0):
            raise ValueError("mode magnitude vanishes; cannot decompose")
        try:
            theta = unwrap_angles(-np.angle(mode.u), max_step=MAX_PHASE_STEP)
        except ValueError as exc:
            raise PhaseUnwrapError(f"polar decomposition needs a finer grid: {exc}") from None
        return rho, theta
    rho = abs(mode.u)
    if rho == 0:
        raise ValueError("mode magnitude vanishes; cannot decompose")
    return rho, float(-np.angle(mode.u))


def diagonalization_residual(point: ModePoint, omega_sq: float) -> float:
    """|u'^2 + omega^2 u^2| / (|u'|^2 + omega^2 |u|^2), in [0, 1].

    Zero exactly when the mode diagonalizes the Hamiltonian (static mode);
    squeezing or non-adiabatic evolution makes it positive.  The degenerate
    case u' = 0, omega = 0 returns 0 by convention.
    """
    num = abs(point.u_dot**2 + omega_sq * point.u**2)
    den = abs(point.u_dot) ** 2 + omega_sq * abs(point.u) ** 2
    if den == 0.0:
        return 0.0
    return float(num / den)
