"""Number-state and displaced-squeezed number-state wave functions.

A mode point (u, u') with u = rho e^{-i Theta} determines the exact n-th
wave function

    Psi_n(x) = (2^n n! sqrt(2 pi hbar) rho)^{-1/2} e^{-i Theta (n + 1/2)}
               H_n(x / (sqrt(2 hbar) rho)) exp[i m u'* x^2 / (2 hbar u*)],

and displacing by a complex amplitude alpha shifts the center to the
classical trajectory (x_c, p_c) and multiplies by the plane-wave factor
e^{i p_c x / hbar} together with the global phase e^{-i p_c x_c / (2 hbar)}
generated by the phase-space displacement operator.  Evaluation never
exponentiates the raw quadratic exponent: its real part equals -xi^2/2
whenever the Wronskian normalization holds and is folded into the weighted
Hermite recurrence, leaving a pure phase.  This keeps n up to several
hundred overflow-free.

The grid of spatial_grid follows the classical center and scales with
rho: on the co-moving, co-scaled coordinate xi = (x - x_c)/(sqrt(2 hbar) rho)
it is linspace(-K, K, N)/sqrt(2) with K = k sqrt(2n+1) + 4 at every time.
So h_n(xi) does not depend on t.  comoving_hermite builds it once per
state, and dsn_wavefunction takes it as ``hermite``; only the phase and the
prefactor (sqrt(2 hbar) rho)^{-1/2} are then evaluated per time.  The CLI's
moments loop and verify's probe rows share one table per state this way,
and verification.crosscheck_static's sweep of a state over its times shares
one per grid size (its grids size themselves from rho).

Branch conventions: Theta defaults to the principal value of -arg(u) for a
single point; callers tracking a trajectory pass the continuously unwrapped
Theta instead.  The base mode is unwrapped by mode_solver.polar_decompose,
and each squeezed phase follows from it in closed form through
mode_solver.squeezed_phase.  Cross-checks against the static closed forms
are phase-sensitive and pass under these choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import derivative, trapezoid
from .errors import GridError
from .mode_solver import ModePoint, ModeTrajectory, SqueezeParams, wronskian

#: ceiling on the quantum number; beyond this the factor (n + 1/2)
#: amplifies phase-unwrap error past the tolerance budgets.
N_MAX_DEFAULT = 200

#: |W - i| above which wave-function construction refuses the mode.
WRONSKIAN_GUARD = 1e-6

#: relative boundary amplitude above which a grid fails the coverage check.
COVERAGE_GUARD = 1e-6

#: default number of grid points; raised automatically when the local
#: wavenumber demands more.
GRID_POINTS_DEFAULT = 2048

_GRID_POINTS_MAX = 1 << 21
_POINTS_PER_WAVELENGTH = 24.0


@dataclass(frozen=True)
class StateSpec:
    """Full identity of one displaced-squeezed number state."""

    n: int
    alpha: complex = 0j
    squeeze: SqueezeParams = SqueezeParams(0.0, 0.0)
    hbar: float = 1.0

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"quantum number n must be a non-negative integer, got {self.n}")
        if self.n > N_MAX_DEFAULT:
            raise ValueError(f"n={self.n} exceeds the ceiling n_max={N_MAX_DEFAULT}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        object.__setattr__(self, "alpha", complex(self.alpha))


@dataclass(frozen=True)
class PhaseSpacePoint:
    """Classical center (x_c, p_c) of a displaced state."""

    x_c: float
    p_c: float


class WaveFunctionGrid:
    """Complex amplitude samples on a uniform spatial grid at a fixed time.

    ``steps`` holds x[1:] - x[:-1], the step vector of the trapezoid rule.
    """

    def __init__(self, t: float, x, psi, meta: dict | None = None):
        x = np.asarray(x, dtype=float)
        psi = np.asarray(psi, dtype=complex)
        if x.ndim != 1 or x.shape != psi.shape or x.size < 9:
            raise GridError("x and psi must be matching 1-d arrays with at least 9 samples")
        steps = np.diff(x)
        dx = (x[-1] - x[0]) / (x.size - 1)
        if dx <= 0 or np.max(np.abs(steps - dx)) > 1e-9 * dx:
            raise GridError("x must be a uniform, strictly increasing grid")
        for array in (x, psi, steps):
            array.setflags(write=False)
        self.t = float(t)
        self.x = x
        self.psi = psi
        self.steps = steps
        self.dx = float(dx)
        self.meta = dict(meta or {})

    def boundary_ratio(self, magnitude: np.ndarray | None = None) -> float:
        """Largest end amplitude over the peak; ``magnitude`` is |psi| when
        the caller already has it."""
        if magnitude is None:
            magnitude = np.abs(self.psi)
        peak = float(np.max(magnitude))
        if peak == 0.0:
            return 0.0
        return float(max(magnitude[0], magnitude[-1]) / peak)

    def norm_sq(self) -> float:
        return float(trapezoid(np.abs(self.psi) ** 2, self.steps))


def weighted_hermite(n: int, xi):
    """Hermite function h_n(xi) = (2^n n! sqrt(pi))^{-1/2} H_n(xi) e^{-xi^2/2}.

    Evaluated by the normalized three-term recurrence
    h_{k+1} = xi sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}, which keeps all
    intermediates O(1): no overflow for n <= 1000, |xi| <= 50.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"order must be a non-negative integer, got {n}")
    xi_arr = np.asarray(xi, dtype=float)
    h_prev = math.pi**-0.25 * np.exp(-0.5 * xi_arr**2)
    if n == 0:
        return float(h_prev) if np.ndim(xi) == 0 else h_prev
    h = math.sqrt(2.0) * xi_arr * h_prev
    for k in range(1, n):
        h, h_prev = xi_arr * math.sqrt(2.0 / (k + 1)) * h - math.sqrt(k / (k + 1.0)) * h_prev, h
    return float(h) if np.ndim(xi) == 0 else h


def classical_trajectory(alpha: complex, mode, hbar: float):
    """Center of the displaced state: x_c = sqrt(hbar)(alpha u + alpha* u*),
    p_c = sqrt(hbar) m (alpha u' + alpha* u'*).

    For a ModePoint returns a PhaseSpacePoint; for a ModeTrajectory returns
    the pair of arrays (x_c(t), p_c(t)).  Along a trajectory p_c = m x_c'
    and x_c solves the classical equation of motion.
    """
    alpha = complex(alpha)
    root = math.sqrt(hbar)
    if isinstance(mode, ModeTrajectory):
        x_c = 2.0 * root * np.real(alpha * mode.u)
        p_c = 2.0 * root * mode.mass * np.real(alpha * mode.u_dot)
        return x_c, p_c
    x_c = 2.0 * root * (alpha * mode.u).real
    p_c = 2.0 * root * mode.mass * (alpha * mode.u_dot).real
    return PhaseSpacePoint(x_c=float(x_c), p_c=float(p_c))


def _mode_theta(mode: ModePoint, theta: float | None) -> float:
    if theta is None:
        return float(-np.angle(mode.u))
    return float(theta)


def _guard_wronskian(mode: ModePoint):
    drift = abs(complex(wronskian(mode)) - 1j)
    if drift > WRONSKIAN_GUARD:
        raise ValueError(
            f"mode violates the Wronskian normalization (|W - i| = {drift:.2e}); "
            "wave-function normalization would silently fail"
        )


def _half_width(n: int, half_width_sigmas: float) -> float:
    """Half-width of the grid of spatial_grid in units of sigma0."""
    return half_width_sigmas * math.sqrt(2.0 * n + 1.0) + 4.0


def comoving_hermite(n: int, points: int, half_width_sigmas: float = 8.0):
    """(xi, h_n(xi)) on the co-moving coordinate of spatial_grid.

    Valid at every time for the grid spatial_grid(mode, hbar, n, alpha,
    points, half_width_sigmas) of the state, whatever the mode and alpha;
    dsn_wavefunction takes the pair as ``hermite``.
    """
    half = _half_width(n, half_width_sigmas)
    xi = np.linspace(-half, half, int(points)) / math.sqrt(2.0)
    return xi, weighted_hermite(n, xi)


def spatial_grid(
    mode: ModePoint,
    hbar: float,
    n: int = 0,
    alpha: complex = 0j,
    points: int | None = None,
    half_width_sigmas: float = 8.0,
) -> np.ndarray:
    """Uniform grid covering the state built from (n, alpha) on this mode.

    The half-width is (k sqrt(2n+1) + 4) sigma0 around the classical center,
    with sigma0 = rho sqrt(hbar) and k = half_width_sigmas; the extra four
    sigma0 keep the boundary amplitude below 1e-12 of the peak down to n = 0.
    When ``points`` is omitted the sample count grows beyond 2048 as needed
    to resolve the fastest local oscillation (Hermite, quadratic phase, and
    plane-wave factors) with ~24 points per wavelength.
    """
    rho = abs(mode.u)
    center = classical_trajectory(alpha, mode, hbar)
    sigma0 = rho * math.sqrt(hbar)
    half = _half_width(n, half_width_sigmas) * sigma0
    if points is None:
        k_herm = math.sqrt(2.0 * n + 1.0) / (math.sqrt(2.0 * hbar) * rho)
        rho_dot = (mode.u_dot * np.conj(mode.u)).real / rho
        k_quad = mode.mass * abs(rho_dot) * half / (hbar * rho)
        k_pc = abs(center.p_c) / hbar
        k_max = k_herm + k_quad + k_pc
        needed = int(math.ceil(half * k_max * _POINTS_PER_WAVELENGTH / math.pi)) + 1
        points = GRID_POINTS_DEFAULT
        while points < needed:
            points *= 2
        if points > _GRID_POINTS_MAX:
            raise GridError(
                f"state needs {needed} grid points, above the ceiling {_GRID_POINTS_MAX}"
            )
    elif points < 64:
        raise GridError(f"grid needs at least 64 points, got {points}")
    return np.linspace(center.x_c - half, center.x_c + half, int(points))


def _gaussian_hermite(
    n: int,
    mode: ModePoint,
    hbar: float,
    x: np.ndarray,
    theta: float,
    x_c: float,
    p_c: float,
    hermite: tuple | None = None,
) -> np.ndarray:
    rho = abs(mode.u)
    scale = math.sqrt(2.0 * hbar) * rho
    if hermite is None:
        h = weighted_hermite(n, (x - x_c) / scale)
    else:
        xi, h = hermite
        ends = (x[[0, -1]] - x_c) / scale
        if xi.shape != x.shape or np.max(np.abs(ends - xi[[0, -1]])) > 1e-9 * abs(xi[0]):
            raise GridError("hermite table does not match the co-moving grid of the state")
    # Im part of the quadratic exponent coefficient i m u'*/(2 hbar u*); the
    # real part is -1/(4 hbar rho^2) by the Wronskian and lives inside h_n.
    c2 = mode.mass * (mode.u_dot * np.conj(mode.u)).real / (2.0 * hbar * rho**2)
    phase = -theta * (n + 0.5) + p_c * x / hbar + c2 * (x - x_c) ** 2 - p_c * x_c / (2.0 * hbar)
    return scale**-0.5 * h * np.exp(1j * phase)


def _check_coverage(grid: WaveFunctionGrid, what: str):
    ratio = grid.boundary_ratio()
    if ratio > COVERAGE_GUARD:
        raise GridError(
            f"{what}: grid does not cover the state (boundary amplitude "
            f"{ratio:.2e} of peak, above {COVERAGE_GUARD:.0e})"
        )


def number_wavefunction(
    n: int,
    mode: ModePoint,
    hbar: float,
    x,
    theta: float | None = None,
) -> WaveFunctionGrid:
    """Exact n-th number-state wave function of the mode, sampled on x.

    ``theta`` is the unwrapped mode phase; it defaults to the principal
    value of -arg(u), which fixes the overall phase at a single time.
    """
    return dsn_wavefunction(StateSpec(n=n, hbar=hbar), mode, x, theta=theta)


def dsn_wavefunction(
    spec: StateSpec,
    mode_nu: ModePoint,
    x,
    theta: float | None = None,
    hermite: tuple | None = None,
) -> WaveFunctionGrid:
    """Displaced-squeezed number-state wave function on the squeezed mode.

    ``mode_nu`` must already carry the squeeze (output of apply_squeeze);
    the displacement spec.alpha sets the classical center.  With alpha = 0
    this reduces exactly to number_wavefunction.  ``hermite`` is the state's
    comoving_hermite table, for x from spatial_grid with the same n, points
    and half-width; without it h_n is evaluated on x.
    """
    _guard_wronskian(mode_nu)
    x = np.asarray(x, dtype=float)
    th = _mode_theta(mode_nu, theta)
    center = classical_trajectory(spec.alpha, mode_nu, spec.hbar)
    psi = _gaussian_hermite(spec.n, mode_nu, spec.hbar, x, th, center.x_c, center.p_c, hermite)
    grid = WaveFunctionGrid(
        mode_nu.t,
        x,
        psi,
        meta={
            "n": spec.n,
            "alpha": spec.alpha,
            "r": spec.squeeze.r,
            "phi": spec.squeeze.phi,
            "hbar": spec.hbar,
            "theta": th,
            "x_c": center.x_c,
            "p_c": center.p_c,
        },
    )
    _check_coverage(grid, "dsn_wavefunction")
    return grid


def lower(psi: WaveFunctionGrid, mode: ModePoint, hbar: float) -> WaveFunctionGrid:
    """Apply the invariant annihilation operator in position representation.

    a psi = (i/sqrt(hbar)) (u* p - m u'* x) psi with p = -i hbar d/dx, the
    derivative taken by the 8th-order central stencil.  For Psi_n built from
    the same mode the result is sqrt(n) Psi_{n-1}; the operator is kept
    finite-difference based so it can check wave functions it did not build.
    """
    _check_coverage(psi, "lower")
    n_hint = psi.meta.get("n")
    if n_hint is None:
        # effective n from the spatial variance: <x^2> - <x>^2 = hbar rho^2 (2n+1)
        norm = psi.norm_sq()
        mean_x = float(trapezoid(psi.x * np.abs(psi.psi) ** 2, psi.steps)) / norm
        mean_x2 = float(trapezoid(psi.x**2 * np.abs(psi.psi) ** 2, psi.steps)) / norm
        rho = abs(mode.u)
        n_hint = max(0.0, ((mean_x2 - mean_x**2) / (hbar * rho**2) - 1.0) / 2.0)
    rho = abs(mode.u)
    rho_dot = (mode.u_dot * np.conj(mode.u)).real / rho
    span = max(abs(psi.x[0] - psi.meta.get("x_c", 0.0)), abs(psi.x[-1] - psi.meta.get("x_c", 0.0)))
    k_max = (
        math.sqrt(2.0 * n_hint + 1.0) / (math.sqrt(2.0 * hbar) * rho)
        + mode.mass * abs(rho_dot) * span / (hbar * rho)
        + abs(psi.meta.get("p_c", 0.0)) / hbar
    )
    if psi.dx * k_max > 2.0 * math.pi / 8.0:
        raise GridError(
            f"lower: grid too coarse for n~{n_hint:.1f} "
            f"(dx * k_max = {psi.dx * k_max:.2f} rad, above {2 * math.pi / 8:.2f})"
        )
    dpsi = derivative(psi.psi, psi.dx)
    out = (
        hbar * np.conj(mode.u) * dpsi
        - 1j * mode.mass * np.conj(mode.u_dot) * psi.x * psi.psi
    ) / math.sqrt(hbar)
    meta = dict(psi.meta)
    if isinstance(meta.get("n"), int) and meta["n"] > 0:
        meta["n"] = meta["n"] - 1
    return WaveFunctionGrid(psi.t, psi.x, out, meta=meta)
