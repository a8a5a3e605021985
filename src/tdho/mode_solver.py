"""Complex mode functions u(t) of the classical oscillator equation.

The mode function solves  u'' + (m'/m) u' + omega^2 u = 0  subject to the
Wronskian normalization  m (u u'* - u* u') = i,  equivalently
Im(m u u'*) = 1/2.  Everything downstream (wave functions, moments,
verification) consumes (u, u') pairs produced here, either in closed form
(static, adiabatic/WKB) or by adaptive numerical integration.  Squeezing
mixes a base mode with its conjugate, u -> cosh(r) u + e^{-i phi} sinh(r) u*,
which preserves the Wronskian exactly.

Numerical modes come from ``evolve_mode``, which steps the two-component
system (u, u') with DOP853, the explicit 8th-order Runge-Kutta method of
Dormand and Prince with embedded 5th- and 3rd-order error estimates, on
Python complex scalars.  It is SciPy's DOP853 step for step: the tableau is
read from the public attributes of ``scipy.integrate.DOP853`` (A, B, C, E3,
E5, D, A_EXTRA, C_EXTRA), and the initial step, the E5/E3 error norm and the
step controller (safety 0.9, factors 0.2 and 10, exponent -1/8, no growth
after a rejection, a minimum step of ten units in the last place of t) are
ported from ``scipy.integrate._ivp``, so a solve takes SciPy's steps and
makes as many right-hand-side evaluations.  Step sizes follow from the
tolerances alone and no step is shortened to land on an output time, so a
solution sampled on a fine grid and one sampled on any subset of it agree
bit for bit.  Output times are read from the 7th-degree dense-output
polynomial of the step that covers them, and none of that polynomial is
built in the step loop, which does only what step control needs.  Each
step that covers output times keeps its start, its length, its start and
end values and its 13 stage values, packed into arrays of up to 1024 steps
(as Python objects a step takes more than twice the array's 512 bytes);
after the last step, one NumPy pass per array evaluates the three extra
stages, the interpolant's seven coefficients per component and every
output time, with the loop's own operations in its order, so the values
are those of a per-step evaluation bit for bit.

Wronskian drift of integrated trajectories is monitored and reported but
never corrected by rescaling; a drifting Wronskian indicates integrator
trouble and silent renormalization would mask it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, quad

from ._numerics import unwrap_angles
from .errors import ModeSolverError, PhaseUnwrapError, ProfileError
from .profiles import OscillatorProfile, evaluate_profile

#: |W - i| above which initial data is rejected by evolve_mode.
INITIAL_WRONSKIAN_TOL = 1e-12

#: largest phase step polar_decompose accepts between consecutive samples.
MAX_PHASE_STEP = math.pi / 2

#: most output times a caller builds into one mode path: 77 times the
#: largest benchmark path (3,401 rows).  A unit-frequency solve that fills
#: it takes ~5 s and ~75 MB.  Larger requests are refused unbuilt.
MAX_PATH_ROWS = 1 << 18


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
    ``rhs_evals`` counts the right-hand-side evaluations of the solve that
    produced the samples (0 for closed forms and derived trajectories).
    """

    def __init__(
        self, t, u, u_dot, mass, profile: OscillatorProfile | None = None, rhs_evals: int = 0
    ):
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
        self.rhs_evals = rhs_evals

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

    Steps the first-order complex system (u, u') with the module's DOP853,
    which takes the steps of ``scipy.integrate.solve_ivp(method="DOP853",
    t_eval=t_grid)`` and makes the same number of right-hand-side
    evaluations (kept as ModeTrajectory.rhs_evals); u and u' agree with
    SciPy's to rounding.  The steps depend on the tolerances, not on t_grid,
    so the value at one time does not depend on which other times are
    requested.  After the last step the dense output of the steps that
    cover output times is built in vectorized passes of up to 1024 steps,
    and each time of t_grid is read from its step's polynomial.  The
    right-hand side reads (m'/m, omega^2) from one scalar
    ``profile.coefficients(t)`` call per evaluation, in the step loop and in
    those passes alike; a non-positive mass raises ModeSolverError naming
    the last good time, a non-finite coefficient in the dense output raises
    it naming its time, and a step size below ten units in the last place
    of t raises it naming the last accepted time.  The initial point must
    satisfy the Wronskian normalization to 1e-12; drift along the
    trajectory is reported through ModeTrajectory.max_wronskian_drift,
    never corrected.
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
    if not drift <= INITIAL_WRONSKIAN_TOL:  # NaN data fails too
        raise ModeSolverError(
            f"initial mode violates the Wronskian normalization (|W - i| = {drift:.2e})"
        )
    if t_grid.size == 1:
        return ModeTrajectory(
            t_grid, [initial.u], [initial.u_dot], [initial.mass], profile
        )
    u, u_dot, evals = _dop853(
        profile.coefficients, t_grid, complex(initial.u), complex(initial.u_dot), rel_tol, abs_tol
    )
    return ModeTrajectory(t_grid, u, u_dot, profile.mass(t_grid), profile, rhs_evals=evals)


def _nonzero(row) -> tuple:
    """(j, a_j) for the nonzero entries of one tableau row, as floats."""
    return tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)


# The DOP853 tableau (Hairer, Norsett and Wanner, Solving Ordinary
# Differential Equations I, Sec. II.10) as (c_s, nonzero a_sj) per stage;
# stage sums then skip the zero entries.  The last stage is the new point
# itself, y + h sum_j b_j k_j at t + h, whose slope starts the next step.
_STAGES = tuple(
    (float(c), _nonzero(a[:s])) for s, (a, c) in enumerate(zip(DOP853.A, DOP853.C)) if s
) + ((1.0, _nonzero(DOP853.B)),)
_E3 = _nonzero(DOP853.E3)
_E5 = _nonzero(DOP853.E5)
_EXTRA = tuple(
    (float(c), _nonzero(a[:s]))
    for s, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=DOP853.n_stages + 1)
)
_D = tuple(_nonzero(row) for row in DOP853.D)
_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_SQRT2 = 2**0.5
#: kept steps packed into one array and given one dense-output pass.
_BLOCK = 1024


def _combine(row, ku, kv):
    """sum_j a_j (ku_j, kv_j) over the nonzero entries (j, a_j) of a row;
    the stage values are complex scalars or, in the dense output, arrays."""
    su = sv = 0j
    for j, a in row:
        su += a * ku[j]
        sv += a * kv[j]
    return su, sv


def _norm(xu: complex, xv: complex, su: float, sv: float) -> float:
    """Euclidean norm of (xu/su, xv/sv), summed as NumPy sums it."""
    ru, rv, iu, iv = xu.real / su, xv.real / sv, xu.imag / su, xv.imag / sv
    return math.sqrt((ru * ru + rv * rv) + (iu * iu + iv * iv))


def _dop853(coefficients, t_grid: np.ndarray, u: complex, v: complex, rtol: float, atol: float):
    """Step (u, v = u') over t_grid with DOP853; u and v at every time of it.

    The step loop does only what step control needs: the twelve
    right-hand-side evaluations of a step, its new point and its E5/E3
    error estimate.  Every accepted step that covers output times keeps one
    row (t, h, u, v, u_new, v_new and its 13 stage values), every _BLOCK
    rows are packed into one array, and ``counts`` says how many output
    times each step covers.  The dense output of each array is built after
    the last step (``_dense_output``), inside the same translation of
    profile failures and overflow into ModeSolverError.
    Returns u, u' and the number of right-hand-side evaluations, with three
    extra ones per kept step, as SciPy makes them for t_eval.
    """
    t_out = t_grid.tolist()
    t, t_bound = t_out[0], t_out[-1]
    last = t  # the last time at which the profile evaluated without error

    def rhs(s, a, b):
        nonlocal last
        _, k, omega_sq = coefficients(s)
        last = s
        return b, -k * b - omega_sq * a

    try:
        fu, fv = rhs(t, u, v)
        # initial step, as scipy.integrate._ivp.common.select_initial_step
        span = t_bound - t
        su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
        d0 = _norm(u, v, su, sv) / _SQRT2
        d1 = _norm(fu, fv, su, sv) / _SQRT2
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
        gu, gv = rhs(t + h0, u + h0 * fu, v + h0 * fv)
        d2 = _norm(gu - fu, gv - fv, su, sv) / _SQRT2 / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
        h_abs = min(100 * h0, h1, span)
        evals = 2

        rows, blocks, counts, nxt = [], [], [], 0
        while t < t_bound:
            min_step = 10 * abs(math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise ModeSolverError(
                        f"mode integration failed after t={t:.6g}: required step "
                        "size is less than spacing between numbers"
                    )
                t_new = min(t + h_abs, t_bound)
                h = t_new - t
                h_abs = abs(h)
                ku, kv = [fu], [fv]
                for c, row in _STAGES:
                    du, dv = _combine(row, ku, kv)
                    u_new, v_new = u + du * h, v + dv * h
                    gu, gv = rhs(t + c * h, u_new, v_new)
                    ku.append(gu)
                    kv.append(gv)
                evals += 12
                su = atol + max(abs(u), abs(u_new)) * rtol
                sv = atol + max(abs(v), abs(v_new)) * rtol
                e5 = _norm(*_combine(_E5, ku, kv), su, sv)
                e3 = _norm(*_combine(_E3, ku, kv), su, sv)
                e5, e3 = e5 * e5, e3 * e3  # SciPy squares the norms
                if e5 == 0 and e3 == 0:
                    error = 0.0
                else:
                    error = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * 2)
                if error < 1:
                    if error == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR, _SAFETY * error**_EXPONENT)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error**_EXPONENT)
                rejected = True

            if t_out[nxt] <= t_new:
                rows.append((t, h, u, v, u_new, v_new, *ku, *kv))
                if len(rows) == _BLOCK:
                    blocks.append(np.array(rows, dtype=complex))
                    rows = []
                end = bisect.bisect_right(t_out, t_new, nxt)
                counts.append(end - nxt)
                nxt = end
            t, u, v, fu, fv = t_new, u_new, v_new, ku[12], kv[12]
        if rows:
            blocks.append(np.array(rows, dtype=complex))
        evals += 3 * len(counts)
        out, first = [], 0
        for i, steps in enumerate(blocks):
            block_counts = counts[i * _BLOCK : (i + 1) * _BLOCK]
            stop = first + sum(block_counts)
            out.append(_dense_output(coefficients, steps, block_counts, t_grid[first:stop]))
            first = stop
        u_out, v_out = np.concatenate(out, axis=1)
    except ProfileError as exc:
        raise ModeSolverError(
            f"profile became invalid during integration (last good t={last:.6g}): {exc}"
        ) from exc
    except OverflowError:  # abs() of a complex value beyond the float range
        raise ModeSolverError(f"mode integration overflowed after t={t:.6g}") from None
    return u_out, v_out, evals


def _dense_output(coefficients, steps: np.ndarray, counts: list, t_grid):
    """u and u' at the times of t_grid covered by a block of kept steps.

    ``steps`` holds one row (t, h, u, v, u_new, v_new, k_0..k_12 for u,
    k_0..k_12 for v) per step.  For all of them at once, column by column in
    NumPy: the three extra stages (their (m'/m, omega^2) from one scalar
    ``coefficients`` call per time, the same call the step loop makes), the
    four D combinations and the seven interpolant coefficients F_0..F_6 of
    SciPy's Dop853DenseOutput.  Each is the step loop's arithmetic in its
    order, and every product is real x complex, which NumPy rounds as Python
    does, so the values are those of a per-step evaluation bit for bit.  The
    polynomial is then evaluated in SciPy's nested form, y_old + x(F_0 +
    (1 - x)(F_1 + x(F_2 + ... ))) with x = (t - t_old)/h, at each output
    time.  A non-finite coefficient raises ModeSolverError naming its time.
    """
    steps = steps.T
    n = steps.shape[1]
    t, h, y, y_new = steps[0].real, steps[1].real, steps[2:4], steps[4:6]
    k = np.empty((16, 2, n), dtype=complex)
    k[:13, 0], k[:13, 1] = steps[6:19], steps[19:]
    ku, kv = k[:, 0], k[:, 1]
    for s, (c, row) in enumerate(_EXTRA, start=13):
        du, dv = _combine(row, ku, kv)
        a, b = y[0] + du * h, y[1] + dv * h
        times = t + c * h
        _, rate, omega_sq = np.array([coefficients(time) for time in times.tolist()]).T
        finite = np.isfinite(rate) & np.isfinite(omega_sq)
        if not finite.all():
            bad = float(times[np.argmin(finite)])
            raise ModeSolverError(f"profile coefficients are not finite at t={bad!r}")
        ku[s] = b
        kv[s] = -rate * b - omega_sq * a
    delta = y_new - y
    coeffs = [delta, h * k[0] - delta, 2 * delta - h * (k[12] + k[0])]
    coeffs += [h * np.array(_combine(row, ku, kv)) for row in _D]
    seg = np.repeat(np.arange(n), counts)
    x = (t_grid - t[seg]) / h[seg]
    x_rest = 1 - x
    out = coeffs[6][:, seg] * x
    for j in range(5, -1, -1):
        out = (out + coeffs[j][:, seg]) * (x_rest if j % 2 else x)
    return out + y[:, seg]


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


def squeezed_phase(theta, sq: SqueezeParams) -> np.ndarray:
    """Unwrapped phase Theta_nu of the squeezed mode from the base phase Theta.

    With u = rho e^{-i Theta}, the squeezed mode is
    mu u + nu u* = rho e^{-i Theta} (cosh r + e^{-i phi} sinh r e^{2 i Theta}),
    so Theta_nu = Theta - arg(cosh r + e^{-i phi} sinh r e^{2 i Theta}).  The
    bracket's real part is at least cosh r - sinh r > 0, so its principal arg
    stays inside (-pi/2, pi/2) and is continuous wherever Theta is: only the
    base phase needs unwrapping, however strong the squeeze.  The result is
    shifted by whole turns so that its first sample is the principal value,
    as polar_decompose of the squeezed trajectory gives it.
    """
    theta = np.asarray(theta, dtype=float)
    theta_nu = theta - np.angle(sq.mu + sq.nu * np.exp(2j * theta))
    turns = math.floor((theta_nu.flat[0] + math.pi) / (2.0 * math.pi))
    return theta_nu - 2.0 * math.pi * turns


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
