"""Independent reference computations for the output checks.

Nothing here imports the program: the profile families are written out
again from their definitions, the mode and the classical centre are
integrated with LSODA (the program uses DOP853), and number-state densities
come from SciPy's Hermite polynomials rather than the program's weighted
recurrence.  All scenarios the benchmark generates start at t = 0, where
the adiabatic initial mode is u = 1/sqrt(2 m omega) with no phase.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import odeint
from scipy.special import eval_hermite, gammaln

# LSODA tolerances of the reference solves.  Over the 40-unit mode_solve
# windows they agree with solves at 1e-12 to 3e-9, far inside the checks'
# tolerances of 1e-6, at a third of the cost.
REF_RTOL = 1e-11
REF_ATOL = 1e-13


class Profile:
    """Coefficients of one scenario profile at a scalar time, with math
    functions: the right-hand sides below call them once per step."""

    def __init__(self, raw: dict):
        self.kind = raw["kind"]
        self.p = {k: float(v) for k, v in raw.items() if k != "kind"}
        self.p.setdefault("start", 0.0)

    def coefficients(self, t: float) -> tuple:
        """(m, m'/m, omega^2) at time t."""
        p = self.p
        m, k, w = p["m0"], 0.0, p.get("omega0", 0.0)
        if self.kind == "mass_linear_ramp":
            m = p["m0"] * (1.0 + p["rate"] * (t - p["start"]))
            k = p["m0"] * p["rate"] / m
        elif self.kind == "linear_ramp":
            w = p["omega0"] * (1.0 + p["rate"] * (t - p["start"]))
        elif self.kind == "sinusoidal":
            w = p["omega0"] * (1.0 + p["depth"] * math.sin(p["rate"] * t))
        elif self.kind == "tanh_quench":
            wi, wf = p["omega_initial"], p["omega_final"]
            w = wi + 0.5 * (wf - wi) * (1.0 + math.tanh((t - p["t_center"]) / p["width"]))
        return m, k, w * w

    def omega_dot(self, t: float) -> float:
        p = self.p
        if self.kind == "linear_ramp":
            return p["omega0"] * p["rate"]
        if self.kind == "sinusoidal":
            return p["omega0"] * p["depth"] * p["rate"] * math.cos(p["rate"] * t)
        if self.kind == "tanh_quench":
            wi, wf, w = p["omega_initial"], p["omega_final"], p["width"]
            return 0.5 * (wf - wi) / (w * math.cosh((t - p["t_center"]) / w) ** 2)
        return 0.0

    def mass(self, times) -> np.ndarray:
        return np.array([self.coefficients(float(t))[0] for t in times])


def initial_mode(profile: Profile) -> tuple:
    """Adiabatic mode at t = 0: u = 1/sqrt(2 m omega),
    u' = (-i omega - (m'/m + omega'/omega)/2) u."""
    m, k, w2 = profile.coefficients(0.0)
    w = math.sqrt(w2)
    u = 1.0 / math.sqrt(2.0 * m * w)
    u_dot = (-1j * w - 0.5 * (k + profile.omega_dot(0.0) / w)) * u
    return complex(u), complex(u_dot)


def mode(profile: Profile, times) -> tuple:
    """u(t), u'(t) of the adiabatic mode started at t = 0, by LSODA on the
    real form of u'' + (m'/m) u' + omega^2 u = 0."""
    times = np.asarray(times, dtype=float)
    u0, ud0 = initial_mode(profile)

    def rhs(y, t):
        _, k, w2 = profile.coefficients(t)
        return [y[2], y[3], -k * y[2] - w2 * y[0], -k * y[3] - w2 * y[1]]

    y = _lsoda(rhs, [u0.real, u0.imag, ud0.real, ud0.imag], times)
    return y[:, 0] + 1j * y[:, 1], y[:, 2] + 1j * y[:, 3]


def _lsoda(rhs, y0, times) -> np.ndarray:
    if times.size == 1:
        return np.asarray([y0], dtype=float)
    y, info = odeint(
        rhs, y0, times, rtol=REF_RTOL, atol=REF_ATOL, mxstep=1_000_000, full_output=True
    )
    if info["message"] != "Integration successful.":
        raise RuntimeError(f"reference solve failed: {info['message']}")
    return y


def squeeze(u, r: float, phi: float):
    """u -> cosh(r) u + e^{-i phi} sinh(r) u*."""
    return math.cosh(r) * u + np.exp(-1j * phi) * math.sinh(r) * np.conj(u)


def classical(profile: Profile, x0, p0, times) -> tuple:
    """x(t), p(t) of m x'' + m' x' + m omega^2 x = 0 for each (x0, p0),
    written as x' = p/m, p' = -m omega^2 x, by LSODA."""
    times = np.asarray(times, dtype=float)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    k = x0.size

    def rhs(y, t):
        m, _, w2 = profile.coefficients(t)
        return np.concatenate([y[k:] / m, -m * w2 * y[:k]])

    y = _lsoda(rhs, np.concatenate([x0, p0]), times)
    return y[:, :k].T, y[:, k:].T


def number_density(n: int, x, x_c: float, rho: float, hbar: float = 1.0):
    """|psi_n|^2 of a displaced-squeezed number state on a mode of modulus rho:
    H_n(xi)^2 e^{-xi^2} / (2^n n! sqrt(pi) sqrt(2 hbar) rho),
    xi = (x - x_c) / (sqrt(2 hbar) rho)."""
    scale = math.sqrt(2.0 * hbar) * rho
    xi = (np.asarray(x, dtype=float) - x_c) / scale
    log_norm = n * math.log(2.0) + float(gammaln(n + 1.0)) + 0.5 * math.log(math.pi)
    return eval_hermite(n, xi) ** 2 * np.exp(-(xi**2) - log_norm) / scale
