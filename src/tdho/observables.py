"""Expectation values: quadrature-based and closed-form moments.

Quadrature uses the composite trapezoid rule on the uniform grid, which is
exponentially accurate for smooth integrands that decay below tolerance at
the grid ends.  Momentum moments use the 8th-order stencil rather than an
FFT to avoid periodicity artifacts at truncated boundaries.
quadrature_moments sums the stencil by parts: the same discrete operator
summed in another order, so it builds no derivative array and still reads
nothing but the psi samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import stencil_expectations, trapezoid, trapezoid_dot
from .errors import GridError
from .mode_solver import ModePoint
from .states import COVERAGE_GUARD, StateSpec, WaveFunctionGrid, classical_trajectory


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of position and momentum."""

    mean_x: float
    mean_p: float
    mean_x2: float
    mean_p2: float
    var_x: float
    var_p: float
    uncertainty_product: float

    @staticmethod
    def from_means(mean_x, mean_p, mean_x2, mean_p2) -> "MomentSet":
        var_x = mean_x2 - mean_x**2
        var_p = mean_p2 - mean_p**2
        product = math.sqrt(max(var_x, 0.0) * max(var_p, 0.0))
        return MomentSet(
            mean_x=float(mean_x),
            mean_p=float(mean_p),
            mean_x2=float(mean_x2),
            mean_p2=float(mean_p2),
            var_x=float(var_x),
            var_p=float(var_p),
            uncertainty_product=float(product),
        )

    def to_dict(self) -> dict:
        return {
            "mean_x": self.mean_x,
            "mean_p": self.mean_p,
            "mean_x2": self.mean_x2,
            "mean_p2": self.mean_p2,
            "var_x": self.var_x,
            "var_p": self.var_p,
            "uncertainty_product": self.uncertainty_product,
        }


def inner_product(f: WaveFunctionGrid, g: WaveFunctionGrid) -> complex:
    """Trapezoid overlap integral of f* g on their (identical) grid."""
    if f.x.shape != g.x.shape or not np.array_equal(f.x, g.x):
        raise GridError("inner_product requires identical x grids")
    return complex(trapezoid(np.conj(f.psi) * g.psi, f.steps))


def quadrature_moments(psi: WaveFunctionGrid, hbar: float) -> MomentSet:
    """Moments of one wave function by direct quadrature.

    <x>, <x^2> integrate x |psi|^2 and x^2 |psi|^2 from |psi|, which the
    coverage guard needs anyway.  <p>, <p^2> integrate conj(psi)
    (-i hbar d/dx)^k psi with the stencils of derivative and
    second_derivative, their zero padding and the trapezoid rule, summed by
    parts over the stencil's lags (_numerics.stencil_expectations); the
    result equals applying the stencil and integrating, up to rounding.
    Moments are divided by the computed norm, so slightly unnormalized input
    is handled gracefully.
    """
    magnitude = np.abs(psi.psi)
    ratio = psi.boundary_ratio(magnitude)
    if ratio > COVERAGE_GUARD:
        raise GridError(
            f"quadrature_moments: boundary amplitude {ratio:.2e} of peak; "
            "grid does not cover the state"
        )
    dx = psi.dx
    weighted = psi.x * magnitude
    norm = trapezoid_dot(magnitude, magnitude, dx)
    mean_x = trapezoid_dot(weighted, magnitude, dx) / norm
    mean_x2 = trapezoid_dot(weighted, weighted, dx) / norm
    first, second = stencil_expectations(psi.psi, dx)
    mean_p = hbar * first / norm
    mean_p2 = -(hbar**2) * second / norm
    return MomentSet.from_means(mean_x, mean_p, mean_x2, mean_p2)


def analytic_moments(spec: StateSpec, mode_nu: ModePoint) -> MomentSet:
    """Closed-form moments of the displaced-squeezed number state.

    <x> = x_c, <p> = p_c, <x^2> = hbar |u|^2 (2n+1) + x_c^2 and
    <p^2> = hbar m^2 |u'|^2 (2n+1) + p_c^2 on the squeezed mode.
    """
    hbar = spec.hbar
    center = classical_trajectory(spec.alpha, mode_nu, hbar)
    factor = hbar * (2.0 * spec.n + 1.0)
    var_x = factor * abs(mode_nu.u) ** 2
    var_p = factor * mode_nu.mass**2 * abs(mode_nu.u_dot) ** 2
    return MomentSet.from_means(
        center.x_c, center.p_c, var_x + center.x_c**2, var_p + center.p_c**2
    )
