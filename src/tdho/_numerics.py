"""Low-level numerical kernels: high-order finite-difference stencils, the
trapezoid rule on sampled grids, and branch-continuous complex square roots.
stencil_expectations integrates conj(f) f' and conj(f) f'' with the
stencils of derivative and second_derivative, summed by parts so that no
derivative array is built.
"""

import numpy as np

# 8th-order central stencils; boundary values are taken as zero, which is
# adequate only for integrands that decay below tolerance at the grid ends.
_D1_WEIGHTS = np.array(
    [1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280]
)
_D2_WEIGHTS = np.array(
    [-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560]
)


def _apply_stencil(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    half = weights.shape[0] // 2
    padded = np.concatenate(
        [np.zeros(half, dtype=values.dtype), values, np.zeros(half, dtype=values.dtype)]
    )
    out = np.zeros(n, dtype=np.result_type(values.dtype, float))
    for k, w in enumerate(weights):
        if w != 0.0:
            out += w * padded[k : k + n]
    return out


def derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """First derivative of uniformly sampled data, 8th-order interior stencil."""
    return _apply_stencil(np.asarray(values), _D1_WEIGHTS) / dx


def second_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """Second derivative of uniformly sampled data, 8th-order interior stencil."""
    return _apply_stencil(np.asarray(values), _D2_WEIGHTS) / dx**2


def stencil_expectations(values: np.ndarray, dx: float) -> tuple:
    """(Im I1, Re I2) for I1 = int conj(f) f' dx and I2 = int conj(f) f'' dx
    by the trapezoid rule on a uniform grid of step ``dx``, with f' and f''
    the 8th-order stencils of ``derivative`` and ``second_derivative``.

    Each interior sum is regrouped over the lags k = 1..4 of the stencil,
    on f padded with the stencil's zeros.  With C_k = sum_j conj(f_j) f_{j+k}
    and the weights odd in k, sum_j conj(f_j) (D1 f)_j = 2i sum_k w1_k Im C_k.
    The D2 weights are even and sum to zero, so sum_j conj(f_j) (D2 f)_j =
    -sum_k w2_k ||f_{.+k} - f_.||^2: a sum of squared differences, which
    keeps the O(dx^2) result free of the cancellation in C_0 - Re C_k.  The
    trapezoid rule takes half of the two end samples off the sum.
    """
    f = np.asarray(values, dtype=complex)
    half = _D1_WEIGHTS.shape[0] // 2
    zeros = np.zeros(half, dtype=complex)
    padded = np.concatenate((zeros, f, zeros))
    first = 0.0
    second = 0.0
    for k in range(1, half + 1):
        w1, w2 = _D1_WEIGHTS[half + k], _D2_WEIGHTS[half + k]
        first += w1 * np.vdot(padded[:-k], padded[k:]).imag
        step = padded[k:] - padded[:-k]
        second += w2 * np.vdot(step, step).real
    # the stencil windows of the two end samples, each weighted 1/2
    edges = np.stack((padded[: 2 * half + 1], padded[-2 * half - 1 :]))
    ends = f[[0, -1]]
    first = 2.0 * first - 0.5 * np.vdot(ends, edges @ _D1_WEIGHTS).imag
    second = -second - 0.5 * np.vdot(ends, edges @ _D2_WEIGHTS).real
    return float(first), float(second) / dx


def trapezoid(values: np.ndarray, steps: np.ndarray):
    """Composite trapezoid rule on samples whose grid steps are
    ``steps = x[1:] - x[:-1]``.

    The arithmetic is scipy.integrate.trapezoid's, sum(steps * (y[1:] +
    y[:-1]) / 2.0), so the result is the same bit for bit, without SciPy's
    array-namespace dispatch on every call.
    """
    return np.sum(steps * (values[1:] + values[:-1]) / 2.0)


def trapezoid_dot(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    """Trapezoid integral of the real product a b on a uniform grid of step
    ``dx``: dx (sum - half the two end samples), with no product array."""
    return float(dx * (np.dot(a, b) - 0.5 * (a[0] * b[0] + a[-1] * b[-1])))


def continuous_sqrt(values: np.ndarray) -> np.ndarray:
    """Square root of a complex path, branch-tracked by continuity.

    ``values`` samples a continuous curve in the complex plane densely enough
    that consecutive arguments differ by less than pi.  The first element gets
    its principal root; later elements follow the branch continuously.
    """
    values = np.asarray(values, dtype=complex)
    phase = np.unwrap(np.angle(values))
    return np.sqrt(np.abs(values)) * np.exp(0.5j * phase)


def unwrap_angles(angles: np.ndarray, max_step: float = np.inf) -> np.ndarray:
    """Nearest-branch continuation of a sampled angle sequence.

    Raises ValueError when an unwrapped step exceeds ``max_step``, signalling
    that the sampling is too coarse to continue the branch safely.
    """
    out = np.unwrap(np.asarray(angles, dtype=float))
    if max_step < np.inf and out.size > 1:
        steps = np.abs(np.diff(out))
        if np.any(steps > max_step):
            bad = int(np.argmax(steps > max_step))
            raise ValueError(
                f"phase step {steps[bad]:.3f} rad between samples {bad} and "
                f"{bad + 1} exceeds {max_step:.3f}"
            )
    return out
