"""Low-level numerical kernels: high-order finite-difference stencils and
the trapezoid rule on sampled grids, and branch-continuous complex square
roots."""

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


def trapezoid(values: np.ndarray, steps: np.ndarray):
    """Composite trapezoid rule on samples whose grid steps are
    ``steps = x[1:] - x[:-1]``.

    The arithmetic is scipy.integrate.trapezoid's, sum(steps * (y[1:] +
    y[:-1]) / 2.0), so the result is the same bit for bit, without SciPy's
    array-namespace dispatch on every call.
    """
    return np.sum(steps * (values[1:] + values[:-1]) / 2.0)


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
