import math
import sys
from pathlib import Path

import numpy as np
import pytest

from tdho import (
    GridError,
    SqueezeParams,
    StateSpec,
    analytic_moments,
    apply_squeeze,
    dsn_wavefunction,
    evolve_mode,
    inner_product,
    number_wavefunction,
    quadrature_moments,
    spatial_grid,
    static_mode,
)
from tdho import _numerics, cli
from tdho._numerics import derivative, second_derivative, stencil_expectations, trapezoid


def _state_on_static(n, alpha, r, phi, t=0.0, hbar=1.0):
    sq = SqueezeParams(r, phi)
    point = apply_squeeze(static_mode(1, 1, t), sq)
    spec = StateSpec(n=n, alpha=alpha, squeeze=sq, hbar=hbar)
    x = spatial_grid(point, hbar, n=n, alpha=alpha)
    return spec, point, dsn_wavefunction(spec, point, x)


# ------------------------------------------------------------ inner product
def test_inner_product_normalization():
    _, _, psi = _state_on_static(3, 0j, 0.0, 0.0)
    assert abs(inner_product(psi, psi) - 1.0) <= 1e-8


def test_inner_product_parity_orthogonality():
    point = static_mode(1, 1, 0.0)
    x = spatial_grid(point, 1.0, n=1)
    psi0 = number_wavefunction(0, point, 1.0, x)
    psi1 = number_wavefunction(1, point, 1.0, x)
    assert abs(inner_product(psi0, psi1)) <= 1e-8


def test_inner_product_squeezed_vacuum_overlap():
    # |<0_u0 | 0_unu>| = 1/sqrt(cosh r); r = 1 at t = 0
    point0 = static_mode(1, 1, 0.0)
    point1 = apply_squeeze(point0, SqueezeParams(1.0, 0.0))
    x = np.linspace(-22.0, 22.0, 16384)
    a = number_wavefunction(0, point0, 1.0, x)
    b = number_wavefunction(0, point1, 1.0, x)
    overlap = abs(inner_product(a, b))
    assert overlap < 1.0
    assert overlap == pytest.approx(1.0 / math.sqrt(math.cosh(1.0)), abs=1e-8)


def test_inner_product_rejects_mismatched_grids():
    point = static_mode(1, 1, 0.0)
    a = number_wavefunction(0, point, 1.0, np.linspace(-12, 12, 2048))
    b = number_wavefunction(0, point, 1.0, np.linspace(-12, 12, 1024))
    with pytest.raises(GridError):
        inner_product(a, b)


# ------------------------------------------------------------ moments
def test_ground_state_moments():
    _, _, psi = _state_on_static(0, 0j, 0.0, 0.0)
    m = quadrature_moments(psi, 1.0)
    assert m.var_x == pytest.approx(0.5, abs=1e-8)
    assert m.var_p == pytest.approx(0.5, abs=1e-8)
    assert m.uncertainty_product == pytest.approx(0.5, abs=1e-8)


def test_displaced_state_means():
    _, _, psi = _state_on_static(0, 1.0 + 0j, 0.0, 0.0)
    m = quadrature_moments(psi, 1.0)
    assert m.mean_x == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert m.mean_p == pytest.approx(0.0, abs=1e-6)


def test_uncertainty_product_formula(rng):
    # product = hbar (n + 1/2) 2 m |u||u'| >= hbar (n + 1/2)
    for _ in range(8):
        n = int(rng.integers(0, 8))
        spec, point, psi = _state_on_static(
            n, 0j, rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi), t=rng.uniform(0, 5)
        )
        m = quadrature_moments(psi, 1.0)
        expected = (n + 0.5) * 2.0 * point.mass * abs(point.u) * abs(point.u_dot)
        assert m.uncertainty_product == pytest.approx(expected, abs=1e-6)
        assert m.uncertainty_product >= (n + 0.5) - 1e-6


def test_analytic_moments_frozen():
    spec, point, _ = _state_on_static(0, 0j, 0.0, 0.0)
    assert analytic_moments(spec, point).mean_x2 == pytest.approx(0.5, abs=1e-15)
    spec3, point3, _ = _state_on_static(3, 0j, 0.0, 0.0)
    assert analytic_moments(spec3, point3).mean_x2 == pytest.approx(3.5, abs=1e-14)


def test_analytic_vs_quadrature_sweep(rng):
    for _ in range(12):
        spec, point, psi = _state_on_static(
            int(rng.integers(0, 11)),
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            rng.uniform(0, 1.5),
            rng.uniform(0, 2 * math.pi),
            t=rng.uniform(0, 6),
        )
        a = analytic_moments(spec, point)
        q = quadrature_moments(psi, 1.0)
        for field in ("mean_x", "mean_p", "mean_x2", "mean_p2"):
            assert getattr(a, field) == pytest.approx(getattr(q, field), abs=1e-6)


def _stencil_moments(psi, hbar):
    """The four means with the stencils applied as arrays and integrated by
    _numerics.trapezoid on the grid's step vector."""
    x, steps = psi.x, psi.steps
    density = np.abs(psi.psi) ** 2
    norm = float(trapezoid(density, steps))
    mean_x = float(trapezoid(x * density, steps)) / norm
    mean_x2 = float(trapezoid(x**2 * density, steps)) / norm
    dpsi = derivative(psi.psi, psi.dx)
    d2psi = second_derivative(psi.psi, psi.dx)
    mean_p = float(np.real(trapezoid(np.conj(psi.psi) * (-1j * hbar) * dpsi, steps))) / norm
    mean_p2 = float(np.real(trapezoid(np.conj(psi.psi) * (-(hbar**2)) * d2psi, steps))) / norm
    return mean_x, mean_p, mean_x2, mean_p2


def test_quadrature_moments_match_stencil_arrays(rng):
    # summation by parts is the same discrete operator: agreement to
    # rounding, on grids coarse enough to under-resolve the state too
    for _ in range(24):
        n = int(rng.integers(0, 41))
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        hbar = float(rng.choice([0.5, 1.0, 2.0]))
        sq = SqueezeParams(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        point = apply_squeeze(static_mode(1, 1, rng.uniform(0, 6)), sq)
        spec = StateSpec(n=n, alpha=alpha, squeeze=sq, hbar=hbar)
        x = spatial_grid(point, hbar, n=n, alpha=alpha, points=int(rng.choice([256, 1024, 4096])))
        psi = dsn_wavefunction(spec, point, x)
        mean_x, mean_p, mean_x2, mean_p2 = _stencil_moments(psi, hbar)
        m = quadrature_moments(psi, hbar)
        # <x> and <p> relative to their second-moment scale: either may be 0
        assert abs(m.mean_x - mean_x) <= 1e-10 * math.sqrt(mean_x2)
        assert abs(m.mean_p - mean_p) <= 1e-10 * math.sqrt(mean_p2)
        assert m.mean_x2 == pytest.approx(mean_x2, rel=1e-10)
        assert m.mean_p2 == pytest.approx(mean_p2, rel=1e-10)


@pytest.mark.parametrize("points", [9, 10, 17, 4096])
def test_stencil_expectations_any_samples(rng, points):
    # the identity holds for any samples, with the zero padding at both ends
    f = rng.normal(size=points) + 1j * rng.normal(size=points)
    steps = np.full(points - 1, 0.05)
    first, second = stencil_expectations(f, 0.05)
    assert first == pytest.approx(trapezoid(np.conj(f) * derivative(f, 0.05), steps).imag, rel=1e-12)
    assert second == pytest.approx(
        trapezoid(np.conj(f) * second_derivative(f, 0.05), steps).real, rel=1e-12
    )


def test_moments_request_builds_no_stencil_array(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("moments applied a stencil")

    for original in (_numerics.derivative, _numerics.second_derivative):
        for name, module in list(sys.modules.items()):
            if name == "tdho" or name.startswith("tdho."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "quench.json"
    assert cli.main(["moments", str(scenario), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "moments.json").exists()


def test_quadrature_moments_coverage_error():
    from tdho import WaveFunctionGrid

    x = np.linspace(-1.0, 1.0, 512)
    psi = WaveFunctionGrid(0.0, x, np.exp(-0.5 * x**2).astype(complex))
    with pytest.raises(GridError, match="cover"):
        quadrature_moments(psi, 1.0)


# ------------------------------------------------------------ energy
def _energy(moments):
    # <H> = <p^2>/2m + m omega^2 <x^2>/2 at m = omega = 1
    return 0.5 * moments.mean_p2 + 0.5 * moments.mean_x2


def test_analytic_energy_squeezed_vs_quadrature():
    # <H> = cosh(2r) omega0 hbar (n + 1/2) for the squeezed static mode
    spec, point, psi = _state_on_static(1, 0j, 0.6, 0.9, t=0.8)
    energy = _energy(analytic_moments(spec, point))
    assert energy == pytest.approx(math.cosh(1.2) * 1.5, abs=1e-12)
    assert _energy(quadrature_moments(psi, 1.0)) == pytest.approx(energy, abs=1e-6)


def test_energy_constant_on_static_trajectory(static_profile):
    # <H> of the n = 2 state, hbar m (|u'|^2 + omega^2 |u|^2)(n + 1/2), is
    # conserved on the static oscillator
    t_grid = np.linspace(0.0, 12.0, 401)
    exact = static_mode(1.0, 1.0, t_grid)
    energies = ((np.abs(exact.u_dot) ** 2 + np.abs(exact.u) ** 2) * 2.5)[::25]
    assert np.ptp(energies) <= 1e-14
    # integrated trajectory: constancy limited only by the ODE tolerance
    traj = evolve_mode(static_profile, static_mode(1, 1, 0.0), t_grid, rel_tol=1e-12)
    energies = ((np.abs(traj.u_dot) ** 2 + np.abs(traj.u) ** 2) * 2.5)[::25]
    assert np.ptp(energies) <= 1e-10
