import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import eval_hermite

from tdho import (
    GridError,
    SqueezeParams,
    StateSpec,
    apply_squeeze,
    classical_trajectory,
    dsn_wavefunction,
    evolve_mode,
    inner_product,
    lower,
    number_wavefunction,
    spatial_grid,
    static_mode,
    weighted_hermite,
    wkb_mode,
)
from tdho import _numerics, cli
from tdho.mode_solver import ModePoint, squeezed_phase
from tdho.states import comoving_hermite

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# ---------------------------------------------------------- weighted_hermite
def test_weighted_hermite_frozen_values():
    assert weighted_hermite(0, 0.0) == pytest.approx(0.7511255444649425, abs=1e-15)
    assert weighted_hermite(1, 0.0) == 0.0
    # (2^2 2! sqrt(pi))^{-1/2} H_2(1) e^{-1/2} with H_2(1) = 2
    assert weighted_hermite(2, 1.0) == pytest.approx(0.3221441825567376, abs=1e-15)
    assert weighted_hermite(5, 0.7) == pytest.approx(0.3272967634985107, abs=1e-14)
    assert weighted_hermite(3, -1.3) == pytest.approx(-0.09202376890941968, abs=1e-14)


def test_weighted_hermite_matches_scipy():
    xi = np.linspace(-5.0, 5.0, 41)
    for n in (0, 1, 4, 11, 25):
        norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        reference = norm * eval_hermite(n, xi) * np.exp(-0.5 * xi**2)
        assert np.max(np.abs(weighted_hermite(n, xi) - reference)) <= 1e-12


def test_weighted_hermite_orthonormal():
    xi = np.linspace(-14.0, 14.0, 6001)
    funcs = [weighted_hermite(n, xi) for n in range(12)]
    for m in range(12):
        for n in range(m, 12):
            overlap = trapezoid(funcs[m] * funcs[n], xi)
            assert overlap == pytest.approx(1.0 if m == n else 0.0, abs=1e-12)


def test_weighted_hermite_no_overflow():
    values = weighted_hermite(1000, np.linspace(-50.0, 50.0, 101))
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) < 1.0


# ---------------------------------------------------------- grids
def test_spatial_grid_defaults(static_profile):
    point = static_mode(1, 1, 0.0)
    x = spatial_grid(point, 1.0, n=0)
    assert x.size == 2048
    assert x[0] == pytest.approx(-x[-1])


def test_spatial_grid_scales_up_for_hard_states():
    point = apply_squeeze(static_mode(1, 1, 0.8), SqueezeParams(1.5, 0.0))
    x = spatial_grid(point, 1.0, n=10, alpha=3.0)
    assert x.size > 2048


def test_wavefunction_grid_rejects_nonuniform():
    from tdho import WaveFunctionGrid

    x = np.concatenate([np.linspace(0, 1, 50), np.linspace(1.1, 2, 50)])
    with pytest.raises(GridError):
        WaveFunctionGrid(0.0, x, np.zeros(100, complex))


def test_state_spec_validation():
    with pytest.raises(ValueError):
        StateSpec(n=-1)
    with pytest.raises(ValueError):
        StateSpec(n=201)
    with pytest.raises(ValueError):
        StateSpec(n=0, hbar=0.0)


# ---------------------------------------------------------- number states
def test_ground_state_is_textbook_gaussian():
    point = static_mode(1, 1, 0.0)
    x = spatial_grid(point, 1.0, n=0)
    psi = number_wavefunction(0, point, 1.0, x)
    textbook = math.pi**-0.25 * np.exp(-0.5 * x**2)
    # equal up to the global phase e^{-i Theta/2}; at t=0 Theta=0
    assert np.max(np.abs(psi.psi - textbook)) <= 1e-14
    overlap = trapezoid(textbook * psi.psi, x)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-10)


def test_number_state_norms(static_profile):
    point = static_mode(1, 1, 0.37)
    x = spatial_grid(point, 1.0, n=20)
    for n in range(21):
        psi = number_wavefunction(n, point, 1.0, x)
        assert abs(psi.norm_sq() - 1.0) <= 1e-8


def test_number_state_coverage_invariant():
    point = static_mode(1, 1, 0.0)
    for n in (0, 1, 7, 20):
        psi = number_wavefunction(n, point, 1.0, spatial_grid(point, 1.0, n=n))
        assert psi.boundary_ratio() <= 1e-12


def test_squeezed_variance_scales_with_n():
    # <x^2> = hbar rho_nu^2 (2n+1) for the centered state; n=3, r=1
    point = apply_squeeze(static_mode(1, 1, 0.6), SqueezeParams(1.0, 0.0))
    x = spatial_grid(point, 1.0, n=3)
    psi = number_wavefunction(3, point, 1.0, x)
    mean_x2 = trapezoid(x**2 * np.abs(psi.psi) ** 2, x)
    assert mean_x2 == pytest.approx(7.0 * abs(point.u) ** 2, rel=1e-9)


def test_wronskian_guard_refuses_bad_mode():
    point = static_mode(1, 1, 0.0)
    bad = ModePoint(t=0.0, u=point.u * 1.001, u_dot=point.u_dot, mass=1.0)
    with pytest.raises(ValueError, match="Wronskian"):
        number_wavefunction(0, bad, 1.0, spatial_grid(point, 1.0, n=0))


def test_gaussian_envelope_reduction(rng):
    # Re[i m u'* / (2 hbar u*)] = -1/(4 hbar rho^2) whenever the Wronskian
    # normalization holds; this is what lets the stable split fold the
    # envelope into the Hermite recurrence.
    hbar = 1.0
    for _ in range(50):
        sq = SqueezeParams(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi))
        point = apply_squeeze(static_mode(1, 1, rng.uniform(0, 10)), sq)
        coeff = 1j * point.mass * np.conj(point.u_dot) / (2 * hbar * np.conj(point.u))
        assert abs(coeff.real + 1.0 / (4 * hbar * abs(point.u) ** 2)) <= 1e-12


def test_grid_coverage_guard():
    point = static_mode(1, 1, 0.0)
    x = np.linspace(-1.5, 1.5, 256)
    with pytest.raises(GridError, match="cover"):
        number_wavefunction(0, point, 1.0, x)


# ---------------------------------------------------------- classical center
def test_classical_trajectory_zero_alpha():
    center = classical_trajectory(0j, static_mode(1, 1, 0.0), 1.0)
    assert center.x_c == 0.0 and center.p_c == 0.0


def test_classical_trajectory_frozen_values():
    point = static_mode(1, 1, 0.0)
    center = classical_trajectory(1.0 + 0j, point, 1.0)
    assert center.x_c == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert center.p_c == pytest.approx(0.0, abs=1e-15)
    rotated = classical_trajectory(1j, point, 1.0)
    assert rotated.x_c == pytest.approx(0.0, abs=1e-15)
    assert rotated.p_c == pytest.approx(math.sqrt(2.0), abs=1e-15)


# ---------------------------------------------------------- displaced states
def test_dsn_reduces_to_number_state():
    sq = SqueezeParams(0.7, 1.1)
    point = apply_squeeze(static_mode(1, 1, 1.3), sq)
    x = spatial_grid(point, 1.0, n=4)
    spec = StateSpec(n=4, alpha=0j, squeeze=sq)
    a = dsn_wavefunction(spec, point, x)
    b = number_wavefunction(4, point, 1.0, x)
    assert np.max(np.abs(a.psi - b.psi)) <= 1e-14


def test_dsn_centered_gaussian():
    spec = StateSpec(n=0, alpha=1.0 + 0j, squeeze=SqueezeParams(0.0, 0.0))
    point = static_mode(1, 1, 0.0)
    x = spatial_grid(point, 1.0, n=0, alpha=spec.alpha)
    psi = dsn_wavefunction(spec, point, x)
    density = np.abs(psi.psi) ** 2
    mean_x = trapezoid(x * density, x)
    assert mean_x == pytest.approx(math.sqrt(2.0), abs=1e-6)
    target = math.pi**-0.25 * np.exp(-0.5 * (x - math.sqrt(2.0)) ** 2)
    assert np.max(np.abs(density - target**2)) <= 1e-12


def test_dsn_norms_across_parameters(rng):
    for _ in range(10):
        sq = SqueezeParams(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
        spec = StateSpec(
            n=int(rng.integers(0, 11)),
            alpha=complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            squeeze=sq,
        )
        point = apply_squeeze(static_mode(1, 1, rng.uniform(0, 6)), sq)
        x = spatial_grid(point, 1.0, n=spec.n, alpha=spec.alpha)
        psi = dsn_wavefunction(spec, point, x)
        assert abs(psi.norm_sq() - 1.0) <= 1e-8


# ---------------------------------------------------------- ladder operator
def test_lower_annihilates_ground():
    point = static_mode(1, 1, 0.0)
    x = spatial_grid(point, 1.0, n=1)
    psi0 = number_wavefunction(0, point, 1.0, x)
    zero = lower(psi0, point, 1.0)
    assert math.sqrt(zero.norm_sq()) <= 1e-8


def test_lower_steps_down_one():
    point = static_mode(1, 1, 0.4)
    x = spatial_grid(point, 1.0, n=2)
    psi1 = number_wavefunction(1, point, 1.0, x)
    psi0 = number_wavefunction(0, point, 1.0, x)
    stepped = lower(psi1, point, 1.0)
    assert abs(inner_product(psi0, stepped)) == pytest.approx(1.0, abs=1e-6)


def test_lower_sqrt_n_norm():
    point = static_mode(1, 1, 0.0)
    x = spatial_grid(point, 1.0, n=5)
    psi5 = number_wavefunction(5, point, 1.0, x)
    psi4 = number_wavefunction(4, point, 1.0, x)
    stepped = lower(psi5, point, 1.0)
    diff = stepped.psi - math.sqrt(5.0) * psi4.psi
    assert math.sqrt(trapezoid(np.abs(diff) ** 2, x)) <= 1e-6


def test_lower_on_squeezed_evolved_mode(quench_profile):
    t_grid = np.linspace(0.0, 6.0, 601)
    base = evolve_mode(quench_profile, wkb_mode(quench_profile, 0.0), t_grid)
    sq = SqueezeParams(0.5, 1.2)
    squeezed = apply_squeeze(base, sq)
    point = squeezed.point(len(squeezed) - 1)
    x = spatial_grid(point, 1.0, n=6)
    psi6 = number_wavefunction(6, point, 1.0, x)
    psi5 = number_wavefunction(5, point, 1.0, x)
    diff = lower(psi6, point, 1.0).psi - math.sqrt(6.0) * psi5.psi
    assert math.sqrt(trapezoid(np.abs(diff) ** 2, x)) <= 1e-6


def test_lower_rejects_coarse_grid():
    from tdho import WaveFunctionGrid

    point = static_mode(1, 1, 0.0)
    psi = number_wavefunction(40, point, 1.0, spatial_grid(point, 1.0, n=40))
    coarse = WaveFunctionGrid(psi.t, psi.x[::24], psi.psi[::24], meta=psi.meta)
    with pytest.raises(GridError, match="coarse"):
        lower(coarse, point, 1.0)


# ---------------------------------------------------------- shared Hermite table
def test_shared_hermite_table_matches_fresh_wavefunction():
    # every row of every quench state, built from one table per state,
    # agrees with a wave function that evaluates h_n on its own grid
    scenario = cli.load_scenario(SCENARIOS / "quench.json")
    base, base_theta, rows = cli._base_trajectory(scenario)
    for spec in scenario.states:
        squeezed = apply_squeeze(base, spec.squeeze)
        theta = squeezed_phase(base_theta, spec.squeeze)
        count = 0
        for k, point, grid in cli._state_rows(scenario, spec, squeezed, theta, rows):
            fresh = dsn_wavefunction(spec, point, grid.x, theta=float(theta[k]))
            peak = np.max(np.abs(fresh.psi))
            assert np.max(np.abs(grid.psi - fresh.psi)) <= 1e-12 * peak
            count += 1
        assert count == scenario.samples


def test_hermite_table_rejects_other_grid():
    sq = SqueezeParams(0.4, 0.3)
    spec = StateSpec(n=3, alpha=1.0 + 0.5j, squeeze=sq)
    point = apply_squeeze(static_mode(1, 1, 0.7), sq)
    x = spatial_grid(point, 1.0, n=3, alpha=spec.alpha, points=1024)
    assert dsn_wavefunction(spec, point, x, hermite=comoving_hermite(3, 1024)).norm_sq() == (
        pytest.approx(1.0, abs=1e-10)
    )
    others = (comoving_hermite(3, 2048), comoving_hermite(5, 1024), comoving_hermite(3, 1024, 6.0))
    for table in others:
        with pytest.raises(GridError, match="hermite table"):
            dsn_wavefunction(spec, point, x, hermite=table)
    shifted = spatial_grid(point, 1.0, n=3, alpha=0j, points=1024)
    with pytest.raises(GridError, match="hermite table"):
        dsn_wavefunction(spec, point, shifted, hermite=comoving_hermite(3, 1024))


def test_trapezoid_matches_scipy_bit_for_bit(rng):
    for size in [2, 3, 9, 4097, *rng.integers(2, 5000, 46)]:
        x = np.sort(rng.uniform(-20.0, 20.0, size))
        steps = x[1:] - x[:-1]
        real = rng.normal(size=size)
        cplx = real + 1j * rng.normal(size=size)
        for y in (real, cplx):
            ours = _numerics.trapezoid(y, steps)
            theirs = trapezoid(y, x)
            assert ours.tobytes() == np.asarray(theirs).tobytes()
