import math

import numpy as np
import pytest

from tdho import OscillatorProfile, ProfileError, evaluate_profile, parse_profile, profile_hash


def test_static_profile_constant(static_profile):
    assert evaluate_profile(static_profile, 7.3) == (1.0, 1.0)
    assert evaluate_profile(static_profile, -2.0) == evaluate_profile(static_profile, 40.0)


def test_linear_ramp_value():
    prof = OscillatorProfile.linear_ramp(m0=1.0, omega0=1.0, rate=0.1, start=0.0)
    mass, omega_sq = evaluate_profile(prof, 2.0)
    assert mass == 1.0
    # omega(2) = 1 * (1 + 0.1 * 2) = 1.2
    assert omega_sq == pytest.approx(1.44, abs=1e-15)


def test_sinusoidal_at_zero():
    prof = OscillatorProfile.sinusoidal(m0=1.0, omega0=2.0, depth=0.5, rate=1.0)
    mass, omega_sq = evaluate_profile(prof, 0.0)
    assert mass == 1.0
    assert omega_sq == pytest.approx(4.0, abs=1e-15)


def test_evaluate_is_pure(quench_profile, rng):
    for t in rng.uniform(-5.0, 15.0, 25):
        assert evaluate_profile(quench_profile, t) == evaluate_profile(quench_profile, t)


def test_tanh_quench_limits():
    prof = OscillatorProfile.tanh_quench(
        m0=1.0, omega_initial=2.0, omega_final=1.0, t_center=5.0, width=0.5
    )
    for t, target in ((-20.0, 2.0), (30.0, 1.0)):
        _, omega_sq = evaluate_profile(prof, t)
        bound = math.exp(-abs(t - 5.0) / 0.5)
        assert abs(math.sqrt(omega_sq) - target) < bound


def test_mass_ramp_positive_mass_enforced():
    prof = OscillatorProfile.mass_linear_ramp(m0=1.0, omega0=1.0, rate=-0.2)
    assert evaluate_profile(prof, 1.0)[0] == pytest.approx(0.8)
    with pytest.raises(ProfileError, match="t="):
        evaluate_profile(prof, 6.0)


def test_mass_error_names_time_as_float():
    # the time reads as coefficients() prints it, not as a NumPy scalar repr
    prof = OscillatorProfile.mass_linear_ramp(1.0, 1.0, -0.2)
    with pytest.raises(ProfileError, match=r"t=6\.0$"):
        evaluate_profile(prof, 6.0)
    with pytest.raises(ProfileError, match=r"t=6\.0$"):
        evaluate_profile(prof, np.array([1.0, 6.0]))


def test_mass_dot_analytic(mass_ramp_profile):
    assert float(mass_ramp_profile.mass_dot(3.0)) == pytest.approx(0.005)
    assert float(OscillatorProfile.static(1, 1).mass_dot(3.0)) == 0.0


def test_omega_sq_dot_matches_finite_difference(quench_profile, sinusoidal_profile):
    eps = 1e-6
    for prof in (quench_profile, sinusoidal_profile):
        for t in (0.0, 3.7, 5.0, 9.2):
            fd = (prof.omega_sq(t + eps) - prof.omega_sq(t - eps)) / (2 * eps)
            assert float(prof.omega_sq_dot(t)) == pytest.approx(float(fd), abs=1e-6)


def test_parse_profile_static():
    prof = parse_profile({"kind": "static", "m0": 1, "omega0": 1})
    assert prof.kind == "static"
    assert evaluate_profile(prof, 0.0) == (1.0, 1.0)


def test_parse_profile_rejects_bad_mass():
    with pytest.raises(ProfileError, match="m0 must be positive"):
        parse_profile({"kind": "static", "m0": -1, "omega0": 1})


def test_parse_profile_quench_interpolates():
    prof = parse_profile(
        {
            "kind": "tanh_quench",
            "m0": 1,
            "omega_initial": 2,
            "omega_final": 1,
            "t_center": 5,
            "width": 0.5,
        }
    )
    assert math.sqrt(prof.omega_sq(-15.0)) == pytest.approx(2.0, abs=1e-8)
    assert math.sqrt(prof.omega_sq(25.0)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "fragment, message",
    [
        ({"kind": "bogus", "m0": 1}, "unknown profile kind"),
        ({"kind": "static", "m0": 1}, "missing"),
        ({"kind": "static", "m0": 1, "omega0": 1, "extra": 2}, "unknown parameter"),
        ({"kind": "static", "m0": 1, "omega0": "one"}, "expected a number"),
        ({"m0": 1, "omega0": 1}, "missing key 'kind'"),
        ({"kind": "tanh_quench", "m0": 1, "omega_initial": 2, "omega_final": 1,
          "t_center": 5, "width": 0}, "width must be positive"),
    ],
)
def test_parse_profile_errors(fragment, message):
    with pytest.raises(ProfileError, match=message):
        parse_profile(fragment)


def test_profile_hash_stable_and_distinct(static_profile):
    assert profile_hash(static_profile) == profile_hash(OscillatorProfile.static(1, 1))
    assert profile_hash(static_profile) != profile_hash(OscillatorProfile.static(2, 1))


def test_array_evaluation(sinusoidal_profile):
    t = np.linspace(0, 10, 64)
    mass, omega_sq = evaluate_profile(sinusoidal_profile, t)
    assert mass.shape == t.shape
    assert np.all(omega_sq >= 0)


def _within_ulps(value, expected, ulps=2):
    return abs(value - expected) <= ulps * math.ulp(expected)


@pytest.mark.parametrize(
    "profile",
    [
        OscillatorProfile.static(m0=1.3, omega0=0.7),
        OscillatorProfile.linear_ramp(m0=0.8, omega0=1.1, rate=0.03, start=-2.0),
        OscillatorProfile.sinusoidal(m0=1.0, omega0=1.4, depth=0.15, rate=7.0),
        OscillatorProfile.tanh_quench(
            m0=1.2, omega_initial=1.5, omega_final=0.6, t_center=20.0, width=0.3
        ),
        OscillatorProfile.mass_linear_ramp(m0=0.9, omega0=1.2, rate=-0.02, start=1.0),
    ],
    ids=lambda p: p.kind,
)
def test_coefficients_match_array_evaluation(profile, rng):
    # the scalar form used by the ODE right-hand side agrees with the array
    # methods; libm may round sin differently from NumPy, hence 2 ulp
    times = np.concatenate([rng.uniform(0.0, 40.0, 196), [0.0, 19.9, 20.0, 20.1]])
    for t in times:
        m, k, omega_sq = profile.coefficients(t)
        mass = float(profile.mass(t))
        assert _within_ulps(m, mass)
        assert _within_ulps(k, float(profile.mass_dot(t)) / mass)
        assert _within_ulps(omega_sq, float(profile.omega_sq(t)))
        assert all(isinstance(v, float) for v in (m, k, omega_sq))


def test_coefficients_reject_mass_past_zero():
    prof = OscillatorProfile.mass_linear_ramp(m0=1.0, omega0=1.0, rate=-0.2)
    assert prof.coefficients(4.0)[0] == pytest.approx(0.2)
    for t in (5.0, 7.25):
        with pytest.raises(ProfileError, match=f"t={t}"):
            prof.coefficients(t)
