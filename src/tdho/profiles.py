"""Time-dependent mass and frequency profiles of the oscillator.

Each profile kind is a closed-form analytic family providing m(t), its
derivative, and omega^2(t) with its derivative at arbitrary times, as arrays,
and the mode equation's coefficients (m, m'/m, omega^2) at one scalar time
as floats (``OscillatorProfile.coefficients``, for the ODE solver).  Only
piecewise-smooth analytic families are supported; tabulated or stochastic
profiles and discontinuous mass are out of scope.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ProfileError

KINDS = ("static", "linear_ramp", "sinusoidal", "tanh_quench", "mass_linear_ramp")

# required/optional parameter names per kind; optional ones carry defaults
_PARAM_SPEC = {
    "static": ({"m0", "omega0"}, {}),
    "linear_ramp": ({"m0", "omega0", "rate"}, {"start": 0.0}),
    "sinusoidal": ({"m0", "omega0", "depth", "rate"}, {}),
    "tanh_quench": ({"m0", "omega_initial", "omega_final", "t_center", "width"}, {}),
    "mass_linear_ramp": ({"m0", "omega0", "rate"}, {"start": 0.0}),
}


@dataclass(frozen=True)
class OscillatorProfile:
    """One analytic (m(t), omega^2(t)) family.

    Invariants: m(t) > 0 on the window where the profile is evaluated and
    omega^2(t) is finite everywhere (omega = 0 is allowed).  Instances are
    immutable and safe to share between threads.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ProfileError(f"unknown profile kind {self.kind!r}; expected one of {KINDS}")
        required, optional = _PARAM_SPEC[self.kind]
        given = set(self.params)
        missing = required - given
        if missing:
            raise ProfileError(f"{self.kind}: missing parameter(s) {sorted(missing)}")
        extra = given - required - set(optional)
        if extra:
            raise ProfileError(f"{self.kind}: unknown parameter(s) {sorted(extra)}")
        params = {k: float(v) for k, v in self.params.items()}
        for k, v in optional.items():
            params.setdefault(k, v)
        if params["m0"] <= 0:
            raise ProfileError("m0 must be positive")
        if self.kind == "tanh_quench":
            if params["width"] <= 0:
                raise ProfileError("width must be positive")
            if params["omega_initial"] < 0 or params["omega_final"] < 0:
                raise ProfileError("omega_initial and omega_final must be non-negative")
        elif params.get("omega0", 0.0) < 0:
            raise ProfileError("omega0 must be non-negative")
        object.__setattr__(self, "params", params)

    # -- factory helpers -------------------------------------------------
    @staticmethod
    def static(m0=1.0, omega0=1.0) -> "OscillatorProfile":
        return OscillatorProfile("static", {"m0": m0, "omega0": omega0})

    @staticmethod
    def linear_ramp(m0=1.0, omega0=1.0, rate=0.0, start=0.0) -> "OscillatorProfile":
        return OscillatorProfile(
            "linear_ramp", {"m0": m0, "omega0": omega0, "rate": rate, "start": start}
        )

    @staticmethod
    def sinusoidal(m0=1.0, omega0=1.0, depth=0.0, rate=1.0) -> "OscillatorProfile":
        return OscillatorProfile(
            "sinusoidal", {"m0": m0, "omega0": omega0, "depth": depth, "rate": rate}
        )

    @staticmethod
    def tanh_quench(m0=1.0, omega_initial=1.0, omega_final=1.0, t_center=0.0, width=1.0):
        return OscillatorProfile(
            "tanh_quench",
            {
                "m0": m0,
                "omega_initial": omega_initial,
                "omega_final": omega_final,
                "t_center": t_center,
                "width": width,
            },
        )

    @staticmethod
    def mass_linear_ramp(m0=1.0, omega0=1.0, rate=0.0, start=0.0) -> "OscillatorProfile":
        return OscillatorProfile(
            "mass_linear_ramp", {"m0": m0, "omega0": omega0, "rate": rate, "start": start}
        )

    # -- evaluation ------------------------------------------------------
    def mass(self, t):
        p = self.params
        if self.kind == "mass_linear_ramp":
            return p["m0"] * (1.0 + p["rate"] * (np.asarray(t, dtype=float) - p["start"]))
        return p["m0"] * np.ones_like(np.asarray(t, dtype=float))

    def mass_dot(self, t):
        p = self.params
        if self.kind == "mass_linear_ramp":
            return p["m0"] * p["rate"] * np.ones_like(np.asarray(t, dtype=float))
        return np.zeros_like(np.asarray(t, dtype=float))

    def omega(self, t):
        """Signed instantaneous frequency; omega_sq = omega**2 for all kinds."""
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.kind == "static":
            return p["omega0"] * np.ones_like(t)
        if self.kind == "linear_ramp":
            return p["omega0"] * (1.0 + p["rate"] * (t - p["start"]))
        if self.kind == "sinusoidal":
            return p["omega0"] * (1.0 + p["depth"] * np.sin(p["rate"] * t))
        if self.kind == "tanh_quench":
            wi, wf = p["omega_initial"], p["omega_final"]
            return wi + (wf - wi) * 0.5 * (1.0 + np.tanh((t - p["t_center"]) / p["width"]))
        return p["omega0"] * np.ones_like(t)  # mass_linear_ramp

    def omega_sq(self, t):
        return self.omega(t) ** 2

    def omega_sq_dot(self, t):
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.kind in ("static", "mass_linear_ramp"):
            return np.zeros_like(t)
        if self.kind == "linear_ramp":
            return 2.0 * p["omega0"] ** 2 * p["rate"] * (1.0 + p["rate"] * (t - p["start"]))
        if self.kind == "sinusoidal":
            w0, d, k = p["omega0"], p["depth"], p["rate"]
            return 2.0 * w0**2 * (1.0 + d * np.sin(k * t)) * d * k * np.cos(k * t)
        wi, wf = p["omega_initial"], p["omega_final"]
        w = p["width"]
        tau = (t - p["t_center"]) / w
        return 2.0 * self.omega(t) * (wf - wi) * 0.5 / (w * np.cosh(tau) ** 2)

    def coefficients(self, t: float) -> tuple:
        """(m, m'/m, omega^2) at one scalar time t, as floats.

        The coefficients of the mode equation u'' + (m'/m) u' + omega^2 u = 0
        for the integrator's right-hand side, without the array round trips
        of mass/mass_dot/omega_sq.  The arithmetic follows theirs step for
        step (omega^2 as a pow like NumPy's ``** 2``, NumPy's tanh), so the
        values agree with them to the last bit wherever math.sin matches
        np.sin.  Raises ProfileError naming t if the mass is not positive.
        """
        p = self.params
        m, k, w = p["m0"], 0.0, p.get("omega0", 0.0)
        if self.kind == "mass_linear_ramp":
            m = p["m0"] * (1.0 + p["rate"] * (t - p["start"]))
            if m <= 0:
                raise ProfileError(f"{self.kind}: non-positive mass at t={float(t)!r}")
            k = p["m0"] * p["rate"] / m
        elif self.kind == "linear_ramp":
            w = p["omega0"] * (1.0 + p["rate"] * (t - p["start"]))
        elif self.kind == "sinusoidal":
            w = p["omega0"] * (1.0 + p["depth"] * math.sin(p["rate"] * t))
        elif self.kind == "tanh_quench":
            wi, wf = p["omega_initial"], p["omega_final"]
            w = wi + (wf - wi) * 0.5 * (1.0 + float(np.tanh((t - p["t_center"]) / p["width"])))
        return m, k, w**2

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{k: self.params[k] for k in sorted(self.params)}}


def evaluate_profile(profile: OscillatorProfile, t):
    """Return (mass, omega_sq) at time t (scalar or array); pure.

    Raises ProfileError naming the offending time if the mass is not positive.
    """
    mass = profile.mass(t)
    if np.any(mass <= 0):
        bad = np.asarray(t, dtype=float).reshape(-1)[
            int(np.argmax(np.asarray(mass).reshape(-1) <= 0))
        ]
        raise ProfileError(f"{profile.kind}: non-positive mass at t={float(bad)!r}")
    omega_sq = profile.omega_sq(t)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(mass), float(omega_sq)
    return mass, omega_sq


def finite_number(value) -> bool:
    """A JSON number that is a finite float: not a boolean, NaN, Infinity or
    an integer beyond the float range.  The one rule for every number of a
    scenario, its profile's included."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def parse_profile(fragment: dict) -> OscillatorProfile:
    """Build and validate a profile from one JSON-style mapping.

    The fragment must contain "kind" plus exactly the parameters of that
    kind; unknown keys are hard errors so typos cannot pass silently.
    """
    if not isinstance(fragment, dict):
        raise ProfileError(f"profile: expected a mapping, got {type(fragment).__name__}")
    if "kind" not in fragment:
        raise ProfileError("profile: missing key 'kind'")
    kind = fragment["kind"]
    params = {k: v for k, v in fragment.items() if k != "kind"}
    for key, value in params.items():
        if not finite_number(value):
            raise ProfileError(
                f"profile.{key}: expected a number that is finite, got {value!r}"
            )
    try:
        return OscillatorProfile(kind, params)
    except ProfileError as exc:
        raise ProfileError(f"profile: {exc}") from None


def profile_hash(profile: OscillatorProfile) -> str:
    """Short stable digest of the profile definition, for output headers."""
    canonical = json.dumps(profile.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
