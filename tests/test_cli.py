import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tdho import cli, states, verification
from tdho.cli import load_scenario, main
from tdho.errors import ScenarioError
from tdho.mode_solver import MAX_PATH_ROWS, SqueezeParams, evolve_mode, polar_decompose
from tdho.states import weighted_hermite
from tdho.verification import crosscheck_static, nieto_time_identity_residuals

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, **overrides):
    doc = {
        "profile": {"kind": "static", "m0": 1.0, "omega0": 1.0},
        "states": [{"n": 0}, {"n": 2, "alpha": [1.0, 0.0], "r": 0.3, "phi": 0.4}],
        "time_grid": {"t_start": 0.0, "t_end": 3.0, "samples": 7},
        "grid": {"points": 2048, "half_width_sigmas": 8.0},
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ------------------------------------------------------------ validation
def test_load_shipped_scenarios():
    for name in ("static", "quench", "mass_ramp", "sinusoidal"):
        scenario = load_scenario(SCENARIOS / f"{name}.json")
        assert scenario.samples >= 2
        assert scenario.states


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"profile": {"kind": "static", "m0": -1, "omega0": 1}}, "m0"),
        ({"bogus": 1}, "unknown key"),
        ({"time_grid": {"t_start": 1.0, "t_end": 0.0, "samples": 5}}, "t_end"),
        ({"time_grid": {"t_start": 0.0, "t_end": 1.0, "samples": 1}}, "samples"),
        ({"grid": {"points": 32}}, "points"),
        ({"states": []}, "non-empty"),
        ({"states": [{"n": -1}]}, "non-negative"),
        ({"states": [{"n": 0, "alpha": [1.0]}]}, "alpha"),
        ({"states": [{"n": 0, "r": -0.5}]}, "r"),
        ({"hbar": 0.0}, "hbar"),
        ({"tolerances": {"ode_rel_tol": 1e-3}}, "ode_rel_tol"),
        ({"grid": 5}, "grid: expected an object"),
        ({"outputs": "x"}, "outputs: expected an object"),
        ({"tolerances": [1]}, "tolerances: expected an object"),
        ({"states": [{"n": True}]}, "non-negative integer"),
        ({"hbar": float("nan")}, "hbar"),
        ({"time_grid": {"t_start": 0.0, "t_end": float("inf"), "samples": 5}}, "t_end"),
        ({"states": [{"n": 0, "r": float("nan")}]}, r"states\[0\]\.r"),
        ({"tolerances": {"quadrature_tol": float("nan")}}, "quadrature_tol"),
        ({"grid": {"half_width_sigmas": float("inf")}}, "half_width_sigmas"),
        ({"states": [{"n": 0, "alpha": [float("nan"), 0.0]}]}, "alpha"),
        ({"grid": {"points": states._GRID_POINTS_MAX + 1}}, "points"),
        ({"hbar": 10**400}, "hbar"),
        ({"profile": {"kind": "static", "m0": 10**400, "omega0": 1}}, "profile.m0"),
        ({"time_grid": {"t_start": 0, "t_end": 1, "samples": MAX_PATH_ROWS + 1}}, "samples"),
        ({"states": [{"n": 0}, {"n": 1, "r": 30}]}, "largest r 30 above the squeeze ceiling"),
    ],
)
def test_scenario_validation_errors(tmp_path, overrides, message):
    path = write_scenario(tmp_path, **overrides)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


def test_scenario_unreadable_text(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"hbar": "\xff"}')
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(path)


def test_grid_points_ceiling_accepted(tmp_path):
    path = write_scenario(tmp_path, grid={"points": states._GRID_POINTS_MAX})
    assert load_scenario(path).grid_points == states._GRID_POINTS_MAX


def test_validation_exit_code(tmp_path, capsys):
    path = write_scenario(tmp_path, profile={"kind": "static", "m0": -1, "omega0": 1})
    assert main(["verify", path]) == 1
    assert "m0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, cause",
    [
        # the mode path does not depend on r: the loader's squeeze ceiling
        # refuses these before any path is sized
        ({"states": [{"n": 0, "r": 30}]}, "largest r 30"),
        ({"states": [{"n": 0, "r": 400}]}, "largest r 400"),  # e^{2r} overflows
        ({"time_grid": {"t_start": 0, "t_end": 1e9, "samples": 7}}, "span 1e+09"),
        ({"profile": {"kind": "static", "m0": 1, "omega0": 1e6}}, "largest omega 1e+06"),
        # the stride rounds up to 4 sub-steps, past the ceiling
        ({"time_grid": {"t_start": 0, "t_end": 3, "samples": MAX_PATH_ROWS}}, "262144 samples"),
        (
            {
                "profile": {
                    "kind": "tanh_quench",
                    "m0": 1,
                    "omega_initial": 1,
                    "omega_final": 1e5,
                    "t_center": 1.5,
                    "width": 0.3,
                }
            },
            "largest omega 1e+05",
        ),
    ],
)
@pytest.mark.parametrize("command", ["evolve", "verify"])
def test_path_ceiling_refused_unbuilt(tmp_path, capsys, monkeypatch, overrides, cause, command):
    # the path's row count (and the squeeze ceiling) is checked from the
    # scenario before anything of that size is allocated, and the request
    # exits 1 naming the cause
    def no_solve(*args, **kwargs):
        raise AssertionError("evolve_mode reached")

    monkeypatch.setattr(cli, "evolve_mode", no_solve)
    path = write_scenario(tmp_path, **overrides)
    tracemalloc.start()
    try:
        code = main([command, path, "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "ceiling" in err and cause in err
    assert peak < 10 * 2**20


@pytest.mark.parametrize(
    "command, tolerances",
    [
        ("static-compare", {}),
        # the residual's dt guard refuses r = 6 at the default dt
        ("verify", {"residual_dt": 1e-7}),
    ],
)
def test_static_path_ceiling_refused_unbuilt(tmp_path, capsys, command, tolerances):
    # r = 6 to t = 2 pi: the static cross-check paths would take 6.1e6
    # samples (1.26 GB of peak memory); their rows are worked out before
    # allocation and the request exits 1 naming them
    path = write_scenario(
        tmp_path,
        states=[{"n": 0, "r": 6.0}],
        time_grid={"t_start": 0.0, "t_end": 2 * np.pi, "samples": 5},
        tolerances=tolerances,
    )
    tracemalloc.start()
    try:
        code = main([command, path, "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "t_max=6.28319 needs 6.14e+06 rows (r 6)" in err
    assert f"ceiling of {MAX_PATH_ROWS}" in err
    assert peak < 10 * 2**20


def _scan_times(r, times):
    # the times of ``times`` whose static paths stay under the ceiling
    return [t for t in times if 6.0 * t * np.exp(2.0 * r) + 1.0 < MAX_PATH_ROWS]


@pytest.mark.parametrize("phi", [0.0, np.pi / 2, np.pi])
def test_static_tolerances_hold_over_squeeze_scan(phi):
    # the closed forms' rounding grows with r (2.4e-10 in the pointwise gap
    # at r = 4, phi = 0, t = pi/2; 1.9e-8 in the time identities at r = 4,
    # phi = pi, t = 2 pi) while the identities hold exactly.  The gap is
    # scanned where rho is stationary, 2t - phi = k pi: there it peaks, and
    # the state's grid stays under its ceiling up to r = 5.
    turning = [(phi + k * np.pi) / 2 for k in range(5)]
    for r in np.linspace(0.0, 5.0, 11):
        sq = SqueezeParams(float(r), phi)
        times = _scan_times(r, np.linspace(0.0, 2 * np.pi, 129)[1:])
        worst = max(max(res.values()) for res in nieto_time_identity_residuals(sq, times))
        assert worst <= cli._squeezed_tol(cli.NIETO_TIME_TOL, r, cli.NIETO_TIME_GROWTH)
        times = _scan_times(r, [t for t in turning if t > 0])
        for n in (0, 3):
            reports = crosscheck_static(sq, n, 0.6 - 0.8j, times)
            worst = max(report["max_pointwise_diff"] for report in reports)
            assert worst <= cli._squeezed_tol(cli.CROSSCHECK_TOL, r, cli.CROSSCHECK_GROWTH)


@pytest.mark.parametrize("r", np.linspace(0.0, 5.0, 6))
def test_static_tolerances_catch_relative_error(monkeypatch, r):
    # an A_nu, or a closed-form amplitude, off by 1e-6 relative still fails
    # the widened tolerance at the state's narrowest time
    sq, t = SqueezeParams(float(r), 0.0), np.pi / 2
    exact = verification.static_coefficients
    closed_form = verification.static_closed_form_wavefunction
    monkeypatch.setattr(
        verification,
        "static_coefficients",
        lambda *args: replace(exact(*args), A_nu=exact(*args).A_nu * (1 + 1e-6)),
    )
    (residuals,) = nieto_time_identity_residuals(sq, [t])
    assert residuals["A_nu"] > cli._squeezed_tol(cli.NIETO_TIME_TOL, r, cli.NIETO_TIME_GROWTH)
    monkeypatch.setattr(verification, "static_coefficients", exact)
    monkeypatch.setattr(
        verification,
        "static_closed_form_wavefunction",
        lambda *args: closed_form(*args) * (1 + 1e-6),
    )
    (report,) = crosscheck_static(sq, 0, 0j, [t])
    gap = report["max_pointwise_diff"]
    assert gap > cli._squeezed_tol(cli.CROSSCHECK_TOL, r, cli.CROSSCHECK_GROWTH)


# ------------------------------------------------------------ subcommands
def test_verify_shipped_static_scenario(tmp_path, capsys):
    code = main(["verify", str(SCENARIOS / "static.json"), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["checks_failed"] == 0
    assert all(check["passed"] for check in report["checks"])


def test_verify_solves_mode_once(tmp_path, monkeypatch):
    # one base solve serves every state, and one fresh solve from t0 serves
    # the Schrodinger residuals of all four states
    calls = {"cli": 0, "verification": 0}

    def counting(module):
        def solve(*args, **kwargs):
            calls[module] += 1
            return evolve_mode(*args, **kwargs)

        return solve

    monkeypatch.setattr(cli, "evolve_mode", counting("cli"))
    monkeypatch.setattr(verification, "evolve_mode", counting("verification"))
    assert main(["verify", str(SCENARIOS / "static.json"), "--out", str(tmp_path)]) == 0
    assert calls == {"cli": 1, "verification": 1}


def test_moments_builds_hermite_once_per_state(tmp_path, monkeypatch):
    # h_n on the co-moving grid is the same at every time: one table per
    # state serves all 33 samples of each of the 4 states
    calls = []

    def counting(n, xi):
        calls.append(n)
        return weighted_hermite(n, xi)

    monkeypatch.setattr(states, "weighted_hermite", counting)
    assert main(["moments", str(SCENARIOS / "static.json"), "--out", str(tmp_path)]) == 0
    assert len(calls) == 4


@pytest.mark.parametrize("command", ["verify", "static-compare"])
def test_nieto_identities_once_per_state(tmp_path, monkeypatch, command):
    # the t = 0 set and one time sweep per state of the unit static
    # oscillator, whatever the number of times
    calls = {"t0": 0, "time": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    for module in (cli, verification):
        t0 = counting("t0", verification.nieto_t0_identity_residuals)
        monkeypatch.setattr(module, "nieto_t0_identity_residuals", t0)
        time_set = counting("time", verification.nieto_time_identity_residuals)
        monkeypatch.setattr(module, "nieto_time_identity_residuals", time_set)
    assert main([command, str(SCENARIOS / "static.json"), "--out", str(tmp_path)]) == 0
    assert calls == {"t0": 4, "time": 4}


def test_verify_short_window_displaced_state(tmp_path):
    # two time samples half a unit apart still give a displaced state its
    # classical-equation check
    path = write_scenario(
        tmp_path,
        states=[{"n": 1, "alpha": [0.5, 0.2]}],
        time_grid={"t_start": 0.0, "t_end": 0.5, "samples": 2},
    )
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert "classical_equation" in {check["check"] for check in report["checks"]}


def test_verify_tanh_quench_classical_equation(tmp_path):
    # a quench whose classical-equation residual lies close to the 1e-6
    # tolerance (1.28e-6 when the centre was sampled on a grid of its own)
    alpha = [0.42409816582349924, -0.11355627866714113]
    shared = {"alpha": alpha, "r": 0.4404553293121022, "phi": 0.07921903855348722}
    path = write_scenario(
        tmp_path,
        profile={
            "kind": "tanh_quench",
            "m0": 1.2875582023918792,
            "omega_initial": 0.9094458553060549,
            "omega_final": 0.9061051315983298,
            "t_center": 3.3178844662875813,
            "width": 0.3,
        },
        states=[dict(shared, n=9), dict(shared, n=5)],
        time_grid={"t_start": 0.0, "t_end": 5.762755799596926, "samples": 33},
        grid={"points": 4096, "half_width_sigmas": 8.0},
    )
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    classical = [c for c in report["checks"] if c["check"] == "classical_equation"]
    assert len(classical) == 2 and all(c["passed"] for c in classical)


@pytest.mark.parametrize(
    "profile",
    [
        {"kind": "sinusoidal", "m0": 1.0, "omega0": 1.0, "depth": 0.02, "rate": 20.0},
        {
            "kind": "tanh_quench",
            "m0": 1.0,
            "omega_initial": 1.0,
            "omega_final": 1.4,
            "t_center": 3.0,
            "width": 0.05,
        },
        {"kind": "sinusoidal", "m0": 1.0, "omega0": 1.0, "depth": 0.15, "rate": 20.0},
    ],
)
def test_verify_fast_profile_classical_equation(tmp_path, profile):
    # a profile changing much faster than the mode oscillates; second
    # derivatives of the sampled centre read 1.6e-6 on the deep sinusoid
    path = write_scenario(
        tmp_path,
        profile=profile,
        states=[{"n": 2, "alpha": [0.4, -0.1], "phi": 0.1}],
        time_grid={"t_start": 0.0, "t_end": 10.0, "samples": 33},
        grid={"points": 1024, "half_width_sigmas": 8.0},
    )
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    classical = [c for c in report["checks"] if c["check"] == "classical_equation"]
    assert len(classical) == 1 and classical[0]["passed"]


def test_verify_failure_exits_2(tmp_path):
    # an unreachable quadrature tolerance forces honest check failures
    path = write_scenario(
        tmp_path,
        tolerances={"ode_rel_tol": 1e-10, "quadrature_tol": 1e-15, "residual_dt": 1e-4},
    )
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 2


def test_numerical_failure_exits_3(tmp_path):
    path = write_scenario(
        tmp_path,
        profile={"kind": "mass_linear_ramp", "m0": 1.0, "omega0": 1.0, "rate": -0.2},
        time_grid={"t_start": 0.0, "t_end": 10.0, "samples": 11},
    )
    assert main(["evolve", path, "--out", str(tmp_path / "out")]) == 3


def test_wavefunction_csv_shape(tmp_path):
    code = main(
        [
            "wavefunction",
            str(SCENARIOS / "quench.json"),
            "--state-index", "1",
            "--t", "6.0",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    csv_files = list(tmp_path.glob("wavefunction_*.csv"))
    assert len(csv_files) == 1
    lines = csv_files[0].read_text().splitlines()
    comment = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "x,re_psi,im_psi,abs2_psi"
    assert len(data) - 1 == 4096  # scenario grid points
    assert any("profile_hash=" in ln for ln in comment)
    assert any("n=2" in ln for ln in comment)


def test_wavefunction_bad_index(tmp_path):
    code = main(
        ["wavefunction", str(SCENARIOS / "static.json"), "--state-index", "9",
         "--out", str(tmp_path)]
    )
    assert code == 1


def test_evolve_writes_trajectories(tmp_path):
    code = main(["evolve", str(SCENARIOS / "static.json"), "--out", str(tmp_path)])
    assert code == 0
    files = sorted(tmp_path.glob("trajectory_*.csv"))
    assert len(files) == 5  # base + four states
    lines = files[0].read_text().splitlines()
    assert lines[0].startswith("t,re_u,im_u")
    assert len(lines) == 1 + 33  # header + scenario samples


def test_evolve_path_independent_of_squeeze(tmp_path, monkeypatch):
    # squeezed phases follow from the base phase in closed form, so the base
    # mode is solved on the same path whatever the states' squeeze
    paths = []

    def recording(profile, initial, t_grid, **kwargs):
        paths.append(np.asarray(t_grid))
        return evolve_mode(profile, initial, t_grid, **kwargs)

    monkeypatch.setattr(cli, "evolve_mode", recording)
    doc = json.loads((SCENARIOS / "quench.json").read_text())
    for r in (0.0, 1.0, 3.0):
        for state in doc["states"]:
            state["r"] = r
        path = tmp_path / f"quench_r{r}.json"
        path.write_text(json.dumps(doc))
        assert main(["evolve", str(path), "--out", str(tmp_path / f"out_r{r}")]) == 0
    assert len(paths) == 3
    assert all(np.array_equal(path, paths[0]) for path in paths[1:])


@pytest.mark.parametrize("command", ["evolve", "wavefunction"])
def test_csv_output_disabled(tmp_path, capsys, command):
    path = write_scenario(tmp_path, outputs={"csv": False})
    assert main([command, path, "--out", str(tmp_path / "out")]) == 0
    assert not list((tmp_path / "out").glob("*.csv"))
    assert "wrote" not in capsys.readouterr().out


def test_moments_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["moments", str(SCENARIOS / "static.json"), "--out", str(out_a)]) == 0
    assert main(["moments", str(SCENARIOS / "static.json"), "--out", str(out_b)]) == 0
    assert (out_a / "moments.json").read_bytes() == (out_b / "moments.json").read_bytes()
    report = json.loads((out_a / "moments.json").read_text())
    assert report["worst_max_abs_diff"] <= 1e-6
    assert len(report["records"]) == 4 * 33


def test_evolve_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["evolve", str(SCENARIOS / "quench.json"), "--out", str(out_a)]) == 0
    assert main(["evolve", str(SCENARIOS / "quench.json"), "--out", str(out_b)]) == 0
    files_a = sorted(out_a.glob("trajectory_*.csv"))
    assert [f.name for f in files_a] == sorted(f.name for f in out_b.glob("trajectory_*.csv"))
    assert len(files_a) == 1 + 3  # base + three states
    for file_a in files_a:
        assert file_a.read_bytes() == (out_b / file_a.name).read_bytes()


def test_static_compare_requires_static(tmp_path):
    assert (
        main(["static-compare", str(SCENARIOS / "quench.json"), "--out", str(tmp_path)]) == 1
    )


def test_static_compare_report(tmp_path):
    code = main(["static-compare", str(SCENARIOS / "static.json"), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "static_compare.json").read_text())
    assert report["worst_max_pointwise_diff"] <= 1e-10
    assert len(report["cases"]) == 4 * 33
    # state-major order, each state's times in order, identities last
    expected = [(n, float(t)) for n in (0, 1, 3, 2) for t in np.linspace(0, 2 * np.pi, 33)]
    assert [(case["n"], case["t"]) for case in report["cases"]] == expected
    assert list(report["cases"][0])[-3:] == [
        "max_pointwise_diff",
        "t0_identities",
        "time_identities",
    ]


def test_static_compare_sweeps_each_state_once(tmp_path, monkeypatch):
    # one unwrapped path per state serves all 33 times, and one Hermite
    # table serves each grid size a state's sweep meets
    decompositions, tables = [], []

    def counting_decompose(mode):
        decompositions.append(len(mode))
        return polar_decompose(mode)

    def counting_hermite(n, xi):
        tables.append((n, len(xi)))
        return weighted_hermite(n, xi)

    monkeypatch.setattr(verification, "polar_decompose", counting_decompose)
    monkeypatch.setattr(states, "weighted_hermite", counting_hermite)
    assert main(["static-compare", str(SCENARIOS / "static.json"), "--out", str(tmp_path)]) == 0
    assert len(decompositions) == 4
    assert len(tables) == len(set(tables))


def test_wavefunction_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["wavefunction", str(SCENARIOS / "static.json"), "--state-index", "1", "--t", "2.0"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    files_a = sorted(out_a.glob("*.csv"))
    files_b = sorted(out_b.glob("*.csv"))
    assert files_a[0].read_bytes() == files_b[0].read_bytes()
