"""Tests of the benchmark itself:  python3 -m pytest perfbench/selftest.py

They cover the seeded generator, the self-time arithmetic of the tracer,
and that every output check rejects a deliberately corrupted output.
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload):
    first = workloads.generate(workload, 5, 12)
    again = workloads.generate(workload, 5, 12)
    other = workloads.generate(workload, 6, 12)
    assert [(s.name, s.raw, s.requests) for s in first] == [(s.name, s.raw, s.requests) for s in again]
    assert [s.raw for s in first] != [s.raw for s in other]


def test_self_times_on_nested_spans():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9];
    # a second, childless B [10, 12] follows as another root.
    names = ["A", "B", "C", "D", "B"]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 10.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    got = tracing.self_times(names, parents, starts, ends)
    assert got["A"] == [1, 10.0, 3.0]
    assert got["B"] == [2, 5.0, 4.0]
    assert got["C"] == [1, 1.0, 1.0]
    assert got["D"] == [1, 4.0, 4.0]


def test_tracer_patches_caller_names_and_restores_them():
    import tdho.cli
    import tdho.mode_solver
    import tdho.verification

    original = tdho.mode_solver.evolve_mode
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tdho.cli.evolve_mode is not original
        assert tdho.verification.evolve_mode is tdho.cli.evolve_mode
        profile = tdho.profiles.OscillatorProfile.static()
        start = tdho.cli.wkb_mode(profile, 0.0)
        tdho.cli.evolve_mode(profile, start, [0.0, 0.5, 1.0])
    assert tdho.cli.evolve_mode is original and tdho.verification.evolve_mode is original
    metrics = tracer.round_metrics()
    assert metrics["functions"]["mode_solver.evolve_mode"][0] == 1
    assert metrics["rhs_evals"] == metrics["functions"]["profiles.evaluate_profile"][0] - 1
    assert metrics["distinct_solves"] == 1


def _run(workload, root):
    """Generate the first scenarios of ``workload`` and run every request."""
    import tdho.cli

    scenarios = workloads.generate(workload, 3, 3)
    for sc in scenarios:
        workloads.write(sc, root)
        for request in sc.requests:
            with contextlib.redirect_stdout(io.StringIO()):
                assert tdho.cli.main(workloads.argv(sc, request, root)) == 0
            assert checks.check_request(sc.raw, sc.out_dir(root), request) == []
    return scenarios


def test_trajectory_check_rejects_scaled_u(tmp_path):
    sc = _run("mode_solve", tmp_path)[0]
    path = sc.out_dir(tmp_path) / "trajectory_base.csv"
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[1], row[2] = repr(float(row[1]) * 1.001), repr(float(row[2]) * 1.001)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    problems = checks.check_request(sc.raw, sc.out_dir(tmp_path), ["evolve"])
    assert any("Wronskian" in p for p in problems)
    assert any("u off the reference" in p for p in problems)


def test_moments_check_rejects_shifted_mean_x(tmp_path):
    sc = _run("state_sweep", tmp_path)[0]
    path = sc.out_dir(tmp_path) / "moments.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["records"][40]["quadrature"]["mean_x"] += 1e-3
    path.write_text(json.dumps(report), encoding="utf-8")
    problems = checks.check_request(sc.raw, sc.out_dir(tmp_path), ["moments"])
    assert any("moment gap" in p for p in problems)
    assert any("classical path" in p for p in problems)


def test_wavefunction_check_rejects_shifted_density(tmp_path):
    sc = _run("state_sweep", tmp_path)[0]
    [path] = sc.out_dir(tmp_path).glob("wavefunction_state_*.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line[0].isdigit() or line[0] == "-":
            x, rest = line.split(",", 1)
            lines[i] = f"{float(x) + 0.01!r},{rest}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = checks.check_request(sc.raw, sc.out_dir(tmp_path), sc.requests[1])
    assert any("reference density" in p for p in problems)


def test_verify_check_rejects_a_missing_check(tmp_path):
    sc = _run("verify_suite", tmp_path)[0]
    path = sc.out_dir(tmp_path) / "verify.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["checks"].pop(3)
    report["checks_total"] -= 1
    path.write_text(json.dumps(report), encoding="utf-8")
    problems = checks.check_request(sc.raw, sc.out_dir(tmp_path), ["verify"])
    assert any("expected" in p for p in problems)


def test_verify_check_count_matches_the_program():
    # the shipped static scenario: 4 states, 33 samples, unit oscillator
    raw = json.loads((HERE.parent / "scenarios" / "static.json").read_text(encoding="utf-8"))
    assert checks.expected_verify_checks(raw) == 87


def test_printed_metrics_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    class Instant:
        def prepare(self, scenario):
            pass

        def send(self, scenario, request):
            return True

    timed = run._timed(Instant(), workloads.generate("mode_solve", 1, run.MIN_REQUESTS), 0.0)
    assert {k: u for k, (v, u) in timed["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    round_ = {"functions": {}, "counts": dict.fromkeys(tracing.Tracer().counts, 0), "rhs_evals": 0, "distinct_solves": 0}
    layers = run._layer_metrics([round_], [0.1], 1)
    assert {k: u for k, (v, u) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
