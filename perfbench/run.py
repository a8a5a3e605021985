"""Request-level benchmark of the tdho command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Generates the workload's scenario files from the seed, then replays their
requests as a closed loop: one client, one request at a time, in this
process and thread, through ``tdho.cli.main(argv)``.  After the timed phase
every output written is checked (checks.py).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones from a traced replay (tracing.py).
See README.md for the workloads, the metrics and the reference figures.
"""

import os
import sys
import time

# Cold set-up is timed from process start: read how long the interpreter
# has been running before anything else is imported.
_T0 = time.perf_counter()


def _since_process_start() -> float:
    """Seconds since this process started, from /proc (0 where absent)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_STARTUP = _since_process_start()

# One thread everywhere: BLAS and OpenMP pools would contend with the
# client on a small shared machine; TDHO_THREADS keeps its default of 1.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TDHO_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# the warm-up scenario, run before timing and not counted, comes from a
# fixed seed, so that set-up does the same work whatever --seed is
WARMUP_SEED = 0
# the timed phase runs past --seconds until this many requests are done,
# so that ten samples lie beyond the 90th percentile of latency
MIN_REQUESTS = 100
# fresh scenarios per traced round; each round runs traced, then untraced
TRACE_ROUND = {"state_sweep": 8, "mode_solve": 20, "verify_suite": 12}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Client:
    """Sends requests to ``tdho.cli.main`` and records their outcome."""

    def __init__(self, cli, root: Path):
        self.cli = cli
        self.root = root
        self.devnull = open(os.devnull, "w", encoding="utf-8")
        self.errors: list = []
        self.ran: dict = {}  # scenario name -> (scenario, [requests])

    def close(self):
        self.devnull.close()

    def prepare(self, scenario):
        """Write the scenario file before its first request."""
        if scenario.name not in self.ran:
            workloads.write(scenario, self.root)
            self.ran[scenario.name] = (scenario, [])

    def send(self, scenario, request) -> bool:
        argv = workloads.argv(scenario, request, self.root)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(self.devnull), contextlib.redirect_stderr(err):
                # looked up on every call so that the tracer's wrapper is used
                code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a dead run
            code = f"{type(exc).__name__}: {exc}"
        done = self.ran[scenario.name][1]
        if request not in done:
            done.append(request)
        if code != 0:
            self.errors.append(f"{' '.join(argv)} -> {code} {err.getvalue().strip()}")
            return False
        return True


def _requests(client, scenarios):
    """(scenario, request) pairs in order, each scenario file written just
    before its first request (a fraction of a millisecond)."""
    for scenario in scenarios:
        client.prepare(scenario)
        for request in scenario.requests:
            yield scenario, request


def _timed(client, stream, seconds) -> dict:
    """Closed loop over fresh scenarios for ``seconds`` (and at least
    MIN_REQUESTS requests); end-to-end metrics."""
    latencies = []
    failed = 0
    clock = time.perf_counter
    begin = clock()
    setup_s = _STARTUP + (begin - _T0)
    for scenario, request in _requests(client, stream):
        if clock() - begin >= seconds and len(latencies) >= MIN_REQUESTS:
            break
        t = clock()
        ok = client.send(scenario, request)
        latencies.append(clock() - t)
        failed += not ok
    wall = clock() - begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": ((len(latencies) - failed) / wall, "req/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (cuts[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {"attempted": len(latencies), "failed": failed, "metrics": metrics}


def _traced(client, stream, round_size, seconds) -> dict:
    """Rounds of ``round_size`` fresh scenarios for ``seconds``; per-layer
    metrics of a round.  Each round runs traced first, while its scenarios
    are new to the program, and is then replayed untraced, so that the
    difference of the two passes is the tracer's overhead."""
    tracer = tracing.Tracer()
    per_round, overhead = [], []
    failed = attempted = 0
    clock = time.perf_counter
    begin = clock()
    while not per_round or clock() - begin < seconds:
        round_ = list(_requests(client, itertools.islice(stream, round_size)))
        tracer.reset()
        with tracer.installed():
            t = clock()
            for scenario, request in round_:
                failed += not client.send(scenario, request)
            traced = clock() - t
        per_round.append(tracer.round_metrics())
        t = clock()
        for scenario, request in round_:
            failed += not client.send(scenario, request)
        overhead.append(traced - (clock() - t))
        attempted += 2 * len(round_)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": _layer_metrics(per_round, overhead, len(round_)),
    }


CALLS = (
    "profiles.evaluate_profile",
    "mode_solver.evolve_mode",
    "states.dsn_wavefunction",
    "observables.quadrature_moments",
)


def _layer_metrics(per_round, overhead, round_requests) -> dict:
    """Counts of the first round (the same scenarios for a given seed) and
    median self times over the traced rounds."""
    first = per_round[0]
    fns = first["functions"]

    def calls(name):
        return fns.get(name, [0])[0]

    def median_self(name):
        return statistics.median(r["functions"].get(name, [0, 0.0, 0.0])[2] for r in per_round)

    solves = calls("mode_solver.evolve_mode")
    out = {
        f"{name}.self_s": (median_self(name), "s")
        for name in (tracing.span_name(*traced) for traced in tracing.TRACED)
    }
    out.update({f"{name}.calls": (calls(name), "count") for name in CALLS})
    out.update(
        {
            "mode_solver.rhs_evals_per_solve": (first["rhs_evals"] / solves if solves else 0.0, "evals/solve"),
            "mode_solver.evolve_mode.distinct": (first["distinct_solves"], "count"),
            "mode_solver.evolve_mode.useful_ratio": (
                first["distinct_solves"] / solves if solves else 0.0,
                "ratio",
            ),
            "states.grid_points": (first["counts"]["grid_points"], "count"),
            "states.hermite_steps": (first["counts"]["hermite_steps"], "count"),
            "numerics.stencil_points": (first["counts"]["stencil_points"], "count"),
            "io.bytes_written": (first["counts"]["bytes_written"], "B"),
            "trace.round_requests": (round_requests, "count"),
            "trace.overhead_s": (statistics.median(overhead), "s"),
        }
    )
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "tdho" / "cli.py").is_file():
        print(f"error: the tdho sources are missing ({SRC / 'tdho'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tdho.cli

    work = HERE / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    client = Client(tdho.cli, work)
    try:
        warmup = dataclasses.replace(next(workloads.stream(args.workload, WARMUP_SEED)), name="warmup")
        for scenario, request in _requests(client, [warmup]):
            client.send(scenario, request)
        stream = workloads.stream(args.workload, args.seed)
        if args.trace:
            result = _traced(client, stream, TRACE_ROUND[args.workload], args.seconds)
        else:
            result = _timed(client, stream, args.seconds)
        problems = []
        for scenario, requests in client.ran.values():
            for request in requests:
                try:
                    found = checks.check_request(scenario.raw, scenario.out_dir(work), request)
                except (OSError, KeyError, ValueError) as exc:
                    found = [f"{request[0]}: unreadable output ({type(exc).__name__}: {exc})"]
                problems += [f"{scenario.name}: {p}" for p in found]
    finally:
        client.close()
        shutil.rmtree(work, ignore_errors=True)
    for line in client.errors[:10] + problems[:20]:
        print(line, file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
