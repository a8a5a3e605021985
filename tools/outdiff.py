"""Compare the output files of two tdho source trees on one request set.

    python3 tools/outdiff.py OLD_SRC NEW_SRC [--seeds 101 2001] [--count 24] [--work DIR]

OLD_SRC and NEW_SRC are directories that hold the ``tdho`` package (a
checkout's ``src``); they may be the same tree.  The request set is the
shipped scenarios, with every subcommand as CI runs them, and the first
``--count`` scenarios of every benchmark workload at each seed, drawn and
laid out by ``perfbench/workloads.py`` (imported, never changed).  Each
tree replays the whole set in its own interpreter, in process through
``tdho.cli.main``, every request writing to its own directory.

The report compares the two replays request by request and file by file:
exit codes, standard output and error (with the output directory masked),
byte-identical files, files written by one tree only, the largest absolute
change per CSV column and per JSON key path (list indices folded to ``[]``;
file names with their numbers folded to ``*``), values that are not
numbers, changed structure (a renamed, missing or reordered column or key,
a changed row count or list length), and every ``passed`` flag that flips.
The last line of output is the summary as one JSON object.  The exit
status is 0 when nothing changed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = "results.json"


# ---------------------------------------------------------------- requests
def _shipped_requests(work: Path) -> list:
    """Every subcommand on each shipped scenario, as the CI step runs them."""
    requests = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))
        grid = raw["time_grid"]
        mid = repr((grid["t_start"] + grid["t_end"]) / 2)
        last = str(len(raw["states"]) - 1)
        commands = [["evolve"], ["moments"], ["verify"]]
        commands.append(["wavefunction", "--state-index", last, "--t", mid])
        if raw["profile"]["kind"] == "static":
            commands.append(["static-compare"])
        copy = work / "scenarios" / "shipped" / path.name
        copy.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, copy)
        requests += [_request(f"shipped/{path.stem}/{i}-{c[0]}", c, copy) for i, c in enumerate(commands)]
    return requests


def _workload_requests(work: Path, seeds, count: int) -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    requests = []
    for name in workloads.WORKLOADS:
        for seed in seeds:
            group = work / f"{name}-{seed}"
            for sc in workloads.generate(name, seed, count):
                workloads.write(sc, group)
                out = str(sc.out_dir(group))
                for i, command in enumerate(sc.requests):
                    argv = workloads.argv(sc, command, group)
                    requests.append({
                        "id": f"{group.name}/{sc.name}/{i}-{command[0]}",
                        "argv": ["{out}" if a == out else a for a in argv],
                    })
    return requests


def _request(rid: str, command: list, scenario: Path) -> dict:
    return {"id": rid, "argv": [command[0], str(scenario), "--out", "{out}", *command[1:]]}


# ---------------------------------------------------------------- replay
def replay(requests_file: str, out_root: str) -> int:
    """Run every request through tdho.cli.main of the tree on PYTHONPATH."""
    import tdho.cli

    out_root = Path(out_root)
    results = {"tdho": str(Path(tdho.__file__).resolve().parent), "requests": {}}
    for req in json.loads(Path(requests_file).read_text(encoding="utf-8")):
        out = str(out_root / req["id"])
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = tdho.cli.main([a.replace("{out}", out) for a in req["argv"]])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a result to compare, not a dead replay
            code = f"{type(exc).__name__}: {exc}"
        results["requests"][req["id"]] = {
            "code": code,
            "stdout": stdout.getvalue().replace(out, "{out}"),
            "stderr": stderr.getvalue().replace(out, "{out}"),
        }
    (out_root / RESULTS).write_text(json.dumps(results), encoding="utf-8")
    return 0


def _run_tree(src: Path, requests_file: Path, out_root: Path) -> dict:
    out_root.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--replay", str(requests_file), str(out_root)]
    subprocess.run(cmd, env=env, check=True)
    results = json.loads((out_root / RESULTS).read_text(encoding="utf-8"))
    if Path(results["tdho"]) != (src / "tdho").resolve():
        raise SystemExit(f"error: {src} did not provide tdho (imported {results['tdho']})")
    return results["requests"]


# ---------------------------------------------------------------- compare
class Report:
    def __init__(self):
        self.largest: dict = {}  # "file kind: column or key path" -> largest |change|
        self.changed_values: dict = {}  # same keys -> number of changed values
        self.structure: list = []
        self.flips: list = []

    def value(self, key: str, old, new, where: str) -> None:
        if isinstance(old, bool) or isinstance(new, bool) or not _is_number(old) or not _is_number(new):
            if old != new:
                self.changed_values[key] = self.changed_values.get(key, 0) + 1
                self.largest.setdefault(key, None)
                if key.endswith("passed") and isinstance(old, bool) and isinstance(new, bool):
                    self.flips.append(f"{where}: {old} -> {new}")
            return
        if old == new or (math.isnan(old) and math.isnan(new)):
            return
        change = abs(new - old) if math.isfinite(new - old) else math.inf
        self.changed_values[key] = self.changed_values.get(key, 0) + 1
        self.largest[key] = max(self.largest.get(key) or 0.0, change)


def _is_number(value) -> bool:
    return isinstance(value, (int, float))


def _kind(rel: str) -> str:
    """A file's name with its numbers folded, so that like files pool."""
    name = rel.rsplit("/", 1)[-1]
    return re.sub(r"_[-+0-9.e]+(?=_|\.csv$|\.json$)", "_*", name)


def _compare_csv(rel: str, old: str, new: str, report: Report) -> None:
    kind = _kind(rel)
    split = [old.splitlines(), new.splitlines()]
    notes = [[line for line in lines if line.startswith("#")] for lines in split]
    for a, b in zip(*notes):
        key_a, _, value_a = a[1:].strip().partition("=")
        key_b, _, value_b = b[1:].strip().partition("=")
        if key_a != key_b:
            report.structure.append(f"{rel}: comment '{a}' became '{b}'")
        else:
            report.value(f"{kind}: #{key_a}", _number(value_a), _number(value_b), rel)
    if len(notes[0]) != len(notes[1]):
        report.structure.append(f"{rel}: {len(notes[0])} -> {len(notes[1])} comment lines")
    body = [[line.split(",") for line in lines if not line.startswith("#")] for lines in split]
    (head_a, *rows_a), (head_b, *rows_b) = body
    if head_a != head_b:
        report.structure.append(f"{rel}: columns {head_a} -> {head_b}")
        return
    if len(rows_a) != len(rows_b):
        report.structure.append(f"{rel}: {len(rows_a)} -> {len(rows_b)} rows")
    for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        for column, a, b in zip(head_a, row_a, row_b):
            report.value(f"{kind}: {column}", _number(a), _number(b), f"{rel} row {i}")


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _compare_json(old, new, generic: str, where: str, report: Report, kind: str) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            report.structure.append(f"{where}: keys {list(old)} -> {list(new)}")
        for key in old.keys() & new.keys():
            _compare_json(old[key], new[key], f"{generic}.{key}", f"{where}.{key}", report, kind)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            report.structure.append(f"{where}: length {len(old)} -> {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            _compare_json(a, b, f"{generic}[]", f"{where}[{i}]", report, kind)
    elif isinstance(old, (dict, list)) or isinstance(new, (dict, list)):
        report.structure.append(f"{where}: {type(old).__name__} -> {type(new).__name__}")
    else:
        report.value(f"{kind}: {generic.lstrip('.')}", old, new, where)


def _files(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != RESULTS
    }


def compare(old_root: Path, new_root: Path, old: dict, new: dict) -> dict:
    report = Report()
    codes, streams = [], []
    for rid in old:
        a, b = old[rid], new[rid]
        if a["code"] != b["code"]:
            codes.append(f"{rid}: exit {a['code']} -> {b['code']}")
        for stream in ("stdout", "stderr"):
            if a[stream] != b[stream]:
                lines = itertools.zip_longest(a[stream].splitlines(), b[stream].splitlines())
                first = next(((i, p) for i, p in enumerate(lines) if p[0] != p[1]), None)
                if first is None:
                    streams.append(f"{rid}: {stream} line endings differ")
                else:
                    i, (line_a, line_b) = first
                    streams.append(f"{rid}: {stream} line {i + 1}: {line_a!r} -> {line_b!r}")
    files_a, files_b = _files(old_root), _files(new_root)
    identical = 0
    for rel in sorted(files_a.keys() & files_b.keys()):
        data_a, data_b = files_a[rel].read_bytes(), files_b[rel].read_bytes()
        if data_a == data_b:
            identical += 1
        elif rel.endswith(".csv"):
            _compare_csv(rel, data_a.decode(), data_b.decode(), report)
        elif rel.endswith(".json"):
            _compare_json(json.loads(data_a), json.loads(data_b), "", rel, report, _kind(rel))
        else:
            report.structure.append(f"{rel}: bytes differ")
    compared = len(files_a.keys() & files_b.keys())
    summary = {
        "requests": len(old),
        "files": len(files_a.keys() | files_b.keys()),
        "identical_files": identical,
        "changed_files": compared - identical,
        "only_old": sorted(files_a.keys() - files_b.keys()),
        "only_new": sorted(files_b.keys() - files_a.keys()),
        "exit_code_changes": codes,
        "stream_changes": streams,
        "largest_change": {k: report.largest[k] for k in sorted(report.largest)},
        "changed_values": {k: report.changed_values[k] for k in sorted(report.changed_values)},
        "structure_changes": report.structure,
        "passed_flips": report.flips,
    }
    summary["unchanged"] = not (
        summary["changed_files"]
        or summary["only_old"]
        or summary["only_new"]
        or codes
        or streams
    )
    return summary


def _print(summary: dict) -> None:
    print(
        f"{summary['requests']} requests, {summary['files']} files: "
        f"{summary['identical_files']} byte-identical, {summary['changed_files']} changed, "
        f"{len(summary['only_old'])} only in old, {len(summary['only_new'])} only in new"
    )
    for key, largest in summary["largest_change"].items():
        shown = "not a number" if largest is None else f"{largest:.3g}"
        print(f"  {key}: {summary['changed_values'][key]} values changed, largest {shown}")
    for title in ("exit_code_changes", "passed_flips", "structure_changes", "stream_changes"):
        for line in summary[title][:20]:
            print(f"  {title}: {line}")
    print(json.dumps(summary))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--replay"]:
        return replay(*argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="*", default=[101, 2001])
    parser.add_argument("--count", type=int, default=24, help="scenarios per workload and seed")
    parser.add_argument("--work", type=Path, help="kept working directory (default: a temporary one)")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "tdho" / "cli.py").is_file():
            parser.error(f"{src} holds no tdho package")
    work = args.work or Path(tempfile.mkdtemp(prefix="outdiff-"))
    try:
        requests = _shipped_requests(work)
        requests += _workload_requests(work, args.seeds, args.count)
        requests_file = work / "requests.json"
        requests_file.write_text(json.dumps(requests), encoding="utf-8")
        old = _run_tree(args.old_src.resolve(), requests_file, work / "old")
        new = _run_tree(args.new_src.resolve(), requests_file, work / "new")
        summary = compare(work / "old", work / "new", old, new)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    _print(summary)
    return 0 if summary["unchanged"] else 1


if __name__ == "__main__":
    sys.exit(main())
