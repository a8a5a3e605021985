"""Per-layer tracing of the tdho package from outside it.

The tracer replaces each traced public function of the package, under
every module attribute that refers to it, with a wrapper that records a
span: its name, its parent span, and its start and end times.  Because the
package's modules call one another through module-level names
(``tdho.cli.evolve_mode``, ``tdho.verification.evolve_mode``,
``tdho.mode_solver.evaluate_profile``, ``tdho.io.write_json`` ...), patching
those names catches every call without changing the package.  Private
helpers are not wrapped; their time counts towards their public caller.

Spans are kept in compact arrays for one round of requests and reduced to
per-function call counts, total time and self time when the round ends.
Self time is a span's duration minus the durations of its child spans:
the program is single-threaded, so children never overlap one another.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, function) pairs the tracer wraps, each reported as a per-layer
# self time; the span name is "<layer>.<function>" with the leading
# underscore of _numerics dropped, because metric names must start with a
# letter.  Functions not listed count towards their traced caller.
TRACED = (
    ("cli", "main"),
    ("cli", "load_scenario"),
    ("profiles", "evaluate_profile"),
    ("mode_solver", "evolve_mode"),
    ("mode_solver", "wkb_mode"),
    ("mode_solver", "apply_squeeze"),
    ("mode_solver", "polar_decompose"),
    ("states", "dsn_wavefunction"),
    ("states", "weighted_hermite"),
    ("states", "spatial_grid"),
    ("observables", "quadrature_moments"),
    ("observables", "analytic_moments"),
    ("observables", "inner_product"),
    ("_numerics", "derivative"),
    ("_numerics", "second_derivative"),
    ("verification", "schrodinger_residual"),
    ("verification", "classical_equation_residual"),
    ("verification", "crosscheck_static"),
    ("verification", "nieto_time_identity_residuals"),
    ("io", "write_json"),
    ("io", "write_trajectory_csv"),
    ("io", "write_wavefunction_csv"),
)


def span_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


def self_times(names, parents, starts, ends) -> dict:
    """Reduce one set of spans to {name: [calls, total_s, self_s]}.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    parents = np.asarray(parents, dtype=np.int64)
    duration = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    covered = np.zeros(duration.size)
    nested = parents >= 0
    np.add.at(covered, parents[nested], duration[nested])
    own = duration - covered
    out: dict = {}
    for i, name in enumerate(names):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += float(duration[i])
        entry[2] += float(own[i])
    return out


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Span recorder and exact counters for one round of requests at a time."""

    def __init__(self):
        self.names: list = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list = []
        self.counts: dict = {}
        self.solve_keys: set = set()
        self.reset()

    def reset(self):
        """Forget the spans and counts of the previous round.  The
        containers are cleared in place: installed wrappers hold them."""
        del self.names[:], self.parents[:], self.starts[:], self.ends[:]
        self.stack.clear()
        self.counts.update(grid_points=0, hermite_steps=0, stencil_points=0, bytes_written=0)
        self.solve_keys.clear()

    # ---------------------------------------------------------- recording
    def wrap(self, name: str, fn, count=None):
        sig = inspect.signature(fn) if count is not None else None
        names, parents = self.names, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every attribute of the tdho modules that refers to a
        traced function; restore the originals on exit."""
        counters = {
            "evolve_mode": _count_solve,
            "dsn_wavefunction": lambda t, a: _add(t, "grid_points", np.size(a["x"])),
            "weighted_hermite": lambda t, a: _add(t, "hermite_steps", int(a["n"]) * np.size(a["xi"])),
            "derivative": lambda t, a: _add(t, "stencil_points", np.size(a["values"])),
            "second_derivative": lambda t, a: _add(t, "stencil_points", np.size(a["values"])),
            "write_json": lambda t, a: _add(t, "bytes_written", _size(a["path"])),
            "write_trajectory_csv": lambda t, a: _add(t, "bytes_written", _size(a["path"])),
            "write_wavefunction_csv": lambda t, a: _add(t, "bytes_written", _size(a["path"])),
        }
        modules = [m for k, m in list(sys.modules.items()) if k == "tdho" or k.startswith("tdho.")]
        originals = [getattr(sys.modules[f"tdho.{module}"], fn) for module, fn in TRACED]
        # keyed by id: module namespaces also hold unhashable values
        wrappers = {
            id(original): self.wrap(span_name(module, fn), original, counters.get(fn))
            for (module, fn), original in zip(TRACED, originals)
        }
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    # ---------------------------------------------------------- reduction
    def round_metrics(self) -> dict:
        """Per-function [calls, total_s, self_s], the exact counters, the
        evaluate_profile calls made inside evolve_mode, and distinct solves."""
        per_fn = self_times(self.names, self.parents, self.starts, self.ends)
        inside_solve = sum(
            1
            for i, name in enumerate(self.names)
            if name == "profiles.evaluate_profile"
            and self.parents[i] >= 0
            and self.names[self.parents[i]] == "mode_solver.evolve_mode"
        )
        return {
            "functions": per_fn,
            "counts": dict(self.counts),
            "rhs_evals": inside_solve,
            "distinct_solves": len(self.solve_keys),
        }


def _add(tracer: Tracer, key: str, amount) -> None:
    tracer.counts[key] += int(amount)


def _count_solve(tracer: Tracer, args: dict) -> None:
    """Key a solve by (profile, initial point, time grid, tolerances)."""
    initial = args["initial"]
    digest = hashlib.sha256()
    digest.update(json.dumps(args["profile"].to_dict(), sort_keys=True).encode())
    digest.update(repr((initial.t, initial.u, initial.u_dot, initial.mass)).encode())
    digest.update(np.ascontiguousarray(args["t_grid"], dtype=float).tobytes())
    digest.update(repr((args["rel_tol"], args["abs_tol"])).encode())
    tracer.solve_keys.add(digest.hexdigest())
