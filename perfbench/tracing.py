"""Span tracing for the benchmark's traced run.

Library functions are wrapped from outside: each wrapper is bound in place
of the name in the module that looks it up at call time (for example
``accountant.rdp_upper``, which ``total_privacy`` calls), so nothing under
``src/`` changes.  A span records its name, start, end, parent and thread.
Spans are kept in memory in flat integer columns and written out once, when
the run ends.  A span opened on a thread with no open span (a worker of the
CLI's thread pool) takes the benchmark's current operation as its parent.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array

import numpy as np


#: Span of one `compare` operation, opened by the benchmark around cli.main.
CLI_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in ("id", "parent", "name", "start", "end", "thread")}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root = 0  # span id of the operation in progress, 0 outside one
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called ``name``."""
        return self._call(name, False, fn, args, kwargs)

    def operation(self, name: str, fn, *args):
        """Like span, and the span adopts spans opened on other threads."""
        return self._call(name, True, fn, args, {})

    def _call(self, name, is_root, fn, args, kwargs):
        name_id = self._name_id(name)
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        span_id = next(self._ids)
        stack.append(span_id)
        if is_root:
            self.root = span_id
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if is_root:
                self.root = 0
            cols = self.cols
            cols["id"].append(span_id)
            cols["parent"].append(parent)
            cols["name"].append(name_id)
            cols["start"].append(start)
            cols["end"].append(end)
            cols["thread"].append(threading.get_native_id())

    def wrap(self, owner, attr: str, name: str) -> None:
        """Rebind ``owner.attr`` to a traced wrapper; skipped if absent."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def table(self) -> dict[str, np.ndarray]:
        return {c: np.frombuffer(v, dtype=np.int64).copy() for c, v in self.cols.items()}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.table())


def install(tracer: Tracer, srdp) -> None:
    """Wrap the public functions of every timed layer of ``shuffle_rdp``."""
    from shuffle_rdp import accountant, bounds, cli, sgd

    for owner, attr, name in (
        (srdp, "total_privacy", "accountant.total_privacy"),
        (srdp, "baseline_total", "baselines.baseline_total"),
        (srdp, "run", "sgd.run"),
        (accountant, "rdp_upper", "bounds.rdp_upper"),
        (bounds, "binom_central_moment_signed", "logspace.central_moment"),
        (cli, "total_privacy", "accountant.total_privacy"),
        (cli, "minimize_over_orders", "accountant.minimize_over_orders"),
        (cli, "baseline_total", "baselines.baseline_total"),
        (cli, "rdp_lower", "bounds.rdp_lower"),
        (sgd, "total_privacy", "accountant.total_privacy"),
        (sgd, "aggregate_round", "sgd.aggregate_round"),
        (sgd, "clip_batch", "mechanisms.clip_batch"),
        (sgd, "vec_randomize_batch", "mechanisms.vec_randomize_batch"),
        (sgd.ConvexProblem, "objective", "sgd.objective"),
        (sgd, "solve_optimum", "sgd.solve_optimum"),
        (sgd, "project", "sgd.project"),
    ):
        tracer.wrap(owner, attr, name)


def _union_ns(starts: np.ndarray, ends: np.ndarray) -> int:
    """Length of the union of the intervals [starts[i], ends[i])."""
    total, reach = 0, None
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        lo = s if reach is None else max(s, reach)
        if e > lo:
            total += e - lo
            reach = e
    return total


def self_ns(tab: dict[str, np.ndarray]) -> np.ndarray:
    """Per span: its duration minus the part its child spans cover."""
    dur = tab["end"] - tab["start"]
    out = dur.copy()
    parent = tab["parent"]
    if not parent.size:
        return out
    index = {int(s): i for i, s in enumerate(tab["id"].tolist())}
    order = np.argsort(parent, kind="stable")
    p_sorted = parent[order]
    cuts = np.flatnonzero(np.diff(p_sorted)) + 1
    for group in np.split(order, cuts):
        p = int(parent[group[0]])
        if p in index:
            out[index[p]] -= _union_ns(tab["start"][group], tab["end"][group])
    return out


def layer_metrics(tracer: Tracer, ops: int, rounds: int, wall_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run: per operation, or per SGD
    round where the unit says so.  A layer off the workload's path reads 0."""
    tab = tracer.table()
    names = np.array(tracer.names, dtype=object)
    name_of = names[tab["name"]] if tab["id"].size else np.array([], dtype=object)
    dur = (tab["end"] - tab["start"]) / 1e6
    selfs = self_ns(tab) / 1e6
    id_to_name = dict(zip(tab["id"].tolist(), name_of.tolist()))
    parent_of = np.array([id_to_name.get(p, "") for p in tab["parent"].tolist()], dtype=object)

    def count(name):
        return int((name_of == name).sum())

    def total(arr, *names_):
        return float(arr[np.isin(name_of, names_)].sum())

    cli_wall = total(dur, CLI_SPAN)
    solves = count("sgd.solve_optimum")
    solve_iters = int(((name_of == "sgd.project") & (parent_of == "sgd.solve_optimum")).sum())
    per_round = (lambda v: v / rounds) if rounds else (lambda v: 0.0)
    return {
        "traced.ops_per_s": (ops / wall_s, "1/s"),
        "bounds.rdp_upper.calls": (count("bounds.rdp_upper") / ops, "count"),
        "bounds.rdp_upper.ms": (total(dur, "bounds.rdp_upper") / ops, "ms"),
        "accountant.self_ms": (
            total(selfs, "accountant.total_privacy", "accountant.minimize_over_orders") / ops, "ms"),
        "baselines.baseline_total.ms": (total(dur, "baselines.baseline_total") / ops, "ms"),
        "bounds.rdp_lower.calls": (count("bounds.rdp_lower") / ops, "count"),
        "bounds.rdp_lower.ms": (total(dur, "bounds.rdp_lower") / ops, "ms"),
        "logspace.central_moment.calls": (count("logspace.central_moment") / ops, "count"),
        "logspace.central_moment.ms": (total(dur, "logspace.central_moment") / ops, "ms"),
        "cli.self_ms": (total(selfs, CLI_SPAN) / ops, "ms"),
        "cli.compare.overlap": (
            float(dur[parent_of == CLI_SPAN].sum()) / cli_wall if cli_wall else 0.0, "ratio"),
        "sgd.aggregate_round.self_ms": (per_round(total(selfs, "sgd.aggregate_round")), "ms/round"),
        "mechanisms.vec_randomize_batch.ms": (
            per_round(total(dur, "mechanisms.vec_randomize_batch")), "ms/round"),
        "mechanisms.clip_batch.ms": (per_round(total(dur, "mechanisms.clip_batch")), "ms/round"),
        "sgd.objective.ms": (total(dur, "sgd.objective") / ops, "ms"),
        "sgd.run.self_ms": (total(selfs, "sgd.run") / ops, "ms"),
        "accountant.total_privacy.ms": (total(dur, "accountant.total_privacy") / ops, "ms"),
        "sgd.solve_optimum.ms": (total(dur, "sgd.solve_optimum") / solves if solves else 0.0, "ms"),
        "sgd.solve_optimum.iters": (solve_iters / solves if solves else 0.0, "count"),
    }
