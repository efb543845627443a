"""Per-layer timings, written to ``BENCH_<pr>.json`` at the repository root.

    python tools/bench_layers.py 12                       # this checkout only
    python tools/bench_layers.py 12 --parent ../parent    # plus a parent column and ratios

Rows, each the median over every repeat, in milliseconds:

* the CLDP-SGD round: ``run`` on a least-squares problem with n = 1000,
  k = 100, T = 200 and ``record_every`` = 100, per round, at d = 10, 50
  and 1000 (building the problem is not timed);
* an operation shaped like the benchmark's ``sgd`` workload: ``run`` on a
  logistic problem with n = 1000, d = 50, k = 100, T = SGD_OP_ROUNDS and
  the default ``record_every``, so every round's objective is recorded,
  per run over SGD_OP_RUNS runs of distinct seeds;
* the set-up of one round's random stream, per stream over the
  2 SGD_OP_ROUNDS streams (cohort and randomizer) of one such run: the
  per-run derivation where the tree has ``sgd._round_streams``, else one
  ``sgd._round_rng`` per stream;
* the headline ``total_privacy`` (eps0 = 2, n = 1e6, k = 1e3, T = 1e5,
  delta = 1e-8), per call over a loop of BLOCK_CALLS calls;
* ``total_privacy`` per call over the points of the benchmark's query box
  (``perfbench/workloads.py``, seed 1, QUERY_POINTS points) whose argmin
  lies past order 33, where the order search reads past its first block;
* the benchmark's ``query`` operation, ``total_privacy`` plus
  ``baseline_total``, per point over all QUERY_POINTS of those points;
* the layer that checks a query's arguments: ``SubsampledShuffleParams``
  and ``AccountantConfig`` built from the point's numbers, then
  ``baseline_total``, per point over the same QUERY_POINTS points;
* the headline's order search outside ``rdp_upper``: ``minimize_over_orders``
  with the bound's values looked up, per call over a loop of BLOCK_CALLS
  calls;
* a ``compare`` shaped like the benchmark's ``sweep`` operation, called in
  process: ``--axis T --values 10000,100000,1000000 --lambda-max 2048`` at
  the headline point;
* ``rdp_lower`` over orders 2..2048 in one call, at gamma = 1e-3 and
  eps0 = 2, for k = 1e3 and k = 1e4 (the warm-up builds the per-mechanism
  set-up, so the timed calls measure the sums over orders);
* the same ``compare`` at the lower bound's ceiling k = 1e6, n = 1e9,
  cold: the lower bound's per-mechanism caches are cleared before each
  run, as the set-up is most of it;
* ``rdp_upper`` at the headline point, per call over a loop of calls:
  orders 2..33 and 34..65, the first two full blocks an order scan can
  ask for (BLOCK_CALLS calls each), orders 400..499, the block the
  search reads from order 400 (DEEP_CALLS calls), and orders 4000..4096,
  the deepest block (one call); and over orders 2..2048 in one call;
* ``logspace.binom_log_pmf`` at eps0 = 2, uncached, for k = 1e3 (per call
  over a loop of BLOCK_CALLS calls) and k = 1e6, the lower bound's
  per-mechanism set-up;
* start-up, each in a fresh process: ``import shuffle_rdp`` with numpy
  already loaded (as the benchmark's runner loads it), and the command
  ``shuffle-rdp bound`` at the headline point with ``--lambda-max 64``,
  end to end, as ``python -m shuffle_rdp`` run from the shell.

Rows in counts, not times:

* the calls, the orders, the upper bound's grid cells (the size of every
  (term x order) grid it sums) and its product calls (one fixed-size
  product with the exact-binomial table for orders up to 65; none in
  trees without it) that ``total_privacy``'s order search evaluates per
  query, averaged over QUERY_POINTS points of the benchmark's query box
  (seed 1), and over SGD_POINTS points of its ``sgd`` box (n = 1000,
  k = 100, eps0 in [1.5, 2.5], T in [25, 100], delta = 1e-8 as
  ``SgdConfig``'s default);
* the calls and the orders that each bound computes in the two
  ``compare`` runs above.

Rows in MB: the tracemalloc peak of ``binom_log_pmf`` at k = 1e6, and the
peak RSS of the process that imported ``shuffle_rdp`` (median).

A row whose call fails in one tree (a ``compare`` that a parent's k ceiling
refuses) reads null there.

Every measurement runs in one child process.  It imports the package of
each tree under its own name (``shuffle_rdp_change``, and with
``--parent`` also ``shuffle_rdp_parent``; the package's imports are
relative, so a tree imports under any name), warms every row up once per
tree, then times each row PAIRS times per tree, the trees alternating
call by call and the first of each pair alternating too, so that a drift
of the host's speed falls on both columns alike.  Each row records the
median time per tree and, with ``--parent``, the median and quartiles of
the PAIRS ratios change / parent.  The start-up rows take STARTUP_REPEATS
fresh processes per tree, the two trees alternating within each repeat.
The file records the machine: CPU count, Python and numpy versions.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 15

SGD_DIMS = (10, 50, 1000)
SGD_ROUNDS = 200
SGD_OP_ROUNDS = 60
SGD_OP_RUNS = 10  # a run takes about 10 ms: time a loop of runs
HEADLINE = {"n": 10**6, "k": 1000, "eps0": 2.0, "T": 10**5, "delta": 1e-8}
SWEEP_ARGV = [
    "compare", "--axis", "T", "--values", "10000,100000,1000000", "--lambda-max", "2048",
    "--eps0", "2", "--k", "1000", "--n", "1000000", "--delta", "1e-8",
]
CEILING_ARGV = [
    "compare", "--axis", "T", "--values", "10000,100000,1000000",
    "--eps0", "2", "--k", "1000000", "--n", "1000000000", "--delta", "1e-8",
]
LOWER_KS = (10**3, 10**4)
BLOCK_CALLS = 200  # a block or a headline query takes 0.1-0.3 ms: time a loop of calls
DEEP_CALLS = 20  # orders 400..499 take about 1 ms
UPPER_BLOCKS = {
    range(2, 34): BLOCK_CALLS, range(34, 66): BLOCK_CALLS, range(400, 500): DEEP_CALLS,
    range(4000, 4097): 1,
}
QUERY_POINTS = 3000
SGD_POINTS = 300
DEEP_ORDER = 33  # the last order of the search's first block
COLD_ROW = "compare, k=1e6, n=1e9, in process"  # timed with the lower bound's caches empty
PMF_KS = (10**3, 10**6)
PMF_P = 1.0 / (math.exp(2.0) + 1.0)  # eps0 = 2
PMF_PEAK_ROW = f"binom_log_pmf, k={PMF_KS[-1]}, eps0=2, tracemalloc peak"
STARTUP_REPEATS = 15
IMPORT_ROW = "import shuffle_rdp, numpy loaded, fresh process"
IMPORT_RSS_ROW = "import shuffle_rdp, peak RSS of the process"
BOUND_ROW = "shuffle-rdp bound --lambda-max 64, headline, end to end"
BOUND_ARGV = ["bound", "--eps0", "2", "--k", "1000", "--n", "1000000", "--lambda-max", "64"]
IMPORT_CODE = (
    "import resource, time, numpy\n"
    "t0 = time.perf_counter()\n"
    "import shuffle_rdp\n"
    "print((time.perf_counter() - t0) * 1e3, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"
)


def _workload_inputs(name: str, n_ops: int) -> list:
    """(n, k, eps0, T, delta) of each total_privacy that n_ops seed-1
    operations of the benchmark's ``query`` or ``sgd`` workload make."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = []
    for p in workload.inputs(1, n_ops, ROOT):
        n, delta = (p["n"], p["delta"]) if name == "query" else (workload.n, 1e-8)
        inputs.append((n, p["k"], p["eps0"], p["T"], delta))
    return inputs


def _workload_points(srdp, name: str, n_ops: int) -> list:
    """The (params, AccountantConfig) of each of _workload_inputs."""
    return [
        (srdp.SubsampledShuffleParams(n=n, k=k, eps0=eps0), srdp.AccountantConfig(T=T, delta=delta))
        for n, k, eps0, T, delta in _workload_inputs(name, n_ops)
    ]


def _load(src: Path, name: str):
    """The shuffle_rdp package under ``src``, imported as ``name``."""
    package = Path(src) / "shuffle_rdp"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _sub(srdp, name: str):
    """The submodule ``name`` of the package ``srdp``."""
    return importlib.import_module(f"{srdp.__name__}.{name}")


def _clear_lower_caches(srdp):
    """Empty the lower bound's per-mechanism caches (older trees may lack one)."""
    bounds, logspace = _sub(srdp, "bounds"), _sub(srdp, "logspace")
    for cached in (getattr(bounds, "_lower_terms", None), getattr(logspace, "binom_log_pmf", None)):
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


def _cases(srdp, cli, tmp: Path) -> dict:
    """Row name -> (callable, divisor of its time)."""
    cases = {}
    for d in SGD_DIMS:
        prob = srdp.least_squares_problem(n=1000, d=d, seed=7)
        cfg = srdp.SgdConfig(
            T=SGD_ROUNDS, k=100, eps0=2.0, clip_radius=prob.lipschitz, seed=1, record_every=100
        )
        cases[f"sgd.run per round, k=100, d={d}"] = (lambda p=prob, c=cfg: srdp.run(p, c), SGD_ROUNDS)
    prob = srdp.logistic_problem(n=1000, d=50, seed=7)
    cfgs = [
        srdp.SgdConfig(T=SGD_OP_ROUNDS, k=100, eps0=2.0, clip_radius=prob.lipschitz, seed=seed)
        for seed in range(SGD_OP_RUNS)
    ]
    cases[f"sgd op (run), logistic, n=1000, d=50, k=100, T={SGD_OP_ROUNDS}"] = (
        lambda: [srdp.run(prob, cfg) for cfg in cfgs], SGD_OP_RUNS
    )
    cases[f"round stream set-up, per stream, T={SGD_OP_ROUNDS}"] = (
        _stream_setup(srdp), 2 * SGD_OP_ROUNDS
    )
    params = srdp.SubsampledShuffleParams(n=HEADLINE["n"], k=HEADLINE["k"], eps0=HEADLINE["eps0"])
    acct = srdp.AccountantConfig(T=HEADLINE["T"], delta=HEADLINE["delta"])
    cases["total_privacy, headline"] = (
        lambda: [srdp.total_privacy(params, acct) for _ in range(BLOCK_CALLS)], BLOCK_CALLS
    )
    deep = [
        (p, c) for p, c in _workload_points(srdp, "query", QUERY_POINTS)
        if srdp.total_privacy(p, c).argmin_lambda > DEEP_ORDER
    ]
    cases[f"total_privacy, query box, argmin past {DEEP_ORDER}"] = (
        lambda: [srdp.total_privacy(p, c) for p, c in deep], len(deep)
    )
    points = _workload_points(srdp, "query", QUERY_POINTS)
    cases["query op (total_privacy + baseline_total), query box"] = (
        lambda: [
            (srdp.total_privacy(p, c), srdp.baseline_total(p, c.T, c.delta)) for p, c in points
        ],
        len(points),
    )
    inputs = _workload_inputs("query", QUERY_POINTS)

    def checked():
        for n, k, eps0, T, delta in inputs:
            cfg = srdp.AccountantConfig(T=T, delta=delta)
            srdp.baseline_total(srdp.SubsampledShuffleParams(n=n, k=k, eps0=eps0), cfg.T, cfg.delta)

    cases["argument checks (SubsampledShuffleParams + AccountantConfig + baseline_total), query box"] = (
        checked, len(inputs)
    )
    cases["minimize_over_orders, headline, outside rdp_upper"] = (
        _search_alone(srdp, params, acct), BLOCK_CALLS
    )

    def compare(argv):
        if cli.main([*argv, "--out", str(tmp / "compare")]) != 0:
            raise RuntimeError("compare failed")

    cases["compare, sweep-shaped, in process"] = (lambda: compare(SWEEP_ARGV), 1)
    orders = list(range(2, 2049))
    for k in LOWER_KS:
        p = srdp.SubsampledShuffleParams(n=1000 * k, k=k, eps0=2.0)
        cases[f"rdp_lower, orders 2..2048, k={k}, gamma=1e-3"] = (
            lambda p=p: srdp.rdp_lower(orders, p), 1
        )
    cases[COLD_ROW] = (lambda: compare(CEILING_ARGV), 1)
    for block, calls in UPPER_BLOCKS.items():
        cases[f"rdp_upper, orders {block[0]}..{block[-1]}, headline"] = (
            lambda b=block, calls=calls: [srdp.rdp_upper(b, params) for _ in range(calls)], calls
        )
    cases["rdp_upper, orders 2..2048, headline"] = (lambda: srdp.rdp_upper(orders, params), 1)
    pmf = _uncached_pmf(srdp)
    for k in PMF_KS:
        calls = BLOCK_CALLS if k < 10**4 else 1
        cases[f"binom_log_pmf, k={k}, eps0=2, uncached"] = (
            lambda k=k, calls=calls: [pmf(k, PMF_P) for _ in range(calls)], calls
        )
    return cases


def _stream_setup(srdp):
    """The cohort and randomizer streams of SGD_OP_ROUNDS rounds, set up as
    the tree's run sets them up."""
    sgd = _sub(srdp, "sgd")
    if hasattr(sgd, "_round_streams"):
        return lambda: sum(1 for _ in sgd._round_streams(1, 1, SGD_OP_ROUNDS + 1))
    return lambda: [sgd._round_rng(1, t, p) for t in range(1, SGD_OP_ROUNDS + 1) for p in (0, 1)]


def _search_alone(srdp, params, acct):
    """BLOCK_CALLS of total_privacy's order search, each order block's
    rdp_upper values looked up from a first search."""
    accountant = _sub(srdp, "accountant")
    memo = {}

    def eps_fn(lam):
        key = lam if isinstance(lam, range) else tuple(np.asarray(lam).tolist())
        if key not in memo:
            memo[key] = accountant.rdp_upper(lam, params)
        return memo[key]

    floor = functools.partial(accountant.binomial_floor, params)
    search = accountant.minimize_over_orders
    return lambda: [
        search(eps_fn, acct.T, acct.delta, acct.lambda_max, floor) for _ in range(BLOCK_CALLS)
    ]


def _uncached_pmf(srdp):
    return _sub(srdp, "logspace").binom_log_pmf.__wrapped__


def _pmf_peak_mb(srdp) -> float:
    """tracemalloc peak of one uncached binom_log_pmf at the largest k, in MB."""
    pmf = _uncached_pmf(srdp)
    tracemalloc.start()
    try:
        pmf(PMF_KS[-1], PMF_P)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _search_counts(srdp, label: str, points: list) -> dict:
    """Calls, orders, upper-bound grid cells and product calls that
    total_privacy evaluates per query, over the (params, AccountantConfig)
    points.  The cells are those of every grid the upper bound passes to
    bounds._column_sums; the product calls are those of
    bounds._table_upper, where the tree has it."""
    accountant, bounds = _sub(srdp, "accountant"), _sub(srdp, "bounds")
    counts = dict.fromkeys(("calls", "orders", "cells", "products"), 0)

    def counting(fn, **sizes):
        def wrapped(*args):
            for key, size in sizes.items():
                counts[key] += size(*args)
            return fn(*args)
        return wrapped

    hooks = {
        (accountant, "rdp_upper"): dict(calls=lambda *_: 1, orders=lambda lam, _: np.atleast_1d(lam).size),
        (bounds, "_column_sums"): dict(cells=lambda grid: grid.size),
        (bounds, "_table_upper"): dict(products=lambda _: 1),
    }
    originals = {key: getattr(*key) for key in hooks if hasattr(*key)}
    for (module, name), fn in originals.items():
        setattr(module, name, counting(fn, **hooks[module, name]))
    try:
        for params, cfg in points:
            srdp.total_privacy(params, cfg)
    finally:
        for (module, name), fn in originals.items():
            setattr(module, name, fn)
    n = len(points)
    return {
        f"total_privacy, calls per query, {label}": counts["calls"] / n,
        f"total_privacy, orders per query, {label}": counts["orders"] / n,
        f"total_privacy, rdp_upper grid cells per query, {label}": counts["cells"] / n,
        f"total_privacy, rdp_upper product calls per query, {label}": counts["products"] / n,
    }


def _compare_counts(cli, tmp: Path) -> dict:
    """Calls and orders of each bound in the sweep-shaped compare and the
    compare at k = 1e6 (None where the tree refuses the run)."""
    counts = {}
    for label, argv in (("sweep-shaped", SWEEP_ARGV), ("k=1e6, n=1e9", CEILING_ARGV)):
        seen = {name: [0, 0] for name in ("rdp_upper", "rdp_lower")}
        originals = {name: getattr(cli, name) for name in seen}

        def counted(name):
            def fn(lam, params):
                seen[name][0] += 1
                seen[name][1] += np.atleast_1d(np.asarray(lam)).size
                return originals[name](lam, params)
            return fn

        for name in seen:
            setattr(cli, name, counted(name))
        try:
            ok = cli.main([*argv, "--out", str(tmp / "counts")]) == 0
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)
        for name, (n_calls, n_orders) in seen.items():
            counts[f"compare, {label}, {name} calls"] = n_calls if ok else None
            counts[f"compare, {label}, {name} orders"] = n_orders if ok else None
    return counts


def measure(sides: dict) -> dict:
    """Child process: PAIRS timings of every row per tree, in ms, the trees
    alternating call by call; their ratios change / parent; the counts."""
    trees = {side: _load(src, f"shuffle_rdp_{side}") for side, src in sides.items()}
    out = {side: {"ms": {}, "count": {}, "MB": {}} for side in trees}
    ratios = {}
    with tempfile.TemporaryDirectory() as tmp:
        cases = {side: _cases(srdp, _sub(srdp, "cli"), Path(tmp)) for side, srdp in trees.items()}
        for name in cases["change"]:
            runnable = {}
            for side, srdp in trees.items():
                fn, per = cases[side][name]
                try:
                    fn()
                except RuntimeError:
                    continue
                runnable[side] = (srdp, fn, per)
            times = {side: [] for side in trees}
            for r in range(PAIRS if runnable else 0):
                order = list(runnable) if r % 2 == 0 else list(reversed(runnable))
                for side in order:
                    srdp, fn, per = runnable[side]
                    if name == COLD_ROW:
                        _clear_lower_caches(srdp)
                    t0 = time.perf_counter()
                    fn()
                    times[side].append((time.perf_counter() - t0) * 1e3 / per)
            for side in trees:
                out[side]["ms"][name] = times[side]
            if len(runnable) == 2:
                ratios[name] = [c / p for c, p in zip(times["change"], times["parent"])]
        for side, srdp in trees.items():
            out[side]["count"] = _compare_counts(_sub(srdp, "cli"), Path(tmp))
    for side, srdp in trees.items():
        for label, name, n_ops in (("query box", "query", QUERY_POINTS), ("sgd box", "sgd", SGD_POINTS)):
            out[side]["count"].update(_search_counts(srdp, label, _workload_points(srdp, name, n_ops)))
        out[side]["MB"] = {PMF_PEAK_ROW: _pmf_peak_mb(srdp)}
    return {"sides": out, "ratio": ratios}


def _child(sides: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", json.dumps({k: str(v) for k, v in sides.items()})],
        check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _startup(src: Path, tmp: str) -> tuple[dict, dict]:
    """Start-up times (ms) and the import's peak RSS (MB), each from a
    fresh process that imports the package from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], env=env, check=True, capture_output=True, text=True
    )
    import_ms, rss_mb = map(float, proc.stdout.split())
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "shuffle_rdp", *BOUND_ARGV, "--out", tmp],
        env=env, check=True, capture_output=True,
    )
    bound_ms = (time.perf_counter() - t0) * 1e3
    return {IMPORT_ROW: import_ms, BOUND_ROW: bound_ms}, {IMPORT_RSS_ROW: rss_mb}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pr", nargs="?", help="number in the output file name, BENCH_<pr>.json")
    ap.add_argument("--parent", type=Path, help="root of a parent checkout, for a second column")
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(json.loads(args.measure))))
        return 0
    if not args.pr:
        ap.error("the number for BENCH_<pr>.json is required")

    sides = {"change": ROOT / "src"}
    if args.parent:
        sides = {"parent": args.parent.resolve() / "src", **sides}
    child = _child(sides)
    samples = {side: dict(child["sides"][side]["ms"]) for side in sides}
    memory = {side: {name: [mb] for name, mb in child["sides"][side]["MB"].items()} for side in sides}
    counts = {side: child["sides"][side]["count"] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(STARTUP_REPEATS):
            for side in list(sides) if r % 2 == 0 else list(reversed(sides)):
                times, mbs = _startup(sides[side], tmp)
                for name, ms in times.items():
                    samples[side].setdefault(name, []).append(ms)
                for name, mb in mbs.items():
                    memory[side].setdefault(name, []).append(mb)

    rows = []
    for name in samples["change"]:
        row = {"case": name, "unit": "ms"}
        for side in sides:
            times = samples[side].get(name)
            row[side] = round(statistics.median(times), 4) if times else None
        ratio = child["ratio"].get(name)
        if ratio is None and name in (IMPORT_ROW, BOUND_ROW) and len(sides) == 2:
            ratio = [c / p for c, p in zip(samples["change"][name], samples["parent"][name])]
        if ratio:
            q1, _, q3 = statistics.quantiles(ratio, n=4)
            row.update(ratio=round(statistics.median(ratio), 3), ratio_q1=round(q1, 3), ratio_q3=round(q3, 3))
        row["repeats"] = len(samples["change"][name])
        rows.append(row)
    for name in memory["change"]:
        rows.append({"case": name, "unit": "MB", **{
            side: round(statistics.median(memory[side][name]), 2) for side in sides
        }})
    for name in counts["change"]:
        values = {side: counts[side].get(name) for side in sides}
        rows.append({"case": name, "unit": "count", **{
            side: None if v is None else round(v, 2) for side, v in values.items()
        }})
    payload = {
        "pr": args.pr,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "method": (
            f"one child process importing every tree under its own name; per row one warm-up, then"
            f" {PAIRS} timings per tree alternating call by call; ratio = median [quartiles] of"
            f" change / parent over the pairs; start-up rows: median over {STARTUP_REPEATS} fresh"
            f" processes per tree, alternating"
        ),
        "rows": rows,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(path.read_text(), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
