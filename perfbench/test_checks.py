"""Tests of the benchmark's own output checks: each passes on a real output
and fails on a perturbed one.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import references  # noqa: E402
import shuffle_rdp as srdp  # noqa: E402
from tracing import Tracer, layer_metrics, self_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def has(fails, text):
    return any(text in f for f in fails)


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=[(10**6, 1000), (10**7, 10**4)], ids=["degenerate", "amplified"])
def query_case(request):
    n, k = request.param
    p = {"n": n, "k": k, "eps0": 2.0, "T": 10**5, "delta": 1e-8}
    ours, base = WORKLOADS["query"].op(srdp, None, p)
    return (
        dict(p, lambda_max=srdp.AccountantConfig(T=1, delta=0.5).lambda_max),
        {"eps": ours.eps, "delta": ours.delta, "argmin_lambda": ours.argmin_lambda},
        {"eps": base.eps, "delta": base.delta, "degenerate": base.degenerate},
    )


def test_query_real_output_passes(query_case):
    assert references.check_query(*query_case) == []


def test_query_eps_off_by_1e7_fails(query_case):
    point, ours, base = query_case
    fails = references.check_query(point, dict(ours, eps=ours["eps"] * (1 + 1e-7)), base)
    assert has(fails, "mpmath reference")


def test_query_non_minimal_order_fails(query_case):
    point, ours, base = query_case
    lam = ours["argmin_lambda"] + 3
    [eps] = references.upper_objective([lam], point["T"], point["delta"], point["n"], point["k"], point["eps0"])
    fails = references.check_query(point, dict(ours, argmin_lambda=lam, eps=eps), base)
    assert fails == [f for f in fails if f.startswith("order")] and has(fails, f"order {lam - 1}")


def test_query_bound_below_exact_fails(query_case):
    point, ours, base = query_case
    lam = ours["argmin_lambda"]
    exact = float(references.exact_2rr_rdp([lam], point["n"], point["k"], point["eps0"])[0])
    eps = float(references.penalty(lam, point["delta"])) + point["T"] * exact * 0.99
    assert has(references.check_query(point, dict(ours, eps=eps), base), "exact 2RR")


def test_query_baseline_perturbations_fail(query_case):
    point, ours, base = query_case
    check = lambda **kw: references.check_query(point, ours, dict(base, **kw))
    assert has(check(degenerate=not base["degenerate"]), "baseline degenerate")
    assert has(check(eps=base["eps"] * (1 + 1e-9)), "baseline eps")
    assert has(check(delta=base["delta"] * 1.5), "baseline delta")


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_case(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    # eps0 = 1.65 keeps the baseline amplified at T = 1000 and 3000 and
    # degenerate at T = 30000, so both kinds of baseline cell are present.
    p = {"n": 2_000_000, "k": 2000, "eps0": 1.65, "delta": 1e-6, "values": [1000, 3000, 30000],
         "lambda_max": 128, "out": str(out)}
    from shuffle_rdp import cli

    WORKLOADS["sweep"].op(srdp, cli, p)
    curve = references.exact_2rr_rdp(range(2, p["lambda_max"] + 1), p["n"], p["k"], p["eps0"])
    meta = json.loads((out / "compare.meta.json").read_text())
    return p, (out / "compare.csv").read_text(), meta, curve


def edit(csv_text, row, col, value):
    lines = csv_text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_real_output_passes(sweep_case):
    p, text, meta, curve = sweep_case
    cells = [ln.split(",")[2] for ln in text.splitlines()[1:]]
    assert "degenerate" in cells and any(c != "degenerate" for c in cells)
    assert references.check_sweep(*sweep_case) == []


def test_sweep_row_order_and_count_fail(sweep_case):
    p, text, meta, curve = sweep_case
    lines = text.splitlines()
    assert has(references.check_sweep(p, "\n".join(lines[:-1]), meta, curve), "axis column")
    swapped = [lines[0], lines[2], lines[1], *lines[3:]]
    assert has(references.check_sweep(p, "\n".join(swapped), meta, curve), "axis column")


def test_sweep_lower_above_ours_fails(sweep_case):
    p, text, meta, curve = sweep_case
    ours = float(text.splitlines()[1].split(",")[1])
    bad = edit(text, 0, 3, f"{ours * 1.01:.12e}")
    assert has(references.check_sweep(p, bad, meta, curve), "eps_lower_ref")


def test_sweep_ours_decreasing_fails(sweep_case):
    p, text, meta, curve = sweep_case
    first = float(text.splitlines()[1].split(",")[1])
    bad = edit(text, 1, 1, f"{first * 0.999:.12e}")
    assert has(references.check_sweep(p, bad, meta, curve), "fell below")


def test_sweep_lower_below_exact_fails(sweep_case):
    p, text, meta, curve = sweep_case
    lower = float(text.splitlines()[2].split(",")[3])
    bad = edit(text, 1, 3, f"{lower * (1 - 1e-6):.12e}")
    assert has(references.check_sweep(p, bad, meta, curve), "exact 2RR minimum")


def test_sweep_baseline_cell_fails(sweep_case):
    p, text, meta, curve = sweep_case
    assert has(references.check_sweep(p, edit(text, 0, 2, "degenerate"), meta, curve), "baseline cell")
    assert has(references.check_sweep(p, edit(text, 2, 2, "1.0e+00"), meta, curve), "baseline cell")
    base = float(text.splitlines()[1].split(",")[2])
    bad = edit(text, 0, 2, f"{base * 1.001:.12e}")
    assert has(references.check_sweep(p, bad, meta, curve), "re-derived")


def test_sweep_meta_mismatch_fails(sweep_case):
    p, text, meta, curve = sweep_case
    assert has(references.check_sweep(p, text, dict(meta, k=p["k"] + 1), curve), "meta k")
    assert has(references.check_sweep(p, text, dict(meta, values=p["values"][:2]), curve), "meta values")


# ----------------------------------------------------------------------
# sgd
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sgd_case():
    problem = srdp.logistic_problem(n=300, d=5, seed=3)
    point = {"T": 50, "k": 30, "eps0": 2.0, "seed": 11}
    wl = WORKLOADS["sgd"]
    fields = lambda r: {"theta_final": r.theta_final, "objectives": list(r.objectives),
                        "final_suboptimality": r.final_suboptimality}
    prob = {"features": problem.features, "targets": problem.targets, "radius": problem.radius,
            "lipschitz": problem.lipschitz, "f_star": problem.f_star, "theta_star": problem.theta_star}
    out = fields(wl.op(srdp, problem, point))
    rerun = fields(wl.op(srdp, problem, point))
    return prob, dict(point, clip_radius=problem.lipschitz), out, rerun


def test_sgd_real_output_passes(sgd_case):
    assert references.check_sgd(*sgd_case) == []


def test_sgd_outside_ball_fails(sgd_case):
    prob, point, out, rerun = sgd_case
    theta = out["theta_final"] * (1.01 * prob["radius"] / np.linalg.norm(out["theta_final"]))
    assert has(references.check_sgd(prob, point, dict(out, theta_final=theta), rerun), "outside the ball")


def test_sgd_non_finite_trajectory_fails(sgd_case):
    prob, point, out, rerun = sgd_case
    objs = list(out["objectives"])
    objs[7] = math.nan
    assert has(references.check_sgd(prob, point, dict(out, objectives=objs), rerun), "finite")
    assert has(references.check_sgd(prob, point, dict(out, objectives=objs[:-1]), rerun), "finite")


def test_sgd_suboptimality_and_ceiling_fail(sgd_case):
    prob, point, out, rerun = sgd_case
    shifted = dict(out, final_suboptimality=out["final_suboptimality"] + 1e-6)
    assert has(references.check_sgd(prob, point, shifted, rerun), "recomputed")
    assert has(references.check_sgd(dict(prob, f_star=prob["f_star"] * 1.001), point, out, rerun), "f_star")
    # At 1e16 rounds the ceiling is far below any finite run's suboptimality.
    assert has(references.check_sgd(prob, dict(point, T=10**16), out, rerun), "ceiling")


def test_sgd_nondeterminism_fails(sgd_case):
    prob, point, out, rerun = sgd_case
    theta = rerun["theta_final"].copy()
    theta[0] = np.nextafter(theta[0], np.inf)
    assert has(references.check_sgd(prob, point, out, dict(rerun, theta_final=theta)), "different theta_final")


# ----------------------------------------------------------------------
# references against closed forms at small order, tracing, inputs
# ----------------------------------------------------------------------


def test_upper_reference_at_order_two():
    # At lam = 2 only the pair term and Upsilon = A^2 damp remain.
    n, k, eps0 = 10**5, 500, 1.3
    e, g = math.exp(eps0), k / n
    kb = math.floor((k - 1) / (2 * e)) + 1
    s = 4 * g**2 * (e - 1) ** 2 / (kb * e) + (g * (e * e - 1) / e) ** 2 * math.exp(-(k - 1) / (8 * e))
    assert float(references.upper_rdp([2], n, k, eps0)[0]) == pytest.approx(math.log1p(s), rel=1e-13)


def test_exact_2rr_at_order_two_is_chi_square():
    # D_2 = ln(1 + gamma^2 Var_mu0(mu1/mu0)), Var = (e - 1/e)^2 p (1-p) / k.
    n, k, eps0 = 5000, 50, 0.8
    p = 1 / (math.exp(eps0) + 1)
    var = (math.exp(eps0) - math.exp(-eps0)) ** 2 * p * (1 - p) / k
    got = references.exact_2rr_rdp([2], n, k, eps0)[0]
    assert got == pytest.approx(math.log1p((k / n) ** 2 * var), rel=1e-10)


def test_self_time_subtracts_union_of_children():
    tab = {
        "id": np.array([1, 2, 3, 4]),
        "parent": np.array([0, 1, 1, 2]),
        "start": np.array([0, 10, 15, 12]),
        "end": np.array([100, 30, 40, 14]),
    }
    # Children of span 1 cover [10, 40); span 2's child covers 2 of its 20.
    assert self_ns(tab).tolist() == [70, 18, 25, 2]


def test_traced_query_counts_calls():
    from shuffle_rdp import accountant

    tracer = Tracer()
    original = accountant.rdp_upper
    from tracing import install

    install(tracer, srdp)
    try:
        p = {"n": 10**6, "k": 1000, "eps0": 2.0, "T": 10**5, "delta": 1e-8}
        ours, _ = tracer.operation("op", WORKLOADS["query"].op, srdp, None, p)
    finally:
        tracer.unwrap_all()
    assert accountant.rdp_upper is original
    m = layer_metrics(tracer, ops=1, rounds=0, wall_s=1.0)
    # The early-exit search evaluates orders 2..argmin + 32.
    assert m["bounds.rdp_upper.calls"][0] == ours.argmin_lambda - 1 + 32
    assert m["baselines.baseline_total.ms"][0] > 0 and m["sgd.run.self_ms"][0] == 0


def test_inputs_repeat_per_seed_and_sweep_pairs_are_distinct(tmp_path):
    for wl in WORKLOADS.values():
        assert wl.inputs(7, 120, tmp_path) == wl.inputs(7, 120, tmp_path)
        assert wl.inputs(7, 120, tmp_path) != wl.inputs(8, 120, tmp_path)
    pts = WORKLOADS["sweep"].inputs(7, 500, tmp_path)
    assert len({(p["k"], p["eps0"]) for p in pts}) == 500


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "query", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and "{" not in proc.stdout
