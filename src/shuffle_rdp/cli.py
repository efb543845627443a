"""Command-line front end.

Subcommands:

* ``bound``    -- tabulate the upper/lower RDP bounds over integer orders.
* ``convert``  -- turn a tabulated curve into an (eps, delta) guarantee.
* ``compose``  -- scale a tabulated curve by a round count.
* ``compare``  -- sweep one axis and emit ours/baseline/lower-reference eps.
* ``simulate`` -- run the private SGD simulator; CSV trajectory + JSON report.
* ``oracle``   -- run a named brute-force invariant suite.

Conventions: all file outputs land under ``--out``; data files are plain
CSV (comma separator, scientific notation with 12 significant digits, LF
endings, mandatory header) with run metadata in a ``*.meta.json`` sidecar
and never any timestamps, so identical inputs give byte-identical files.
Exit codes: 0 ok, 1 invariant-check failure, 2 usage or validation error.
An optional ``--config`` JSON supplies defaults that explicit flags
override.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .accountant import (
    DEFAULT_LAMBDA_MAX,
    AccountantConfig,
    DpGuarantee,
    compose as compose_curve,
    minimize_over_orders,
    rdp_to_dp,
    total_privacy,
)
from .baselines import baseline_total
from .bounds import (
    CurveKind,
    RdpCurve,
    SubsampledShuffleParams,
    rdp_lower,
    rdp_upper,
)
from .checks import ALL_CHECKS
from . import sgd


class UsageError(ValueError):
    """Invalid flags or parameters; maps to exit code 2, as every ValueError does."""


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _out_dir(args) -> Path:
    if not args.out:
        raise UsageError("--out is required")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _guarantee_payload(g: DpGuarantee) -> dict:
    return {
        "eps": g.eps,
        "delta": g.delta,
        "provenance": g.provenance.value,
        "argmin_lambda": g.argmin_lambda,
        "eps_unclamped": g.eps_unclamped,
        "degenerate": g.degenerate,
    }


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _merged(args, config: dict, key: str, default=None):
    """Explicit flag wins; then the config file; then the default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _require(value, name: str):
    if value is None:
        raise UsageError(f"missing required parameter {name}")
    return value


def _to_int(value, name: str) -> int:
    """value as an int: integral spellings such as '1e4' pass, 2.5 does not."""
    if isinstance(value, int):
        return value
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = None
    if x is None or not x.is_integer():
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return int(x)


def _int_arg(args, config: dict, key: str, default=None) -> Optional[int]:
    """The merged value of an integer parameter, or None when it is unset."""
    val = _merged(args, config, key, default)
    return None if val is None else _to_int(val, f"--{key}")


def _parse_values(raw: str, kind: str) -> list:
    try:
        vals = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse values {raw!r}") from exc
    if kind == "int":
        vals = [_to_int(v, "every value") for v in vals]
    if not vals:
        raise UsageError("values list is empty")
    if any(v <= 0 for v in vals):
        raise UsageError("sweep values must be positive")
    if sorted(vals) != vals:
        raise UsageError("sweep values must be sorted ascending")
    return vals


def _log_range(start: float, stop: float, points: int, kind: str) -> list:
    if points < 1 or start <= 0 or stop < start:
        raise UsageError("log range requires 0 < start <= stop and points >= 1")
    if points == 1:
        grid = [start]
    else:
        ratio = (stop / start) ** (1.0 / (points - 1))
        grid = [start * ratio**i for i in range(points)]
    if kind == "int":
        vals = sorted({int(round(v)) for v in grid})
        return vals
    return grid


def _read_curve(path: str, kind: CurveKind) -> RdpCurve:
    try:
        with open(path) as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read curve {path}: {exc}") from exc
    if not lines or not lines[0].lower().startswith("lambda"):
        raise UsageError(f"curve file {path} must start with a 'lambda,eps' header")
    entries = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) < 2:
            raise UsageError(f"malformed curve row {ln!r}")
        entries.append((_to_int(parts[0], "curve order"), float(parts[1])))
    if not entries:
        raise UsageError(f"curve file {path} holds no entries")
    return RdpCurve(entries=tuple(entries), kind=kind, params=None)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_bound(args, config: dict) -> int:
    eps0 = _require(_merged(args, config, "eps0"), "--eps0")
    k = _require(_int_arg(args, config, "k"), "--k")
    n = _require(_int_arg(args, config, "n"), "--n")
    params = SubsampledShuffleParams(n=n, k=k, eps0=eps0)
    if params.k < 2:
        raise UsageError("the upper bound requires k >= 2")
    if args.lambdas:
        lambdas = _parse_values(args.lambdas, "int")
    else:
        lo = _int_arg(args, config, "lambda-min", 2)
        hi = _int_arg(args, config, "lambda-max")
        if hi is None:
            raise UsageError("provide --lambdas or --lambda-max")
        lambdas = list(range(lo, hi + 1))
    if not lambdas:
        raise UsageError("empty order range")
    if any(l < 2 for l in lambdas):
        raise UsageError("orders must be >= 2")
    out = _out_dir(args)

    rows = [
        f"{lam},{_fmt(rdp_upper(lam, params))},{_fmt(rdp_lower(lam, params))}"
        for lam in lambdas
    ]
    _write_csv(out / "bound.csv", "lambda,eps_upper,eps_lower", rows)
    _write_json(
        out / "bound.meta.json",
        {"command": "bound", "eps0": eps0, "k": k, "n": n, "lambdas": lambdas},
    )
    return 0


def cmd_convert(args, config: dict) -> int:
    delta = float(_require(_merged(args, config, "delta"), "--delta"))
    if not 0.0 < delta < 1.0:
        raise UsageError(f"delta must lie in (0, 1), got {delta}")
    curve = _read_curve(_require(args.curve, "--curve"), CurveKind(args.kind))
    out = _out_dir(args)
    g = rdp_to_dp(curve, delta)
    _write_json(out / "convert.json", _guarantee_payload(g))
    return 0


def cmd_compose(args, config: dict) -> int:
    T = _require(_int_arg(args, config, "T"), "--T")
    if T < 1:
        raise UsageError("--T must be a positive integer")
    curve = _read_curve(_require(args.curve, "--curve"), CurveKind(args.kind))
    out = _out_dir(args)
    composed = compose_curve(curve, T)
    rows = [f"{lam},{_fmt(eps)}" for lam, eps in composed.entries]
    _write_csv(out / "composed.csv", "lambda,eps", rows)
    _write_json(
        out / "composed.meta.json",
        {"command": "compose", "T": T, "kind": args.kind, "source": str(args.curve)},
    )
    return 0


def _compare_point(
    params: SubsampledShuffleParams, cfg: AccountantConfig
) -> tuple[str, str, str]:
    ours = total_privacy(params, cfg)
    base = baseline_total(params, cfg.T, cfg.delta)
    lower_eps, _, _ = minimize_over_orders(
        lambda lam: rdp_lower(lam, params), cfg.T, cfg.delta, cfg.lambda_max
    )
    base_cell = "degenerate" if base.degenerate else _fmt(base.eps)
    return _fmt(ours.eps), base_cell, _fmt(lower_eps)


def cmd_compare(args, config: dict) -> int:
    axis = _require(_merged(args, config, "axis"), "--axis")
    if axis == "lambda":
        raise UsageError("axis 'lambda' belongs to `bound`; compare sweeps T, n or eps0")
    if axis not in ("T", "n", "eps0"):
        raise UsageError(f"unknown axis {axis!r}")
    value_kind = "float" if axis == "eps0" else "int"
    if args.values:
        values = _parse_values(args.values, value_kind)
    elif args.log_range:
        start, stop, points = args.log_range
        values = _log_range(
            float(start), float(stop), _to_int(points, "--log-range POINTS"), value_kind
        )
    else:
        raise UsageError("provide --values or --log-range")

    T = _merged(args, config, "T")
    eps0 = _merged(args, config, "eps0")
    n = _merged(args, config, "n")
    delta = float(_require(_merged(args, config, "delta"), "--delta"))
    lambda_max = _int_arg(args, config, "lambda-max", DEFAULT_LAMBDA_MAX)
    if axis != "T":
        T = _require(_int_arg(args, config, "T"), "--T")
    if axis != "eps0":
        eps0 = float(_require(eps0, "--eps0"))
    if axis != "n":
        n = _require(_int_arg(args, config, "n"), "--n")
    k = _require(_int_arg(args, config, "k"), "--k")
    if k < 2:
        raise UsageError("compare requires k >= 2")

    # Validate every point before computing anything (no partial outputs).
    points = [
        (
            SubsampledShuffleParams(
                n=v if axis == "n" else n, k=k, eps0=v if axis == "eps0" else eps0
            ),
            AccountantConfig(T=v if axis == "T" else T, delta=delta, lambda_max=lambda_max),
        )
        for v in values
    ]
    results = [_compare_point(params, cfg) for params, cfg in points]
    out = _out_dir(args)
    axis_fmt = str if value_kind == "int" else _fmt
    rows = [
        f"{axis_fmt(v)},{ours},{base},{lower}"
        for v, (ours, base, lower) in zip(values, results)
    ]
    _write_csv(out / "compare.csv", "axis_value,eps_ours,eps_baseline,eps_lower_ref", rows)
    _write_json(
        out / "compare.meta.json",
        {
            "command": "compare",
            "axis": axis,
            "values": values,
            "T": T,
            "eps0": eps0,
            "k": k,
            "n": n,
            "delta": delta,
            "lambda_max": lambda_max,
        },
    )
    return 0


def cmd_simulate(args, config: dict) -> int:
    loss = _merged(args, config, "loss", sgd.LOSS_LEAST_SQUARES)
    d = _int_arg(args, config, "d", 10)
    n = _int_arg(args, config, "n", 1000)
    radius = float(_merged(args, config, "radius", 1.0))
    problem_seed = _int_arg(args, config, "problem-seed", 7)
    T = _require(_int_arg(args, config, "T"), "--T")
    k = _require(_int_arg(args, config, "k"), "--k")
    eps0 = float(_require(_merged(args, config, "eps0"), "--eps0"))
    clip_radius = _merged(args, config, "clip-radius")
    delta = float(_merged(args, config, "delta", 1e-8))
    seed = _int_arg(args, config, "seed", 0)
    schedule = _merged(args, config, "schedule", sgd.SCHEDULE_PAPER)
    eta = _merged(args, config, "eta")
    record_every = _int_arg(args, config, "record-every")

    if loss == sgd.LOSS_LEAST_SQUARES:
        problem = sgd.least_squares_problem(n=n, d=d, seed=problem_seed, radius=radius)
    elif loss == sgd.LOSS_LOGISTIC:
        problem = sgd.logistic_problem(n=n, d=d, seed=problem_seed, radius=radius)
    else:
        raise UsageError(f"unknown loss {loss!r}")
    if clip_radius is None:
        clip_radius = problem.lipschitz  # clipping provably inactive
    cfg = sgd.SgdConfig(
        T=T,
        k=k,
        eps0=eps0,
        clip_radius=float(clip_radius),
        delta=delta,
        seed=seed,
        schedule=schedule,
        eta=None if eta is None else float(eta),
        record_every=record_every,
    )
    report = sgd.run(problem, cfg)
    out = _out_dir(args)
    rows = [
        f"{t},{_fmt(obj)}" for t, obj in zip(report.rounds, report.objectives)
    ]
    _write_csv(out / "trajectory.csv", "round,objective", rows)
    payload = {
        "final_suboptimality": report.final_suboptimality,
        "grad_second_moment": report.grad_second_moment,
        "privacy": None if report.privacy is None else _guarantee_payload(report.privacy),
        "config": {
            "loss": loss,
            "d": d,
            "n": n,
            "radius": radius,
            "problem_seed": problem_seed,
            "T": T,
            "k": k,
            "eps0": eps0,
            "clip_radius": float(clip_radius),
            "delta": delta,
            "seed": seed,
            "schedule": schedule,
            "eta": eta,
        },
    }
    _write_json(out / "privacy.json", payload)
    return 0


def cmd_oracle(args, config: dict) -> int:
    name = args.subcheck
    if name not in ALL_CHECKS:
        raise UsageError(
            f"unknown subcheck {name!r}; choose from {', '.join(sorted(ALL_CHECKS))}"
        )
    result = ALL_CHECKS[name]()
    print(result.summary())
    return 0 if result.passed else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shuffle-rdp",
        description="Renyi-DP accounting for the subsampled shuffle mechanism",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory for generated files")

    p = sub.add_parser("bound", help="tabulate upper/lower RDP bounds")
    add_common(p)
    p.add_argument("--eps0", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--lambda-min", type=int, dest="lambda_min")
    p.add_argument("--lambda-max", type=int, dest="lambda_max")
    p.add_argument("--lambdas", help="explicit comma-separated orders")

    p = sub.add_parser("convert", help="curve CSV -> (eps, delta) guarantee")
    add_common(p)
    p.add_argument("--curve")
    p.add_argument("--delta", type=float)
    p.add_argument("--kind", choices=["upper", "lower", "exact"], default="upper")

    p = sub.add_parser("compose", help="scale a curve by a round count")
    add_common(p)
    p.add_argument("--curve")
    p.add_argument("--T", type=int, dest="T")
    p.add_argument("--kind", choices=["upper", "lower", "exact"], default="upper")

    p = sub.add_parser("compare", help="sweep an axis: ours vs baseline vs lower ref")
    add_common(p)
    p.add_argument("--axis", choices=["T", "n", "eps0", "lambda"])
    p.add_argument("--values", help="explicit comma-separated axis values")
    p.add_argument(
        "--log-range",
        nargs=3,
        metavar=("START", "STOP", "POINTS"),
        dest="log_range",
    )
    p.add_argument("--T", type=int, dest="T")
    p.add_argument("--eps0", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--lambda-max", type=int, dest="lambda_max")

    p = sub.add_parser("simulate", help="run the private SGD simulator")
    add_common(p)
    p.add_argument("--loss", choices=[sgd.LOSS_LEAST_SQUARES, sgd.LOSS_LOGISTIC])
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--problem-seed", type=int, dest="problem_seed")
    p.add_argument("--T", type=int, dest="T")
    p.add_argument("--k", type=int)
    p.add_argument("--eps0", type=float)
    p.add_argument("--clip-radius", type=float, dest="clip_radius")
    p.add_argument("--delta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--schedule", choices=[sgd.SCHEDULE_PAPER, sgd.SCHEDULE_CONSTANT])
    p.add_argument("--eta", type=float)
    p.add_argument("--record-every", type=int, dest="record_every")

    p = sub.add_parser("oracle", help="run a named invariant suite")
    add_common(p)
    p.add_argument("subcheck")

    return parser


_COMMANDS = {
    "bound": cmd_bound,
    "convert": cmd_convert,
    "compose": cmd_compose,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
    "oracle": cmd_oracle,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
