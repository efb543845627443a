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
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

from .accountant import (
    DEFAULT_LAMBDA_MAX,
    AccountantConfig,
    DpGuarantee,
    binomial_floor,
    compose as compose_curve,
    convex_floor,
    minimize_over_orders,
    rdp_to_dp,
)
from .baselines import baseline_total
from .bounds import (
    MAX_ORDER,
    CurveKind,
    RdpCurve,
    SubsampledShuffleParams,
    check_int,
    rdp_lower,
    rdp_upper,
)
from .checks import ALL_CHECKS
from . import sgd


#: Most values one --log-range may ask for; each is a point of the sweep.
_LOG_RANGE_MAX_POINTS = 1000


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")


def _write_json(path: Path, payload: dict) -> None:
    """Write payload as JSON; a non-finite number raises before the file opens."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path.name} would hold a non-finite number: {exc}") from exc
    with open(path, "w", newline="\n") as f:
        f.write(text + "\n")


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _guarantee_payload(g: DpGuarantee) -> dict:
    return dict(asdict(g), provenance=g.provenance.value)


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def number(text: str):
    """A flag's text as a JSON number, '10' -> 10, '1e4' -> 10000.0 (argparse shows the name)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _to_float(value, name: str) -> float:
    """value as a float; strings, booleans and containers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is out of range, got {value!r}") from exc


def _to_int(value, name: str) -> int:
    """value as an int: integral spellings such as 1e4 pass, 2.5 does not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    x = _to_float(value, name)
    if not x.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(x)


def _to_text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class Param:
    """One parameter of a subcommand, named as argparse names it (``--eps0``,
    or ``subcheck`` for a positional).  With ``config`` set, the name without
    ``--`` is also its ``--config`` key.  ``metavar`` names the values of a
    flag that takes several."""

    name: str
    kind: Callable[[object, str], object]
    default: object = None
    required: bool = False
    choices: tuple = ()
    config: bool = True
    metavar: Optional[tuple] = None
    help: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


def _resolve(params: Sequence[Param], args: argparse.Namespace) -> argparse.Namespace:
    """Each parameter's value: the flag wins, then --config, then the default."""
    config = _load_config(getattr(args, "config", None))
    values = {}
    for p in params:
        value = getattr(args, p.dest)
        if value is None and p.config:
            value = config.get(p.name.lstrip("-"))
        if value is None:
            if p.required:
                raise ValueError(f"missing required parameter {p.name}")
            values[p.dest] = p.default
            continue
        value = [p.kind(x, p.name) for x in value] if p.metavar else p.kind(value, p.name)
        if p.choices and value not in p.choices:
            raise ValueError(f"{p.name} must be one of {', '.join(p.choices)}, got {value!r}")
        values[p.dest] = value
    return argparse.Namespace(**values)


def _config_values(command: str, v: argparse.Namespace) -> dict:
    """The resolved values of a command's --config keys, by argparse dest."""
    return {p.dest: getattr(v, p.dest) for p in _COMMANDS[command][2] if p.config}


def _parse_values(raw: str, kind, flag: str) -> list:
    """The comma-separated values of ``flag``: positive and strictly increasing."""
    try:
        vals = [number(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse {flag} {raw!r}") from exc
    vals = [kind(x, f"every value of {flag}") for x in vals]
    if not vals:
        raise ValueError(f"{flag} is empty")
    if any(v <= 0 for v in vals):
        raise ValueError(f"{flag} must be positive, got {raw!r}")
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError(f"{flag} must be strictly increasing, got {raw!r}")
    return vals


def _log_range(start: float, stop: float, points: int, kind) -> list:
    if not 1 <= points <= _LOG_RANGE_MAX_POINTS:
        raise ValueError(
            f"--log-range POINTS must lie in [1, {_LOG_RANGE_MAX_POINTS}], got {points}"
        )
    if not 0 < start <= stop < math.inf:
        raise ValueError(f"--log-range requires 0 < START <= STOP < inf, got {start}, {stop}")
    if points == 1:
        grid = [start]
    else:
        ratio = (stop / start) ** (1.0 / (points - 1))
        grid = [start * ratio**i for i in range(points)]
    if kind is _to_int:
        grid = [int(round(v)) for v in grid]
    return sorted(set(grid))


def _read_curve(path: str, kind: CurveKind) -> RdpCurve:
    try:
        with open(path) as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read curve {path}: {exc}") from exc
    if not lines or not lines[0].lower().startswith("lambda"):
        raise ValueError(f"curve file {path} must start with a 'lambda,eps' header")
    entries = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) < 2:
            raise ValueError(f"malformed curve row {ln!r}")
        entries.append((_to_int(float(parts[0]), "curve order"), float(parts[1])))
    if not entries:
        raise ValueError(f"curve file {path} holds no entries")
    return RdpCurve(entries=tuple(entries), kind=kind)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_bound(v) -> int:
    params = SubsampledShuffleParams(n=v.n, k=v.k, eps0=v.eps0)
    if v.lambdas:
        lambdas = _parse_values(v.lambdas, _to_int, "--lambdas")
        check_int("--lambdas", lambdas[0], 2, MAX_ORDER)
        check_int("--lambdas", lambdas[-1], 2, MAX_ORDER)
    elif v.lambda_max is None:
        raise ValueError("provide --lambdas or --lambda-max")
    else:  # checked before a range of orders is built
        check_int("--lambda-min", v.lambda_min, 2, MAX_ORDER)
        check_int("--lambda-max", v.lambda_max, 2, MAX_ORDER)
        lambdas = list(range(v.lambda_min, v.lambda_max + 1))
    if not lambdas:
        raise ValueError("empty order range")
    upper, lower = rdp_upper(lambdas, params).tolist(), rdp_lower(lambdas, params).tolist()
    rows = [f"{lam},{_fmt(up)},{_fmt(lo)}" for lam, up, lo in zip(lambdas, upper, lower)]
    out = _out_dir(v.out)
    _write_csv(out / "bound.csv", "lambda,eps_upper,eps_lower", rows)
    _write_json(
        out / "bound.meta.json",
        {"command": "bound", "eps0": v.eps0, "k": v.k, "n": v.n, "lambdas": lambdas},
    )
    return 0


def cmd_convert(v) -> int:
    g = rdp_to_dp(_read_curve(v.curve, CurveKind(v.kind)), v.delta)
    _write_json(_out_dir(v.out) / "convert.json", _guarantee_payload(g))
    return 0


def cmd_compose(v) -> int:
    composed = compose_curve(_read_curve(v.curve, CurveKind(v.kind)), v.T)
    rows = [f"{lam},{_fmt(eps)}" for lam, eps in composed.entries]
    out = _out_dir(v.out)
    _write_csv(out / "composed.csv", "lambda,eps", rows)
    _write_json(
        out / "composed.meta.json",
        {"command": "compose", "T": v.T, "kind": v.kind, "source": v.curve},
    )
    return 0


def _compare_rows(
    params: SubsampledShuffleParams, cfgs: Sequence[AccountantConfig]
) -> list[tuple[str, str, str]]:
    """The ours, baseline and lower-reference cells of points that differ in
    T alone.  RDP composes linearly in T, so their round counts share one
    order search per bound, and each order is computed once."""
    Ts, delta, lambda_max = [cfg.T for cfg in cfgs], cfgs[0].delta, cfgs[0].lambda_max
    ours = minimize_over_orders(
        lambda lam: rdp_upper(lam, params), Ts, delta, lambda_max,
        functools.partial(binomial_floor, params),
    )
    bases = [baseline_total(params, T, delta) for T in Ts]
    lower = minimize_over_orders(
        lambda lam: rdp_lower(lam, params), Ts, delta, lambda_max, convex_floor
    )
    return [
        (_fmt(o[0]), "degenerate" if base.degenerate else _fmt(base.eps), _fmt(lo[0]))
        for o, base, lo in zip(ours, bases, lower)
    ]


def cmd_compare(v) -> int:
    kind = _to_float if v.axis == "eps0" else _to_int
    if v.values:
        values = _parse_values(v.values, kind, "--values")
    elif v.log_range:
        start, stop, points = v.log_range
        values = _log_range(start, stop, _to_int(points, "--log-range POINTS"), kind)
    else:
        raise ValueError("provide --values or --log-range")
    fixed = _config_values("compare", v)
    for name in ("T", "n", "eps0"):
        if name != v.axis and fixed[name] is None:
            raise ValueError(f"missing required parameter --{name}")

    # Validate every point before computing anything (no partial outputs).
    points = [
        (
            SubsampledShuffleParams(n=at["n"], k=at["k"], eps0=at["eps0"]),
            AccountantConfig(T=at["T"], delta=at["delta"], lambda_max=at["lambda_max"]),
        )
        for at in (dict(fixed, **{v.axis: x}) for x in values)
    ]
    groups = [points] if v.axis == "T" else [[point] for point in points]
    results = [
        row for group in groups for row in _compare_rows(group[0][0], [cfg for _, cfg in group])
    ]
    axis_fmt = str if kind is _to_int else _fmt
    rows = [
        f"{axis_fmt(x)},{ours},{base},{lower_ref}"
        for x, (ours, base, lower_ref) in zip(values, results)
    ]
    out = _out_dir(v.out)
    _write_csv(out / "compare.csv", "axis_value,eps_ours,eps_baseline,eps_lower_ref", rows)
    _write_json(out / "compare.meta.json", dict(fixed, command="compare", values=values))
    return 0


def cmd_simulate(v) -> int:
    make_problem = (
        sgd.logistic_problem if v.loss == sgd.LOSS_LOGISTIC else sgd.least_squares_problem
    )
    problem = make_problem(n=v.n, d=v.d, seed=v.problem_seed, radius=v.radius)
    if v.clip_radius is None:
        v.clip_radius = problem.lipschitz  # clipping provably inactive
    run_keys = {f.name for f in fields(sgd.SgdConfig)}
    report = sgd.run(problem, sgd.SgdConfig(**{k: x for k, x in vars(v).items() if k in run_keys}))
    rows = [
        f"{t},{_fmt(obj)}" for t, obj in zip(report.rounds, report.objectives)
    ]
    config = _config_values("simulate", v)
    del config["record_every"]  # a sampling choice of the trajectory, not of the run
    payload = {
        "final_suboptimality": report.final_suboptimality,
        "grad_second_moment": report.grad_second_moment,
        "privacy": None if report.privacy is None else _guarantee_payload(report.privacy),
        "config": config,
    }
    out = _out_dir(v.out)
    _write_csv(out / "trajectory.csv", "round,objective", rows)
    _write_json(out / "privacy.json", payload)
    return 0


def cmd_oracle(v) -> int:
    result = ALL_CHECKS[v.subcheck]()
    print(result.summary())
    return 0 if result.passed else 1


# ----------------------------------------------------------------------
# The parameter table: it builds the subparsers, and _resolve merges and
# coerces each value from it (flag, then --config, then the default).
# ----------------------------------------------------------------------

_CONFIG = Param("--config", _to_text, config=False, help="JSON config file; flags override it")
_OUT = Param("--out", _to_text, required=True, config=False, help="directory for output files")
_CURVE = Param("--curve", _to_text, required=True, config=False)
_KIND = Param("--kind", _to_text, "upper", choices=("upper", "lower", "exact"), config=False)

_COMMANDS: dict[str, tuple[Callable, str, tuple[Param, ...]]] = {
    "bound": (cmd_bound, "tabulate upper/lower RDP bounds", (
        _CONFIG, _OUT,
        Param("--eps0", _to_float, required=True),
        Param("--k", _to_int, required=True),
        Param("--n", _to_int, required=True),
        Param("--lambda-min", _to_int, 2),
        Param("--lambda-max", _to_int),
        Param("--lambdas", _to_text, config=False, help="explicit comma-separated orders"),
    )),
    "convert": (cmd_convert, "curve CSV -> (eps, delta) guarantee", (
        _CONFIG, _OUT, _CURVE, _KIND,
        Param("--delta", _to_float, required=True),
    )),
    "compose": (cmd_compose, "scale a curve by a round count", (
        _CONFIG, _OUT, _CURVE, _KIND,
        Param("--T", _to_int, required=True),
    )),
    "compare": (cmd_compare, "sweep an axis: ours vs baseline vs lower ref", (
        _CONFIG, _OUT,
        Param("--axis", _to_text, required=True, choices=("T", "n", "eps0")),
        Param("--values", _to_text, config=False, help="explicit comma-separated axis values"),
        Param("--log-range", _to_float, config=False, metavar=("START", "STOP", "POINTS")),
        Param("--T", _to_int),
        Param("--eps0", _to_float),
        Param("--k", _to_int, required=True),
        Param("--n", _to_int),
        Param("--delta", _to_float, required=True),
        Param("--lambda-max", _to_int, DEFAULT_LAMBDA_MAX),
    )),
    "simulate": (cmd_simulate, "run the private SGD simulator", (
        _CONFIG, _OUT,
        Param("--loss", _to_text, sgd.LOSS_LEAST_SQUARES,
              choices=(sgd.LOSS_LEAST_SQUARES, sgd.LOSS_LOGISTIC)),
        Param("--d", _to_int, 10),
        Param("--n", _to_int, 1000),
        Param("--radius", _to_float, 1.0),
        Param("--problem-seed", _to_int, 7),
        Param("--T", _to_int, required=True),
        Param("--k", _to_int, required=True),
        Param("--eps0", _to_float, required=True),
        Param("--clip-radius", _to_float),
        Param("--delta", _to_float, 1e-8),
        Param("--seed", _to_int, 0),
        Param("--schedule", _to_text, sgd.SCHEDULE_PAPER,
              choices=(sgd.SCHEDULE_PAPER, sgd.SCHEDULE_CONSTANT)),
        Param("--eta", _to_float),
        Param("--record-every", _to_int),
    )),
    "oracle": (cmd_oracle, "run a named invariant suite", (
        Param("subcheck", _to_text, required=True, choices=tuple(sorted(ALL_CHECKS)), config=False),
    )),
}


# Built once per process: parsing leaves the parser as it was, and a caller
# that runs `main` many times in process would otherwise rebuild six
# subparsers on every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shuffle-rdp",
        description="Renyi-DP accounting for the subsampled shuffle mechanism",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, params) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for param in params:
            kw = dict(choices=param.choices or None, help=param.help)
            if param.kind in (_to_int, _to_float):
                kw["type"] = number
            if param.metavar:
                kw.update(nargs=len(param.metavar), metavar=param.metavar)
            if param.name.startswith("--"):
                kw["required"] = param.required and not param.config
            p.add_argument(param.name, **kw)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    run, _, params = _COMMANDS[args.command]
    try:
        return run(_resolve(params, args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
