"""Command-line surface: capacity queries, tradeoff-curve emission,
claim verification, separate-node comparison, and code construction.

All numeric output is exact-rational first; decimal renderings are
6-place approximations marked with '~'.  CSV files carry the exact
numerator/denominator columns, a mandatory header row, UTF-8 text and
LF line endings, and are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .capacity import (
    capacity_achiever,
    compare_separate,
    system_capacity,
    tradeoff_curve,
)
from .model import (
    ConfigError,
    NodeParams,
    RepairParams,
    SystemConfig,
    format_rational,
    parse_rational,
    validate_config,
)

USAGE_ERROR = 2
VERIFY_FAILURE = 1
MAX_GRID_POINTS = 100_000  # per tradeoff curve


def approx(value: Fraction) -> str:
    """Exact 6-place decimal rendering (display only; rationals are
    authoritative)."""
    n, d = value.numerator, value.denominator
    sign = "-" if n < 0 else ""
    scaled, rem = divmod(abs(n) * 10**6, d)
    if 2 * rem >= d:
        scaled += 1
    return f"{sign}{scaled // 10**6}.{scaled % 10**6:06d}"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _add_node_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="total node count (L*R+E)")
    parser.add_argument("--k", type=int, help="reconstruction threshold")
    parser.add_argument("--L", type=int, help="cluster count")
    parser.add_argument("--R", type=int, help="nodes per cluster")
    parser.add_argument("--E", type=int, help="separate node count")
    parser.add_argument("--dI", type=int, default=None, help="intra-cluster helpers (default R-1)")
    parser.add_argument("--dC", type=int, help="cross-cluster helpers")
    parser.add_argument("--betaI", help="symbols per intra-cluster helper (rational)")
    parser.add_argument("--betaC", help="symbols per cross-cluster helper (rational)")
    parser.add_argument("--alpha", help="per-node storage (rational)")


def _config_from_args(args: argparse.Namespace) -> SystemConfig:
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config}: expected a JSON object of config keys")

        def field(key: str) -> int | str:
            if key not in raw:
                raise ConfigError(f"config key {key!r} is missing")
            value = raw[key]
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ConfigError(
                    f"config key {key!r}: {value!r} is neither an integer nor a 'p/q' string"
                )
            return value

        return validate_config(
            n=int(field("n")),
            k=int(field("k")),
            L=int(field("L")),
            R=int(field("R")),
            E=int(field("E")),
            d_intra=int(field("d_I")) if "d_I" in raw else None,
            d_cross=int(field("d_C")),
            beta_intra=parse_rational(field("beta_I")),
            beta_cross=parse_rational(field("beta_C")),
            alpha=parse_rational(field("alpha")),
        )
    required = ("n", "k", "L", "R", "E", "dC", "betaI", "betaC", "alpha")
    missing = [f"--{name}" for name in required if getattr(args, name, None) is None]
    if missing:
        raise ConfigError(f"missing {' '.join(missing)} (or use --config)")
    return validate_config(
        n=args.n, k=args.k, L=args.L, R=args.R, E=args.E,
        d_intra=args.dI, d_cross=args.dC,
        beta_intra=parse_rational(args.betaI),
        beta_cross=parse_rational(args.betaC),
        alpha=parse_rational(args.alpha),
    )


def cmd_capacity(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    value = system_capacity(cfg)
    dist, order = capacity_achiever(cfg)
    if args.format == "json":
        payload = {
            "capacity": format_rational(value),
            "capacity_approx": approx(value),
            "distribution": {"separate": dist.separate, "clusters": list(dist.clusters)},
            "order": list(order.labels),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(
            f"capacity = {format_rational(value)} (~ {approx(value)})\n"
            f"achieving distribution = {dist}\n"
            f"achieving order = {order}\n",
            args.out,
        )
    return 0


def _parse_grid(args: argparse.Namespace) -> list[Fraction]:
    start = parse_rational(args.grid_start)
    stop = parse_rational(args.grid_stop)
    step = parse_rational(args.grid_step)
    if step <= 0:
        raise ConfigError(f"grid step {step} must be > 0")
    count = (stop - start) // step + 1
    if count < 1:
        raise ConfigError(f"empty grid: start={start} stop={stop} step={step}")
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"grid has {count} points; at most {MAX_GRID_POINTS} allowed")
    return [start + i * step for i in range(count)]


def cmd_tradeoff(args: argparse.Namespace) -> int:
    nodes = NodeParams(n=args.n, k=args.k, L=args.L, R=args.R, E=args.E)
    grid = _parse_grid(args)
    size = parse_rational(args.M)
    tau = parse_rational(args.tau)
    d_values = sorted(set(args.dC))
    results = [tradeoff_curve(nodes, d_cross, tau, size, grid) for d_cross in d_values]
    for result in results:
        for beta in result.unstorable:
            sys.stderr.write(
                f"unstorable: beta_C={format_rational(beta)} d_C={result.d_cross} "
                f"(capacity saturates below M={format_rational(size)})\n"
            )
    if args.format == "json":
        payload = [
            {
                "d_C": result.d_cross,
                "variant": result.variant.value,
                "points": [
                    {
                        "beta_C": format_rational(p.beta_cross),
                        "alpha": format_rational(p.alpha_star),
                        "alpha_approx": approx(p.alpha_star),
                    }
                    for p in result.points
                ],
                "unstorable": [format_rational(b) for b in result.unstorable],
            }
            for result in results
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = ["beta_C_num,beta_C_den,alpha_num,alpha_den,d_C,variant"]
    for result in results:
        for p in result.points:
            lines.append(
                f"{p.beta_cross.numerator},{p.beta_cross.denominator},"
                f"{p.alpha_star.numerator},{p.alpha_star.denominator},"
                f"{result.d_cross},{result.variant.value}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import verify_claims

    reports = verify_claims(args.family)
    failed = [r for r in reports if not r.passed]
    # json.dumps(payload, indent=2), written out: with an indent the
    # standard library encodes in pure Python, so only the strings go
    # through it here (json.dumps of a bool or None costs 4x a string's)
    dumps = json.dumps
    items = ",\n".join(
        f'    {{\n      "instance": {dumps(r.instance)},\n'
        f'      "claim": {dumps(r.claim)},\n'
        f'      "passed": {"true" if r.passed else "false"},\n'
        f'      "counterexample": '
        f'{"null" if r.counterexample is None else dumps(r.counterexample)}\n    }}'
        for r in reports
    )
    listed = f"[\n{items}\n  ]" if reports else "[]"
    _emit(
        f'{{\n  "family": {dumps(args.family)},\n'
        f'  "total": {dumps(len(reports))},\n'
        f'  "failed": {dumps(len(failed))},\n'
        f'  "reports": {listed}\n}}\n',
        args.out,
    )
    if failed:
        for r in failed[:20]:
            sys.stderr.write(f"FAIL {r.claim} @ {r.instance}: {r.counterexample}\n")
        return VERIFY_FAILURE
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    nodes = NodeParams(n=args.L * args.R, k=args.k, L=args.L, R=args.R, E=0)
    if args.n is not None and args.n != nodes.n:
        raise ConfigError(f"--n {args.n} inconsistent with L*R={nodes.n} (base system has E=0)")
    repair = RepairParams(
        alpha=parse_rational(args.alpha),
        d_intra=args.R - 1 if args.dI is None else args.dI,
        beta_intra=parse_rational(args.betaI),
        d_cross=args.dC,
        beta_cross=parse_rational(args.betaC),
    )
    verdict = compare_separate(nodes, repair)
    if args.format == "json":
        payload = {
            "outcome": verdict.outcome.value,
            "capacity_without": format_rational(verdict.capacity_without),
            "capacity_with": format_rational(verdict.capacity_with),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(
            f"verdict = {verdict.outcome.value}\n"
            f"capacity without separate node = "
            f"{format_rational(verdict.capacity_without)} (~ {approx(verdict.capacity_without)})\n"
            f"capacity with separate node = "
            f"{format_rational(verdict.capacity_with)} (~ {approx(verdict.capacity_with)})\n",
            args.out,
        )
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    from . import codes

    try:
        inst = codes.search_construction(args.q, seed=args.seed, budget=args.budget)
    except codes.SearchExhausted as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VERIFY_FAILURE
    _emit(inst.to_text(), args.out)
    if args.out is not None:
        sys.stdout.write(f"verified instance over GF({args.q}) written to {args.out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustercap",
        description="Exact capacity and storage/bandwidth tradeoffs for "
        "clustered storage with separate nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="exact capacity plus the achieving selection")
    _add_node_flags(p)
    p.add_argument("--config", help="flat JSON config (rationals as 'p/q' strings)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("tradeoff", help="emit minimum-storage tradeoff curves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--E", type=int, required=True)
    p.add_argument("--dC", type=int, action="append", required=True,
                   help="cross-cluster helper count (repeatable for several curves)")
    p.add_argument("--tau", required=True, help="beta_I / beta_C ratio (rational >= 1)")
    p.add_argument("--M", required=True, help="file size (rational)")
    p.add_argument("--grid-start", required=True, help="first beta_C (rational)")
    p.add_argument("--grid-stop", required=True, help="last beta_C (rational)")
    p.add_argument("--grid-step", required=True, help="beta_C increment (rational > 0)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("verify", help="run claim checkers over a named config family")
    p.add_argument("--family", default="tiny",
                   help="config family (default %(default)s; an unknown name lists the valid ones)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="capacity effect of adding one separate node")
    p.add_argument("--n", type=int, default=None, help="base node count (must equal L*R)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--dI", type=int, default=None)
    p.add_argument("--dC", type=int, required=True)
    p.add_argument("--betaI", required=True)
    p.add_argument("--betaC", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("construct", help="search for a verified repair-by-transfer code instance")
    p.add_argument("--q", type=int, default=13, help="prime field size (>= 7)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=100_000, help="maximum search attempts")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
