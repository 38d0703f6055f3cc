"""Command line interface.

Subcommands: field-check, cone, markings, count, sieve, zeta, tamagawa,
limit-check, manin.  Configuration comes from a declarative key = value
file plus flag overrides; the cache directory can also be set through the
DP4SIEVE_CACHE environment variable.  Exit codes: 0 success, 2 invalid
configuration, 3 budget or resource limit exceeded, 4 internal invariant
violation.

numpy is loaded only by the subcommands that need it: count and manin load
the counting engine (secenum) on their first cache miss, and field-check,
sieve and zeta load it through the series kernel.  cone, markings,
tamagawa, limit-check and a count or manin whose every class is cached
run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BudgetExceeded, Dp4Error, InvalidConfig, TooLarge
from .field import make_field
from .harness import (
    RunConfig,
    asymptotic_report,
    config_from_mapping,
    counting_function,
    parse_config_file,
    write_outputs,
)
from .heightzeta import (
    euler_product,
    limit_formula_check,
    local_factor,
    tamagawa,
    zeta_p1_identity_check,
)
from .nslattice import export_inventory, export_markings
from .sieve import sieve_sum, stable_range_start


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dp4sieve",
        description="Exact curve counts on a split quartic del Pezzo over F_q(t) "
                    "and the sieve / Euler-product predictions they are tested against.")
    parser.add_argument("--config", help="declarative key = value configuration file")
    parser.add_argument("--field-p", type=int, help="override: characteristic")
    parser.add_argument("--field-n", type=int, help="override: extension degree")
    parser.add_argument("--epsilon", help="override: shrinking parameter (rational)")
    parser.add_argument("--d-max", type=int, help="override: top anticanonical degree")
    parser.add_argument("--budget", type=int, help="override: operation budget")
    parser.add_argument("--cache-dir", help="override: cache directory")
    parser.add_argument("--out-dir", default="reports", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("field-check", help="validate the field and its arithmetic tables")
    sub.add_parser("cone", help="export the cone inventory as JSON")
    sub.add_parser("markings", help="export the marking inventory as JSON")
    sub.add_parser("count", help="counting function N(d), CSV/JSON")
    p = sub.add_parser("sieve", help="truncated sieve sums, one Euler-type product per contact pattern")
    p.add_argument("--k", default="0,0,0,0")
    p = sub.add_parser("zeta", help="Euler product coefficients at small truncation")
    p.add_argument("--orders", default="2,2,2,2")
    p.add_argument("--N", type=int, default=3)
    sub.add_parser("tamagawa", help="Tamagawa constant convergence table")
    sub.add_parser("limit-check", help="Abel limit consistency table")
    sub.add_parser("manin", help="full pipeline: counts, predictions, reports")
    return parser


def _load_config(args) -> RunConfig:
    overrides = {
        "field.p": args.field_p,
        "field.n": args.field_n,
        "epsilon": args.epsilon,
        "d_max": args.d_max,
        "budget": args.budget,
        "cache_dir": args.cache_dir or os.environ.get("DP4SIEVE_CACHE"),
    }
    if args.config:
        return parse_config_file(args.config, overrides)
    return config_from_mapping({k: v for k, v in overrides.items() if v is not None})


def _cmd_field_check(cfg: RunConfig, args) -> int:
    K = make_field(cfg.p, cfg.n)
    ok = zeta_p1_identity_check(K, 6)
    info = {
        "p": K.p, "n": K.n, "q": K.q, "modulus": list(K.modulus),
        "zeta_identity_through_t6": ok is True,
    }
    print(json.dumps(info, indent=2))
    return 0 if ok is True else 4


def _cmd_cone(cfg: RunConfig, args) -> int:
    print(json.dumps(export_inventory(), indent=2))
    return 0


def _cmd_markings(cfg: RunConfig, args) -> int:
    print(json.dumps(export_markings(), indent=2))
    return 0


def _partial(report) -> bool:
    return any(f.startswith("budget_exceeded") for f in report.flags)


def _cmd_count(cfg: RunConfig, args) -> int:
    report = counting_function(cfg)
    paths = write_outputs(report, args.out_dir, f"count_q{cfg.q}_d{cfg.d_max}")
    print("\n".join(paths))
    return 3 if _partial(report) else 0


def _four_degrees(flag: str, text: str) -> tuple:
    """Exactly four comma-separated non-negative integers, else InvalidConfig."""
    try:
        vals = tuple(int(s) for s in text.split(","))
    except ValueError:
        vals = ()
    if len(vals) != 4 or min(vals) < 0:
        raise InvalidConfig(f"{flag} needs four non-negative integers, got {text!r}")
    return vals


def _cmd_sieve(cfg: RunConfig, args) -> int:
    k = _four_degrees("--k", args.k)
    K = make_field(cfg.p, cfg.n)
    partials = sieve_sum(K, k, cfg.sieve_D)
    start = stable_range_start(k)
    payload = {
        "q": K.q, "k": list(k), "lattice": "subspace16",
        "stable_range_hint": {"a": start, "b": start},
        "partials": [str(p) for p in partials],
        "deltas": [str(b - a) for a, b in zip(partials, partials[1:])],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_zeta(cfg: RunConfig, args) -> int:
    orders = _four_degrees("--orders", args.orders)
    if args.N < 1:
        raise InvalidConfig(f"--N must be >= 1, got {args.N}")
    series = euler_product(cfg.q, args.N, orders)
    factor = local_factor(cfg.q, 1, orders)
    payload = {
        "q": cfg.q, "N": args.N, "orders": list(orders),
        "degree1_factor": {str(e): str(v) for e, v in sorted(factor.coeffs.items())},
        "coefficients": {str(e): str(v) for e, v in sorted(series.coeffs.items())},
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_tamagawa(cfg: RunConfig, args) -> int:
    lines = ["N,partial,increment"]
    res = tamagawa(cfg.q, cfg.euler_N)
    prev = None
    for n, part in enumerate(res.partials, start=1):
        inc = "" if prev is None else f"{abs(part - prev).numerator}/{abs(part - prev).denominator}"
        lines.append(f"{n},{part.numerator}/{part.denominator},{inc}")
        prev = part
    print("\n".join(lines))
    print(f"# enclosure width {res.enclosure_width}", file=sys.stderr)
    return 0


def _cmd_limit_check(cfg: RunConfig, args) -> int:
    res = limit_formula_check(cfg.q, cfg.euler_N, cfg.limit_m_max)
    lines = ["m,tau,lhs,rhs,gap,lhs_cutoff"]
    for i, tau in enumerate(res.taus):
        m = i + 1
        lines.append(
            f"{m},{tau.numerator}/{tau.denominator},"
            f"{res.lhs[i].numerator}/{res.lhs[i].denominator},"
            f"{res.rhs.numerator}/{res.rhs.denominator},"
            f"{res.gaps[i].numerator}/{res.gaps[i].denominator},{res.lhs_cutoffs[i]}")
    print("\n".join(lines))
    print(f"# gaps decreasing certified: {res.gaps_decreasing_certified}", file=sys.stderr)
    return 0


def _cmd_manin(cfg: RunConfig, args) -> int:
    report = asymptotic_report(cfg)
    paths = write_outputs(report, args.out_dir, f"manin_q{cfg.q}_d{cfg.d_max}")
    print("\n".join(paths))
    return 3 if _partial(report) else 0


_COMMANDS = {
    "field-check": _cmd_field_check,
    "cone": _cmd_cone,
    "markings": _cmd_markings,
    "count": _cmd_count,
    "sieve": _cmd_sieve,
    "zeta": _cmd_zeta,
    "tamagawa": _cmd_tamagawa,
    "limit-check": _cmd_limit_check,
    "manin": _cmd_manin,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except InvalidConfig as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except TooLarge as exc:
        print(f"resource limit exceeded: {exc}", file=sys.stderr)
        return 3
    except Dp4Error as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
