"""Per-class sieve-vs-count ledger: the benchmark's ledger-q3 workload.

For every nef class with h <= d_max of the configured surface it records the
exact morphism count, the truncated sieve prediction at D = sieve_D and the
Euler-product expectation at N = euler_N, then runs the Abel limit check.
The ledger is written as one deterministic JSON file (no timings), so a run
can be compared byte for byte with the recorded reference.

    PYTHONPATH=src python3 bench/ledger.py --config configs/q3.cfg --out-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from dp4sieve.harness import parse_config_file
from dp4sieve.heightzeta import expected_section_count, limit_formula_check, tamagawa
from dp4sieve.nslattice import ShrunkenCone, choose_marking, enumerate_nef_points
from dp4sieve.secenum import count_morphisms
from dp4sieve.sieve import prediction


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else \
            f"{value.numerator}/{value.denominator}"
    return str(value)


def build_ledger(cfg) -> dict:
    surface = cfg.surface()
    K = surface.field
    q = cfg.q
    cone = ShrunkenCone(epsilon=cfg.epsilon)
    rows = []
    for alpha in enumerate_nef_points(cfg.d_max):
        a, b, k = alpha.a, alpha.b, alpha.k
        marking = choose_marking(alpha)
        sieve = prediction(K, a, b, k, cfg.sieve_D)
        rows.append({
            "a": a, "b": b, "k": list(k), "h": alpha.h,
            "marking_fibers": [list(marking.f.coords), list(marking.fp.coords)],
            "in_shrunken_cone": cone.contains(alpha),
            "count": count_morphisms(surface, a, b, k, budget=cfg.budget),
            "sieve_prediction": _fmt(sieve.value),
            "stable_range": sieve.stable_range,
            "euler_expected": _fmt(expected_section_count(q, a, b, k, cfg.euler_N)),
        })
    limit = limit_formula_check(q, cfg.euler_N, cfg.limit_m_max)
    return {
        "q": q, "d_max": cfg.d_max, "sieve_D": cfg.sieve_D, "euler_N": cfg.euler_N,
        "tamagawa": _fmt(tamagawa(q, cfg.euler_N).value),
        "limit_check": {
            "m_max": cfg.limit_m_max,
            "gaps": [_fmt(g) for g in limit.gaps],
            "lhs_cutoffs": list(limit.lhs_cutoffs),
            "gaps_decreasing_certified": limit.gaps_decreasing_certified,
        },
        "rows": rows,
    }


def write_ledger(ledger: dict, out_dir: str, stem: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(ledger, sort_keys=True, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    cfg = parse_config_file(args.config)
    print(write_ledger(build_ledger(cfg), args.out_dir, f"ledger_q{cfg.q}_d{cfg.d_max}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
