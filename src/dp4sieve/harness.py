"""Orchestration: counting functions over the nef cone, predictions,
caching, and deterministic report emission.

Reports carry the full run configuration verbatim plus every truncation
parameter used, and contain no wall-clock data, so identical configurations
produce byte-identical CSV/JSON.  Cache statistics and stage timings go to
stderr only.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    CoincidentFirstCoords,
    CoincidentSecondCoords,
    CorruptCache,
    FieldTooSmall,
    InvalidConfig,
    IoError,
    NonPrime,
    TooLarge,
    UnsupportedSize,
    VersionMismatch,
)
from .field import make_field
from .heightzeta import tamagawa
from .nslattice import ShrunkenCone, enumerate_nef_points, nef_cone_volume_level1
from .surface import DEFAULT_BUDGET, default_config, validate_points

CACHE_FORMAT_VERSION = 1
COUNT_CODE_VERSION = 1      # bump when counting semantics change
RHO = 6

CONFIG_KEYS = ("field.p", "field.n", "points", "epsilon", "d_max", "sieve_D", "euler_N",
               "limit_m_max", "budget", "cache_dir")


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig:
    p: int = 3
    n: int = 1
    points: tuple | None = None        # 4 pairs of projective points, or None for default
    epsilon: Fraction = Fraction(1, 8)
    d_max: int = 4
    sieve_D: int = 3
    euler_N: int = 10
    limit_m_max: int = 5
    budget: int = DEFAULT_BUDGET
    cache_dir: str | None = None

    def __post_init__(self):
        # refuse a field or points no surface can be built from; the default
        # surface itself is built once, by the run
        try:
            K = make_field(self.p, self.n)
            if self.points is not None:
                validate_points(K, self.points, allow_on_bidegree_curve=True)
            elif K.q < 3:
                raise FieldTooSmall("the default centres need four points of P^1(F_q)")
        except (NonPrime, UnsupportedSize, FieldTooSmall) as exc:
            raise InvalidConfig(f"unsupported field: {exc}") from exc
        except (CoincidentFirstCoords, CoincidentSecondCoords, ValueError) as exc:
            raise InvalidConfig(f"bad points: {exc}") from exc
        # every nonzero nef class has ell <= h - 2 < h, so each epsilon >= 1
        # shrinks the cone to {0}, as epsilon = 1 does
        if not 0 < self.epsilon <= 1:
            raise InvalidConfig("epsilon must be in (0, 1]")
        if min(self.d_max, self.sieve_D) < 0 or min(self.euler_N, self.limit_m_max) < 1:
            raise InvalidConfig("d_max and sieve_D must be >= 0, euler_N and limit_m_max >= 1")
        if self.budget <= 0:
            raise InvalidConfig("budget must be > 0")

    @property
    def q(self) -> int:
        return self.p ** self.n

    def surface(self):
        if self.points is None:
            return default_config(self.q)
        K = make_field(self.p, self.n)
        return validate_points(K, self.points, allow_on_bidegree_curve=True)

    def as_dict(self) -> dict:
        return {
            "p": self.p, "n": self.n,
            "points": self.points if self.points is None else [
                list(pair) for pair in self.points],
            "epsilon": str(self.epsilon),
            "d_max": self.d_max, "sieve_D": self.sieve_D,
            "euler_N": self.euler_N, "limit_m_max": self.limit_m_max,
            "budget": self.budget,
            "alpha_normalization": "volume_rho",    # names alpha = rho * vol
        }


def parse_config_file(path: str, overrides: dict | None = None) -> RunConfig:
    """Read a declarative key = value file; '#' starts a comment.

    The keys are CONFIG_KEYS: field.p, field.n, points (two
    semicolon-separated coordinate lists, e.g. "0,1,2,inf; 0,1,3,inf"),
    epsilon (rational string), d_max, sieve_D, euler_N, limit_m_max, budget,
    cache_dir.  Any other key is refused.
    """
    raw: dict = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidConfig(f"{path}:{lineno}: expected key = value")
                key, val = (s.strip() for s in line.split("=", 1))
                raw[key] = val
    except OSError as exc:
        raise InvalidConfig(f"cannot read config file: {exc}") from exc
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_mapping(raw)


def config_from_mapping(raw: dict) -> RunConfig:
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise InvalidConfig(f"unknown config key: {', '.join(map(repr, unknown))}")
    kw: dict = {}
    try:
        if "field.p" in raw:
            kw["p"] = int(raw["field.p"])
        if "field.n" in raw:
            kw["n"] = int(raw["field.n"])
        if raw.get("points"):
            kw["points"] = _parse_points(raw["points"])
        if "epsilon" in raw:
            kw["epsilon"] = Fraction(raw["epsilon"])
        for key in ("d_max", "sieve_D", "euler_N", "limit_m_max", "budget"):
            if key in raw:
                kw[key] = int(raw[key])
        if "cache_dir" in raw:
            kw["cache_dir"] = raw["cache_dir"]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidConfig(f"bad config value: {exc}") from exc
    return RunConfig(**kw)


def _parse_points(text: str):
    halves = text.split(";")
    if len(halves) != 2:
        raise InvalidConfig("points must be 'u1,u2,u3,u4; v1,v2,v3,v4'")
    us = [s.strip() for s in halves[0].split(",")]
    vs = [s.strip() for s in halves[1].split(",")]
    if len(us) != 4 or len(vs) != 4:
        raise InvalidConfig("points needs 4 + 4 coordinate entries")

    def conv(s):
        return "inf" if s == "inf" else int(s)

    return tuple(((conv(u)), (conv(v))) for u, v in zip(us, vs))


# ---------------------------------------------------------------------------
# cache

class CountCache:
    """JSON-lines cache of exact per-class counts with per-line checksums.

    The first line records the format version; each entry line is
    {"key": ..., "count": ..., "sha": ...} where sha is the first 16 hex
    digits of sha256 over key and count.  Any unreadable byte, malformed
    line, non-integer count or checksum failure surfaces as CorruptCache,
    never as a wrong count.  Writes go through a temp file
    followed by an atomic rename.
    """

    def __init__(self, directory: str | None):
        self.directory = directory
        self.entries: dict = {}
        self.hits = 0
        self.misses = 0
        if directory:
            self._load()

    @property
    def path(self):
        return os.path.join(self.directory, "counts.jsonl") if self.directory else None

    @staticmethod
    def _line_sha(key: str, count: int) -> str:
        import hashlib      # here, not at the top: hashlib loads OpenSSL, a few MB
        return hashlib.sha256(f"{key}|{count}".encode()).hexdigest()[:16]

    def _load(self):
        try:
            os.makedirs(self.directory, exist_ok=True)
            if not os.path.exists(self.path):
                return
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise CorruptCache(f"cache byte {exc.start} is not UTF-8") from exc
        except OSError as exc:
            raise IoError(f"cannot open cache: {exc}") from exc
        try:
            version = json.loads(lines[0] if lines else "").get("format")
        except (json.JSONDecodeError, AttributeError) as exc:
            raise CorruptCache("unreadable cache header") from exc
        if version != CACHE_FORMAT_VERSION:
            raise VersionMismatch(f"cache format {version} != {CACHE_FORMAT_VERSION}")
        for lineno, line in enumerate(lines[1:], 2):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key, count, sha = entry["key"], entry["count"], entry["sha"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise CorruptCache(f"cache line {lineno} unreadable") from exc
            if not (isinstance(key, str) and type(count) is int):
                raise CorruptCache(f"cache line {lineno} needs a string key and an integer count")
            if self._line_sha(key, count) != sha:
                raise CorruptCache(f"cache line {lineno} fails its checksum")
            self.entries[key] = count

    def flush(self):
        if not self.path:
            return
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(json.dumps({"format": CACHE_FORMAT_VERSION}) + "\n")
                for key in sorted(self.entries):
                    count = self.entries[key]
                    fh.write(json.dumps({"key": key, "count": count,
                                         "sha": self._line_sha(key, count)}) + "\n")
            os.replace(tmp, self.path)
        except OSError as exc:
            raise IoError(f"cannot write cache: {exc}") from exc

    @staticmethod
    def class_key(surface, a: int, b: int, k) -> str:
        payload = {
            "q": surface.field.q,
            "modulus": list(surface.field.modulus),
            "first": [list(p) for p in surface.first],
            "second": [list(p) for p in surface.second],
            "a": a, "b": b, "k": list(k),
            "code": COUNT_CODE_VERSION,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def lookup(self, key: str):
        if key in self.entries:
            self.hits += 1
            return self.entries[key]
        self.misses += 1
        return None

    def store(self, key: str, count: int):
        self.entries[key] = count


# ---------------------------------------------------------------------------
# counting reports

def count_morphisms(surface, a: int, b: int, k, budget: int) -> int:
    """secenum.count_morphisms, imported here, not at the top: the engine
    loads numpy and compiles secenum, which a run that counts nothing, or
    finds every count in its cache, never needs."""
    from .secenum import count_morphisms
    return count_morphisms(surface, a, b, k, budget=budget)


@dataclass
class CountReport:
    config: dict
    rows: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    # share of the nef classes with h <= d_max inside the shrunken cone;
    # never emitted
    in_cone_share: Fraction = Fraction(0)


def counting_function(cfg: RunConfig) -> CountReport:
    """Cumulative morphism counts N(d) and their shrunken-cone restriction
    N_eps(d) for d = 0..d_max, exact integers, cached per class in
    cfg.cache_dir.

    The classes are counted in ascending h.  The first one refused for its
    budget or for its size ends the count and makes the row of its h
    partial and the last, flagged budget_exceeded_at_d or
    resource_limit_at_d; a size refusal's reason goes to stderr."""
    surface = cfg.surface()
    cache = CountCache(cfg.cache_dir)
    cone = ShrunkenCone(epsilon=cfg.epsilon)
    report = CountReport(config=cfg.as_dict())
    report.constants["q"] = cfg.q
    if surface.on_bidegree_curve:
        report.flags.append("points_on_bidegree_curve")

    t0 = time.perf_counter()
    classes = enumerate_nef_points(cfg.d_max)
    per_class = {}
    refused = None      # (h, flag, reason) of the refused class
    # stable: coordinate order within an h, so the first refusal is the least
    # refused h's first, and every class from it on is cut from the rows
    for alpha in sorted(classes, key=lambda x: x.h):
        # counts are marking independent, so every class is counted with
        # its identity-model invariants
        # a key only for a cache directory: without one every class misses
        key = cache.directory and CountCache.class_key(surface, alpha.a, alpha.b, alpha.k)
        val = cache.lookup(key)
        if val is None:
            try:
                val = count_morphisms(surface, alpha.a, alpha.b, alpha.k, budget=cfg.budget)
            except (BudgetExceeded, TooLarge) as exc:
                flag = "budget_exceeded" if isinstance(exc, BudgetExceeded) else "resource_limit"
                refused = (alpha.h, flag, str(exc))
                break
            if key:
                cache.store(key, val)
        per_class[alpha] = val
    counting_seconds = time.perf_counter() - t0
    cache.flush()

    in_cone = {alpha for alpha in classes if cone.contains(alpha)}
    report.in_cone_share = Fraction(len(in_cone), len(classes))
    for d in range(cfg.d_max + 1):
        if refused is not None and d >= refused[0]:
            report.rows.append({"d": d, "partial": True})
            report.flags.append(f"{refused[1]}_at_d={d}")
            if refused[1] == "resource_limit":
                print(f"resource limit exceeded: {refused[2]}", file=sys.stderr)
            break
        total = sum(v for al, v in per_class.items() if al.h <= d)
        total_eps = sum(v for al, v in per_class.items() if al.h <= d and al in in_cone)
        report.rows.append({"d": d, "N": total, "N_eps": total_eps})
    print(f"[dp4sieve] counting stage: {counting_seconds:.3f}s, "
          f"cache hits {cache.hits} misses {cache.misses}", file=sys.stderr)
    return report


def asymptotic_report(cfg: RunConfig) -> CountReport:
    """Counting rows augmented with the prediction
    (1 - q^{-1}) alpha tau q^d d^5 and the upper-bound constant.

    alpha is Peyre's constant rho * vol{y nef : h(y) <= 1} = 6/1080 = 1/180:
    the integral of e^{-h} over the nef cone is rho! vol{h <= 1}, and Peyre
    divides it by (rho - 1)!."""
    report = counting_function(cfg)
    q = cfg.q
    tam = tamagawa(q, cfg.euler_N)
    vol = nef_cone_volume_level1()
    alpha = RHO * vol
    # the upper-bound constant uses the full nef cone's alpha
    upper = alpha * q ** 2 / (1 - Fraction(1, q)) ** 7
    # the shrunken cone is a union of marking cones; its exact volume is
    # not a convex-polytope computation, so the report carries a lattice
    # estimate alpha * (#shrunken lattice points / #nef lattice points at
    # d_max), clearly flagged
    alpha_eps = alpha * report.in_cone_share
    report.flags.append("alpha_eps_estimated_from_lattice_counts")
    report.constants.update({
        "tamagawa_N": cfg.euler_N,
        "tamagawa": str(tam.value),
        "tamagawa_last_increment": str(tam.last_increment),
        "alpha_normalization": "volume_rho",
        "alpha_full_cone": str(alpha),
        "alpha_eps_estimate": str(alpha_eps),
        "nef_volume_level1": str(vol),
        "upper_bound_constant": str(upper),
        "rho": RHO,
        "epsilon": str(cfg.epsilon),
    })
    # fixed labels, kept for byte identity: epsilon <= 1 and q <= 13^3 give
    # q^epsilon <= q < 2^32, so q^epsilon never exceeds C = 2^32
    report.constants["q_epsilon_exceeds_C"] = False
    report.flags.append("q^epsilon <= 2^32: asymptotic error-term regime out of reach (diagnostic only)")
    pref = (1 - Fraction(1, q)) * alpha * tam.value
    for row in report.rows:
        if row.get("partial"):
            continue
        d = row["d"]
        if d >= 1:
            pred = pref * q ** d * Fraction(d) ** (RHO - 1)
            ratio = Fraction(row["N"], q ** d * d ** (RHO - 1))
            row["prediction"] = pred
            row["ratio"] = ratio
            row["upper_bound"] = upper
            if ratio > upper:
                row["flag"] = "ratio_above_upper_bound_constant"
        else:
            row["prediction"] = Fraction(0)
            row["ratio"] = ""
            row["upper_bound"] = upper
    return report


# ---------------------------------------------------------------------------
# emission

def _fmt(value) -> str:
    return "" if value is None else str(value)


def emit_csv(report: CountReport) -> str:
    cols = ["d", "N", "N_eps", "prediction", "ratio", "upper_bound", "flags"]
    lines = [",".join(cols)]
    for row in report.rows:
        flags = row.get("flag", "") or ("partial" if row.get("partial") else "")
        lines.append(",".join([
            _fmt(row.get("d")), _fmt(row.get("N")), _fmt(row.get("N_eps")),
            _fmt(row.get("prediction")), _fmt(row.get("ratio")),
            _fmt(row.get("upper_bound")), flags,
        ]))
    return "\n".join(lines) + "\n"


def emit_json(report: CountReport) -> str:
    payload = {
        "config": report.config,
        "constants": report.constants,
        "flags": report.flags,
        "rows": [
            {k: (str(v) if isinstance(v, Fraction) else v) for k, v in row.items()}
            for row in report.rows
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def make_out_dir(out_dir: str, stem: str):
    """Create the report directory, before any counting, so that an
    unusable one fails at once and not after the whole count."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot write the {stem} report: {exc}") from exc


def write_outputs(report: CountReport, out_dir: str, stem: str) -> list:
    """Write the CSV and JSON reports into out_dir, which make_out_dir made."""
    paths = [os.path.join(out_dir, f"{stem}.{fmt}") for fmt in ("csv", "json")]
    try:
        for path, emit in zip(paths, (emit_csv, emit_json)):
            with open(path, "w") as fh:
                fh.write(emit(report))
    except OSError as exc:
        raise IoError(f"cannot write the {stem} report: {exc}") from exc
    return paths
