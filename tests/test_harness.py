import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import clear_caches

from dp4sieve.errors import CorruptCache, InvalidConfig, IoError, VersionMismatch
from dp4sieve.harness import (
    RHO,
    CountCache,
    RunConfig,
    asymptotic_report,
    config_from_mapping,
    counting_function,
    emit_csv,
    emit_json,
    parse_config_file,
)
from dp4sieve.nslattice import nef_cone_volume_level1


def test_runconfig_validation():
    with pytest.raises(InvalidConfig):
        RunConfig(epsilon=Fraction(0))
    for bad in ({"sieve_D": -1}, {"euler_N": 0}, {"limit_m_max": 0}, {"budget": 0},
                {"d_max": -1}, {"p": 2}, {"points": ((0, 0), (0, 1), (1, 2), (2, "inf"))}):
        with pytest.raises(InvalidConfig):
            RunConfig(**bad)
    cfg = RunConfig(p=3, d_max=2)
    assert cfg.q == 3


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "field.p = 2\n"
        "field.n = 2\n"
        "points = 0,1,2,inf; 0,1,2,3\n"
        "epsilon = 1/10\n"
        "d_max = 3\n"
        "budget = 1024\n")
    cfg = parse_config_file(str(path))
    assert (cfg.p, cfg.n, cfg.q) == (2, 2, 4)
    assert cfg.epsilon == Fraction(1, 10)
    assert cfg.points[3] == ("inf", 3)
    assert cfg.budget == 1024
    # flag overrides win
    cfg2 = parse_config_file(str(path), {"d_max": "5"})
    assert cfg2.d_max == 5
    bad = tmp_path / "bad.cfg"
    bad.write_text("whatever\n")
    with pytest.raises(InvalidConfig):
        parse_config_file(str(bad))


def test_cache_roundtrip(tmp_path):
    cache = CountCache(str(tmp_path))
    cfg = RunConfig(p=3, d_max=1, cache_dir=str(tmp_path))
    surface = cfg.surface()
    key = CountCache.class_key(surface, 1, 1, (0, 0, 0, 0))
    assert cache.lookup(key) is None
    cache.store(key, 864)
    cache.flush()
    fresh = CountCache(str(tmp_path))
    assert fresh.lookup(key) == 864
    # a different configuration misses
    other = CountCache.class_key(surface, 1, 2, (0, 0, 0, 0))
    assert fresh.lookup(other) is None


def test_no_cache_key_without_a_cache(monkeypatch, capsys):
    # with no cache directory no class key is built, and every class still
    # counts as a miss
    from dp4sieve.nslattice import enumerate_nef_points

    def refuse(*args):
        raise AssertionError("a class key without a cache directory")

    monkeypatch.setattr(CountCache, "class_key", staticmethod(refuse))
    report = counting_function(RunConfig(p=3, d_max=2))
    assert report.rows[0] == {"d": 0, "N": 16, "N_eps": 16}
    misses = len(enumerate_nef_points(2))
    assert capsys.readouterr().err.endswith(f"cache hits 0 misses {misses}\n")


def test_cache_corruption_detected(tmp_path):
    cache = CountCache(str(tmp_path))
    cfg = RunConfig(p=3, d_max=1, cache_dir=str(tmp_path))
    key = CountCache.class_key(cfg.surface(), 1, 1, (0, 0, 0, 0))
    cache.store(key, 864)
    cache.flush()
    lines = open(cache.path).read().splitlines()
    tampered = lines[1].replace("864", "865")
    open(cache.path, "w").write("\n".join([lines[0], tampered]) + "\n")
    with pytest.raises(CorruptCache):
        CountCache(str(tmp_path))


def test_cache_rejects_a_string_count(tmp_path):
    # the checksum hashes f"{key}|{count}", so "5" and 5 share a checksum
    path = os.path.join(str(tmp_path), "counts.jsonl")
    sha = CountCache._line_sha("k", 5)
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": 1}) + "\n")
        fh.write(json.dumps({"key": "k", "count": "5", "sha": sha}) + "\n")
    with pytest.raises(CorruptCache):
        CountCache(str(tmp_path))


def test_unreadable_cache_is_an_io_error(tmp_path):
    os.mkdir(os.path.join(str(tmp_path), "counts.jsonl"))
    with pytest.raises(IoError):
        CountCache(str(tmp_path))


def test_cache_version_mismatch(tmp_path):
    path = os.path.join(str(tmp_path), "counts.jsonl")
    open(path, "w").write(json.dumps({"format": 999}) + "\n")
    with pytest.raises(VersionMismatch):
        CountCache(str(tmp_path))


def test_counting_function_basics(tmp_path):
    cfg = RunConfig(p=3, d_max=2, cache_dir=str(tmp_path))
    report = counting_function(cfg)
    rows = report.rows
    # d = 0: constant maps, (q+1)^2 of them
    assert rows[0] == {"d": 0, "N": 16, "N_eps": 16}
    ns = [r["N"] for r in rows]
    assert ns == sorted(ns)
    assert all(r["N_eps"] <= r["N"] for r in rows)


def test_counting_partition_consistency(tmp_path):
    # recomputing from the populated cache gives identical rows
    cfg = RunConfig(p=3, d_max=3, cache_dir=str(tmp_path))
    first = counting_function(cfg)
    clear_caches()
    second = counting_function(cfg)
    assert first.rows == second.rows


def test_shrunken_monotonicity_in_epsilon(tmp_path):
    base = RunConfig(p=3, d_max=3, cache_dir=str(tmp_path))
    small = RunConfig(p=3, d_max=3, cache_dir=str(tmp_path), epsilon=Fraction(1, 100))
    big = RunConfig(p=3, d_max=3, cache_dir=str(tmp_path), epsilon=Fraction(1, 2))
    r_small = counting_function(small)
    r_big = counting_function(big)
    for rs, rb in zip(r_small.rows, r_big.rows):
        assert rs["N_eps"] >= rb["N_eps"]
    del base


def test_epsilon_above_1_is_refused():
    # every epsilon >= 1 gives the cone {0}: only (0, 1] is accepted
    assert RunConfig(epsilon=Fraction(1)).epsilon == 1
    with pytest.raises(InvalidConfig, match="epsilon"):
        RunConfig(epsilon=Fraction(3, 2))


def test_count_stops_at_the_first_refusal(monkeypatch):
    # budget 100 at q = 3 admits (2, 0), of h = 4, whose constant side is
    # charged nothing, but refuses every (1, 1) class, cost 114, the least
    # of h = 2.  Classes go in
    # ascending h, coordinate order within an h, so the count stops at the
    # first (1, 1) class and never counts (2, 0), which precedes it in
    # coordinate order; the partial report is that of the whole walk
    from dp4sieve import harness

    called = []
    count = harness.count_morphisms

    def counting(surface, a, b, k, budget):
        called.append((a, b, tuple(k)))
        return count(surface, a, b, k, budget)

    monkeypatch.setattr(harness, "count_morphisms", counting)
    report = counting_function(RunConfig(p=3, d_max=4, budget=100))
    assert called == [(0, 0, (0, 0, 0, 0)), (1, 0, (0, 0, 0, 0)), (0, 1, (0, 0, 0, 0)),
                      (1, 1, (1, 1, 0, 0))]
    full = counting_function(RunConfig(p=3, d_max=1))
    assert report.rows == full.rows + [{"d": 2, "partial": True}]
    assert report.flags == ["points_on_bidegree_curve", "budget_exceeded_at_d=2"]


def test_emit_deterministic_and_exact(tmp_path):
    cfg = RunConfig(p=3, d_max=2, cache_dir=str(tmp_path))
    report = asymptotic_report(cfg)
    csv1, json1 = emit_csv(report), emit_json(report)
    report2 = asymptotic_report(cfg)
    assert emit_csv(report2) == csv1
    assert emit_json(report2) == json1
    assert "4/9" not in csv1 or "0.44" not in csv1  # rationals stay exact
    payload = json.loads(json1)
    assert payload["config"]["epsilon"] == "1/8"
    # round trip: parsing the json rows reproduces the report rows
    for row, orig in zip(payload["rows"], report.rows):
        assert int(row["N"]) == orig["N"]


def test_emit_empty_report():
    from dp4sieve.harness import CountReport

    empty = CountReport(config={})
    assert emit_csv(empty) == "d,N,N_eps,prediction,ratio,upper_bound,flags\n"


def test_asymptotic_report_constants(tmp_path):
    cfg = RunConfig(p=3, d_max=2, cache_dir=str(tmp_path), euler_N=4)
    report = asymptotic_report(cfg)
    consts = report.constants
    assert consts["rho"] == 6
    assert consts["alpha_normalization"] == "volume_rho"
    assert Fraction(consts["nef_volume_level1"]) == Fraction(1, 1080)
    # Peyre's alpha: vol{h <= t} = t^rho vol{h <= 1}, so the integral of
    # e^{-h} over the nef cone is rho vol{h <= 1} * int_0^oo t^(rho-1) e^{-t} dt
    # = rho! vol{h <= 1}; alpha divides it by (rho - 1)!, leaving 6/1080
    assert Fraction(consts["alpha_full_cone"]) == Fraction(1, 180) \
        == RHO * nef_cone_volume_level1()
    assert Fraction(consts["upper_bound_constant"]) == \
        Fraction(consts["alpha_full_cone"]) * 9 / (1 - Fraction(1, 3)) ** 7
    assert consts["q_epsilon_exceeds_C"] is False
    # predictions positive for d >= 1
    for row in report.rows:
        if row["d"] >= 1:
            assert row["prediction"] > 0


def test_config_from_mapping_defaults():
    cfg = config_from_mapping({})
    assert cfg.q == 3 and cfg.d_max == 4


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
CONFIG_KEYS = ("field.p", "field.n", "epsilon", "d_max", "sieve_D", "euler_N",
               "limit_m_max", "budget", "cache_dir")
_coordinate = st.one_of(st.integers(-1, 5).map(str), st.just("inf"), st.text(max_size=2))
_coordinates = st.one_of(st.lists(_coordinate, min_size=4, max_size=4),
                         st.lists(_coordinate, max_size=5))
_points_text = st.one_of(
    st.builds(lambda us, vs, sep: ",".join(us) + sep + ",".join(vs),
              _coordinates, _coordinates, st.sampled_from(["; ", ";", ",", ";;"])),
    st.text(max_size=12))
_config_value = st.one_of(
    st.text(max_size=8), st.integers(-10 ** 6, 10 ** 6).map(str),
    st.fractions(max_denominator=10).map(str),
    st.sampled_from(["1", "2", "3", "4", "5", "13", "17", "volume", "volume_rho"]))
_marked = st.permutations(["0", "1", "2", "inf"]).map(",".join)
_valid_values = {
    "points": st.builds(lambda us, vs: f"{us}; {vs}", _marked, _marked),
    "field.p": st.sampled_from(["2", "3", "5"]),
    "field.n": st.sampled_from(["1", "2"]),
    "epsilon": st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100).map(str),
    "d_max": st.integers(0, 8).map(str),
    "sieve_D": st.integers(0, 8).map(str),
    "euler_N": st.integers(1, 20).map(str),
    "limit_m_max": st.integers(1, 10).map(str),
    "budget": st.integers(1, 2 ** 40).map(str),
    "cache_dir": st.text(max_size=8),
}
_junk_values = {"points": _points_text, **{key: _config_value for key in CONFIG_KEYS}}


def _mostly_valid(key):
    # a valid value for the key nine times in ten, so that accepted
    # configurations are exercised, else anything
    return st.integers(0, 9).flatmap(lambda i: _junk_values[key] if i == 0 else _valid_values[key])


_config_mapping = st.fixed_dictionaries(
    {}, optional={key: _mostly_valid(key) for key in ("points",) + CONFIG_KEYS})
_unknown_keys = st.dictionaries(st.text(max_size=5).filter(lambda key: key not in CONFIG_KEYS),
                                _config_value, min_size=1, max_size=2)


@PROPERTY
@given(_config_mapping)
def test_config_from_mapping_returns_a_config_or_refuses(raw):
    try:
        cfg = config_from_mapping(raw)
    except InvalidConfig:
        return
    # a config that is accepted describes a surface the engine can build
    assert cfg.surface().field.q == cfg.q


@PROPERTY
@given(_config_mapping, _unknown_keys)
def test_config_from_mapping_refuses_unknown_keys(raw, extra):
    # drawn apart from the property above, which would otherwise see few
    # accepted configurations
    with pytest.raises(InvalidConfig, match="unknown config key"):
        config_from_mapping({**extra, **raw})


_cache_entries = st.dictionaries(st.text(), st.integers(), max_size=6)


@PROPERTY
@given(_cache_entries)
def test_cache_roundtrips_arbitrary_entries(entries):
    with tempfile.TemporaryDirectory() as directory:
        cache = CountCache(directory)
        for key, count in entries.items():
            cache.store(key, count)
        cache.flush()
        assert CountCache(directory).entries == entries


@PROPERTY
@given(_cache_entries, st.integers(min_value=0), st.integers(1, 255))
def test_one_changed_byte_never_passes_as_other_entries(entries, where, delta):
    with tempfile.TemporaryDirectory() as directory:
        cache = CountCache(directory)
        for key, count in entries.items():
            cache.store(key, count)
        cache.flush()
        with open(cache.path, "rb") as fh:
            data = bytearray(fh.read())
        where %= len(data)
        data[where] = (data[where] + delta) % 256
        with open(cache.path, "wb") as fh:
            fh.write(data)
        try:
            loaded = CountCache(directory).entries
        except (CorruptCache, VersionMismatch):
            return
        assert loaded == entries
