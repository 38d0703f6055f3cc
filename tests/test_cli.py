import json
import pathlib
import time

import pytest

from dp4sieve import cli, sieve
from dp4sieve.cli import main
from dp4sieve.errors import TooLarge
from dp4sieve.harness import parse_config_file
from dp4sieve.nslattice import ShrunkenCone
from dp4sieve.sieve import stable_range_I

CONFIGS = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.cfg"))
Q3 = next(path for path in CONFIGS if path.name == "q3.cfg")


def test_field_check(capsys):
    assert main(["--field-p", "2", "--field-n", "2", "field-check"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["q"] == 4 and out["modulus"] == [1, 1, 1]


def test_cone_and_markings(capsys):
    assert main(["cone"]) == 0
    cone = json.loads(capsys.readouterr().out)
    assert len(cone["minus_one_classes"]) == 16
    assert len(cone["conic_classes"]) == 10
    assert main(["markings"]) == 0
    markings = json.loads(capsys.readouterr().out)
    assert len(markings) == 1920


def test_sieve_command(capsys):
    assert main(["--field-p", "3", "sieve", "--k", "1,0,0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partials"][0] == "4/9"


@pytest.mark.parametrize("k", ["0,0,0,0", "1,0,0,0", "1,1,0,0", "3,2,2,2"])
def test_sieve_stable_range_hint(capsys, k):
    # the least a = b whose class lies in the stable range I >= 0
    assert main(["--field-p", "3", "sieve", "--k", k]) == 0
    hint = json.loads(capsys.readouterr().out)["stable_range_hint"]
    a, kk = hint["a"], tuple(int(v) for v in k.split(","))
    assert hint["b"] == a
    assert stable_range_I(a, a, kk) >= 0 > stable_range_I(a - 1, a - 1, kk)


def test_zeta_command(capsys):
    assert main(["--field-p", "3", "zeta", "--N", "2", "--orders", "1,1,1,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # degree-1 factor coefficient of t_1 at q=3:
    # 1/3 - 2/9 + 2/81 - 1/243 = 32/243
    assert payload["degree1_factor"]["(1, 0, 0, 0)"] == "32/243"


def test_tamagawa_command(capsys):
    assert main(["--field-p", "3", "tamagawa"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,partial,increment"
    assert len(lines) == 11


def test_count_command(tmp_path, capsys):
    code = main(["--field-p", "3", "--d-max", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--out-dir", str(tmp_path / "out"), "count"])
    assert code == 0
    paths = capsys.readouterr().out.strip().splitlines()
    assert len(paths) == 2
    csv = open(paths[0]).read()
    assert csv.splitlines()[0] == "d,N,N_eps,prediction,ratio,upper_bound,flags"
    assert csv.splitlines()[1].startswith("0,16,16")


def test_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("epsilon = 0\n")
    assert main(["--config", str(bad), "field-check"]) == 2


def test_epsilon_above_1_exits_2_before_any_output(tmp_path):
    out = tmp_path / "o"
    assert main(["--epsilon", "3/2", "--out-dir", str(out), "count"]) == 2
    assert not out.exists()


def test_tiny_epsilon_writes_the_fixed_diagnostic(tmp_path):
    # q^epsilon <= q < 2^32 for every accepted epsilon, so the diagnostic is
    # a constant, and no 2^(32 * 10^7) is built
    assert main(["--epsilon", "1/10000000", "--d-max", "0", "--out-dir", str(tmp_path),
                 "manin"]) == 0
    report = json.loads((tmp_path / "manin_q3_d0.json").read_text())
    assert report["constants"]["q_epsilon_exceeds_C"] is False
    assert "q^epsilon <= 2^32: asymptotic error-term regime out of reach (diagnostic only)" \
        in report["flags"]


# a typo must not fall back to the default, d_max = 4; and alpha is
# Peyre's constant, which no config key chooses
@pytest.mark.parametrize("key, value", [("dmax", "2"), ("alpha_normalization", "volume_rho")],
                         ids=["dmax", "alpha_normalization"])
def test_unknown_config_key_is_a_config_error(key, value, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(f"field.p = 3\n{key} = {value}\n")
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path / "o"), "count"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1
    assert repr(key) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("p", ["17", "4", "2"])
def test_unsupported_field_is_a_config_error(p, tmp_path, capsys):
    # 17 lies outside the supported characteristics, 4 is not prime (F_4 is
    # --field-p 2 --field-n 2), and P^1(F_2) has too few points for four
    # distinct centres
    code = main(["--field-p", p, "--d-max", "1", "--out-dir", str(tmp_path), "count"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text", [
    "field.p = 5\npoints = 0,0,1,2; 0,1,2,3\n",            # repeated first coordinate
    "field.p = 5\npoints = 0,1,2,3; 0,1,1,inf\n",          # repeated second coordinate
    "field.p = 5\npoints = 0,1,2,7; 0,1,2,3\n",            # 7 is not in F_5
    "field.p = 5\npoints = -1,1,2,3; 0,1,2,3\n",           # nor is -1
    "field.p = 2\nfield.n = 2\npoints = 0,1,2,inf; 0,1,2,9\n",  # 9 is not in F_4
], ids=["repeat-first", "repeat-second", "7-over-F5", "negative", "9-over-F4"])
def test_bad_points_are_a_config_error(text, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = main(["--config", str(cfg), "--d-max", "1", "--out-dir", str(tmp_path / "o"), "count"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: bad points: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_corrupt_cache_byte_is_an_invariant_violation(tmp_path, capsys):
    argv = ["--field-p", "3", "--d-max", "1", "--cache-dir", str(tmp_path / "c"),
            "--out-dir", str(tmp_path / "o"), "count"]
    assert main(argv) == 0
    path = tmp_path / "c" / "counts.jsonl"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = 0xFF
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal invariant violation: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out-dir", "--cache-dir"])
def test_a_path_that_names_a_file_is_an_io_error(flag, tmp_path, capsys):
    # a file where a directory should be: exit 4, the code IoError shares
    # with every other failed read or write, and one message line after the
    # stage progress lines.  Both directories are made before any class is
    # counted, so the counting stage never reports
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = ["--field-p", "3", "--d-max", "1", "--out-dir", str(tmp_path / "o"),
            "--cache-dir", str(tmp_path / "c"), "count"]
    argv[argv.index(flag) + 1] = str(taken)
    assert main(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("internal invariant violation: cannot ")
    assert all(line.startswith("[dp4sieve] ") for line in err[:-1])
    assert not any(line.startswith("[dp4sieve] counting stage") for line in err)


def test_budget_exit_code(tmp_path):
    # a budget of 10 admits the classes with a constant side, which are
    # counted in closed form and charged nothing, and refuses the first
    # (1, 1) class, of h = 2; the report is still written and the exit
    # code is 3
    code = main(["--field-p", "3", "--d-max", "2", "--budget", "10",
                 "--cache-dir", str(tmp_path / "c"),
                 "--out-dir", str(tmp_path / "o"), "count"])
    assert code == 3
    # no nef class has h = 1, so d = 0 and d = 1 hold the 16 constant maps,
    # complete, and d = 2 is the one partial row
    report = json.loads((tmp_path / "o" / "count_q3_d2.json").read_text())
    assert report["rows"] == [{"d": 0, "N": 16, "N_eps": 16}, {"d": 1, "N": 16, "N_eps": 16},
                              {"d": 2, "partial": True}]
    assert "budget_exceeded_at_d=2" in report["flags"]


@pytest.mark.parametrize("argv", [
    ["sieve", "--k", "x"],
    ["sieve", "--k", "1,2"],
    ["sieve", "--k=-1,0,0,0"],
    ["zeta", "--N", "0"],
    ["zeta", "--orders", "1,1"],
], ids=["k-not-integer", "k-two-entries", "k-negative", "N-zero", "orders-two-entries"])
def test_bad_subcommand_argument_is_a_config_error(argv, capsys):
    assert main(["--field-p", "3"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1


def test_sieve_monomial_cap_exit_code(capsys):
    start = time.perf_counter()
    assert main(["--field-p", "3", "sieve", "--k", "40,40,40,40"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("resource limit exceeded: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["zeta", "--N", "7"],
    ["zeta", "--N", "40"],
    ["zeta", "--orders", "200,200,200,200", "--N", "1"],
], ids=["N7-digits", "N40-digits", "orders-monomials"])
def test_zeta_resource_limit_exit_code(argv, capsys):
    # N = 7 gives a constant coefficient of 5,914 digits, past Python's
    # 4,300-digit int-to-str limit; 201^4 monomials exceed the series cap
    start = time.perf_counter()
    assert main(["--field-p", "3"] + argv) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("resource limit exceeded: ") and err.count("\n") == 1


def test_limit_check_cutoff_cap_exit_code(tmp_path, capsys):
    # m = 12 would need local factors to degree ~40,000; refused before any
    # product, while the shipped limit_m_max = 5 runs
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(Q3.read_text() + "limit_m_max = 12\n")
    start = time.perf_counter()
    assert main(["--config", str(cfg), "limit-check"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("resource limit exceeded: ") and err.count("\n") == 1
    assert main(["--config", str(Q3), "limit-check"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 6


def test_manin_tests_each_class_against_the_cone_once(monkeypatch, tmp_path, capsys):
    # the 78 nef classes with h <= 4: N_eps and the alpha_eps estimate share
    # one membership pass
    calls = []
    contains = ShrunkenCone.contains

    def counted(self, alpha):
        calls.append(alpha)
        return contains(self, alpha)

    monkeypatch.delenv("DP4SIEVE_CACHE", raising=False)
    monkeypatch.setattr(ShrunkenCone, "contains", counted)
    assert main(["--config", str(Q3), "--out-dir", str(tmp_path), "manin"]) == 0
    assert len(calls) == len(set(calls)) == 78


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(path, tmp_path, capsys):
    code = main(["--config", str(path), "--d-max", "1",
                 "--out-dir", str(tmp_path), "count"])
    assert code == 0
    json_path = next(p for p in capsys.readouterr().out.split() if p.endswith(".json"))
    report = json.loads(pathlib.Path(json_path).read_text())
    points = parse_config_file(str(path)).points
    assert report["config"]["points"] == (None if points is None
                                          else [list(pair) for pair in points])


def test_fractional_scaled_sieve_coefficient_is_an_invariant_violation(monkeypatch, capsys):
    # without the q-power scaling the sieve factors are not integral: the
    # kernel refuses with exit 4 and a message, not a traceback
    sieve._sieve_partials.cache_clear()
    monkeypatch.setattr(sieve, "SIEVE_WEIGHTS", (0,) * 5)
    assert main(["--field-p", "3", "sieve", "--k", "1,0,0,0"]) == 4
    sieve._sieve_partials.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("internal invariant violation: coefficient ") and err.count("\n") == 1


def test_group_table_cap_exit_code(monkeypatch, tmp_path, capsys):
    # q = 49 and q = 64 at degree 2 would need PGL_2(F_q) tables of 288 M
    # and 1.09 G entries; a cap lowered below q = 25's degree-1 table,
    # 15,600 elements on 26 ids, refuses that one instead.  The refused
    # classes end the count as partial rows, as a budget refusal does: the
    # rows below their h are written, equal to an uncapped run's
    from dp4sieve import secenum

    def count(d_max, out):
        argv = ["--field-p", "5", "--field-n", "2", "--d-max", str(d_max),
                "--out-dir", str(tmp_path / out), "count"]
        code = main(argv)
        report = json.loads((tmp_path / out / f"count_q25_d{d_max}.json").read_text())
        return code, report, capsys.readouterr().err

    with monkeypatch.context() as mp:
        mp.setattr(secenum, "_GROUP_CAP", 15_600 * 26 - 1)
        code, report, err = count(2, "capped")
    assert code == 3
    assert err.startswith("resource limit exceeded: PGL_2(F_25) acting on 26 degree-1 ")
    assert err.count("resource limit exceeded") == 1
    assert report["rows"][-1] == {"d": 2, "partial": True}
    assert report["flags"] == ["resource_limit_at_d=2"]
    code, full, _ = count(1, "uncapped")
    assert code == 0
    assert report["rows"][:-1] == full["rows"] and len(full["rows"]) == 2


def test_constant_maps_need_no_group_table(tmp_path):
    # N(0) is the 344^2 constant maps to P^1 x P^1, counted in closed form:
    # no PGL_2(F_343) table, of 40 M rows, is built, and the count is not
    # refused
    argv = ["--field-p", "7", "--field-n", "3", "--d-max", "0",
            "--out-dir", str(tmp_path), "count"]
    assert main(argv) == 0
    report = json.loads((tmp_path / "count_q343_d0.json").read_text())
    assert report["rows"] == [{"d": 0, "N": 344 ** 2, "N_eps": 344 ** 2}]
    assert report["flags"] == []


def test_resource_limit_exit_code(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise TooLarge("join histogram would need 10**9 bins")

    monkeypatch.setattr(cli, "counting_function", refuse)
    assert main(["--field-p", "3", "--out-dir", str(tmp_path), "count"]) == 3
    err = capsys.readouterr().err
    assert err == "resource limit exceeded: join histogram would need 10**9 bins\n"
