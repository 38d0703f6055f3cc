"""The golden reports, byte for byte: the manin pair under reports/ and the
count and ledger references under bench/reference/, each regenerated in
process into a temporary directory, and the stdout of `sieve` and `zeta`
against tests/golden/."""

import importlib.util
import pathlib

import pytest

from dp4sieve.cli import main
from dp4sieve.harness import parse_config_file

ROOT = pathlib.Path(__file__).parent.parent
Q3 = ROOT / "configs" / "q3.cfg"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def _ledger_module():
    spec = importlib.util.spec_from_file_location("ledger", ROOT / "bench" / "ledger.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _no_count_cache(monkeypatch):
    monkeypatch.delenv("DP4SIEVE_CACHE", raising=False)


@pytest.mark.parametrize("argv, golden", [
    (["--config", str(Q3), "manin"], "reports/manin_q3_d4"),
    (["--field-p", "2", "--field-n", "2", "--d-max", "4", "count"],
     "bench/reference/count_q4_d4"),
], ids=["manin-q3", "count-q4"])
def test_reports_match_the_golden_bytes(argv, golden, tmp_path, capsys):
    assert main(argv[:-1] + ["--out-dir", str(tmp_path), argv[-1]]) == 0
    written = capsys.readouterr().out.split()
    stem = pathlib.Path(golden).name
    assert written == [str(tmp_path / f"{stem}.csv"), str(tmp_path / f"{stem}.json")]
    for path in written:
        suffix = pathlib.Path(path).suffix
        assert pathlib.Path(path).read_bytes() == (ROOT / f"{golden}{suffix}").read_bytes()


def test_ledger_matches_the_reference_bytes(tmp_path):
    ledger = _ledger_module()
    path = ledger.write_ledger(ledger.build_ledger(parse_config_file(str(Q3))),
                               str(tmp_path), "ledger_q3_d4")
    assert pathlib.Path(path).read_bytes() == \
        (ROOT / "bench" / "reference" / "ledger_q3_d4.json").read_bytes()


@pytest.mark.parametrize("argv, golden", [
    (["--field-p", "3", "sieve", "--k", "1,0,0,0"], "sieve_q3_k1000"),
    (["--field-p", "2", "--field-n", "2", "sieve", "--k", "2,1,0,0"], "sieve_q4_k2100"),
    (["--field-p", "5", "sieve", "--k", "2,1,0,0"], "sieve_q5_k2100"),
], ids=["q3-k1000", "q4-k2100", "q5-k2100"])
def test_sieve_stdout_matches_the_golden_bytes(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{golden}.json").read_text()


@pytest.mark.parametrize("argv, golden", [
    (["--field-p", "3", "zeta", "--N", "2", "--orders", "1,1,1,1"], "zeta_q3_N2_o1111"),
    (["--field-p", "2", "--field-n", "2", "zeta", "--N", "3", "--orders", "2,1,0,0"],
     "zeta_q4_N3_o2100"),
    (["--field-p", "5", "zeta", "--N", "2", "--orders", "2,2,2,2"], "zeta_q5_N2_o2222"),
], ids=["q3-N2-o1111", "q4-N3-o2100", "q5-N2-o2222"])
def test_zeta_stdout_matches_the_golden_bytes(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{golden}.json").read_text()
