"""Fast tests of the benchmark's own machinery; none runs a workload."""

import resource
import shutil
import sys

import pytest

from run import ROOT, WORKLOADS, check_outputs, child_env, run_child
from spans import Tracer, layer_metrics, self_times


def test_tampered_report_byte_is_a_failure(tmp_path):
    manin = WORKLOADS["manin-q3"]
    for produced, reference in manin.expected:
        shutil.copy(ROOT / reference, tmp_path / produced)
    assert check_outputs(manin, tmp_path) == []

    csv_path = tmp_path / manin.expected[0][0]
    data = bytearray(csv_path.read_bytes())
    data[-3] ^= 1
    csv_path.write_bytes(bytes(data))
    assert check_outputs(manin, tmp_path) == [
        f"{manin.expected[0][0]} differs from {manin.expected[0][1]}"]


def test_missing_output_is_a_failure(tmp_path):
    assert check_outputs(WORKLOADS["count-q4"], tmp_path)


def test_rss_is_per_child(tmp_path):
    # a child's max RSS starts at its parent's resident size when it is
    # spawned, so the big child must outgrow this (test-runner) process
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    big_mb = int(parent_mb) + 128
    env = child_env(seed=0)
    big = run_child([sys.executable, "-c", f"b = b'x' * ({big_mb} << 20)"], env,
                    tmp_path / "big.log", timeout=60)
    small = run_child([sys.executable, "-c", "pass"], env, tmp_path / "small.log", timeout=60)
    assert big.returncode == small.returncode == 0
    assert big.rss_mb > big_mb
    # RUSAGE_CHILDREN would report the big child's peak for the small one too
    assert small.rss_mb < big.rss_mb - 96


def test_child_past_its_timeout_is_killed(tmp_path):
    res = run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                    child_env(seed=0), tmp_path / "slow.log", timeout=0.5)
    assert res.returncode == -9
    assert res.wall_s < 30


def _span(sid, name, start, end, parent):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "run_id": "synthetic"}


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span(0, "harness.main", 0.0, 10.0, None),
        _span(1, "harness.counting_function", 1.0, 4.0, 0),
        _span(2, "secenum.count_morphisms", 2.0, 3.0, 1),
        _span(3, "nslattice.nef_cone_volume_level1", 3.5, 6.0, 0),   # overlaps span 1
        _span(4, "harness.write_outputs", 9.0, 9.5, 0),
    ]
    own = self_times(spans)
    # span 0's children cover [1, 6] and [9, 9.5]
    assert own == pytest.approx({0: 4.5, 1: 2.0, 2: 1.0, 3: 2.5, 4: 0.5})
    m = layer_metrics(spans)
    assert m["harness.self_s"] == pytest.approx(4.5 + 2.0)
    assert m["secenum.count_s"] == pytest.approx(1.0)
    assert m["secenum.calls"] == 1
    assert m["nslattice.cone_volume_s"] == pytest.approx(2.5)
    assert m["harness.emit_s"] == pytest.approx(0.5)
    assert m["sieve.calls"] == 0 and m["sieve.prediction_s"] == 0


def test_missing_wrapped_name_records_nothing():
    class Module:
        @staticmethod
        def present(x):
            return x + 1

    tracer = Tracer("t")
    assert tracer.patch(Module, "present", "layer.present")
    assert not tracer.patch(Module, "deleted", "layer.deleted")
    assert not tracer.patch(Module, "Gone.method", "layer.gone")
    assert Module.present(1) == 2
    assert [s["name"] for s in tracer.spans] == ["layer.present"]
    assert layer_metrics(tracer.spans)["nslattice.choose_marking_s"] == 0
