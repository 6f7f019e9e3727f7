"""The benchmark's own tests: its helpers, its refusal to run without the
program, and that a traced run confirms why each workload exists.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from facefollow.imaging import Rect  # noqa: E402


@pytest.fixture
def tmp_dir(tmp_path):
    return str(tmp_path)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    for n in (11, 20, 31, 400, 250_000):
        p = run.tail_percentile(n)
        beyond = n - -(-p * n // 100)
        assert beyond >= 10
        assert p == 99 or n - -(-(p + 1) * n // 100) < 10
    assert run.tail_percentile(31) == 67
    assert run.tail_percentile(400) == 97


def test_agreement_tolerance():
    truth = Rect(100, 100, 40, 40)   # centre (120, 120), tolerance 20 px
    assert workloads.agrees((139.0, 101.0), truth)
    assert not workloads.agrees((141.0, 120.0), truth)
    assert not workloads.agrees(None, truth)
    assert workloads.agrees(None, None)
    assert not workloads.agrees((5.0, 5.0), None)
    assert workloads.agrees((127.0, 113.0), Rect(116, 116, 8, 8))  # 8 px floor


def test_tracer_self_time_and_restore():
    class Box:
        @staticmethod
        def inner(n):
            time.sleep(0.01)
            return list(range(n))

        @staticmethod
        def outer(n):
            time.sleep(0.01)
            return Box.inner(n)

    orig_inner, orig_outer = Box.inner, Box.outer
    t = spans.Tracer()
    t.patch(Box, "outer", "outer")
    t.patch(Box, "inner", "inner", lambda args, out: (args[0], len(out)))
    assert Box.outer(3) == [0, 1, 2]
    t.restore()
    assert (Box.inner, Box.outer) == (orig_inner, orig_outer)
    assert [t.names[i] for i in t.name] == ["outer", "inner"]
    assert list(t.parent) == [-1, 0]
    assert (t.n_in[1], t.n_out[1]) == (3, 3)
    outer_d, inner_d = (t.end[i] - t.start[i] for i in range(2))
    assert t.start[0] <= t.start[1] <= t.end[1] <= t.end[0]
    assert inner_d >= 0.01 and outer_d >= inner_d + 0.01


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loop-oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _trace(name, seconds, tmp):
    ok, rec, walls, tracer, metrics, totals, acct = run.trace_run(
        workloads.WORKLOADS[name](), 1, seconds, tmp)
    assert ok and rec.failed == 0 and walls[True] > 0
    # every tick's traced time is its layers' self times plus the remainder
    assert acct["tick_ms"] == pytest.approx(acct["spans_self_ms"] + acct["remainder_ms"])
    names = {m["name"] for m in run.BENCH["per_layer"]}
    assert names <= set(metrics)
    return metrics, totals, acct


def test_detect_640_is_bound_by_the_body_scan(tmp_dir):
    m, _, acct = _trace("detect-640", 4, tmp_dir)
    assert m["cascade.body_scan_ms"] > 0.5 * acct["tick_ms"]
    assert m["cascade.group_ms"] < 0.05 * acct["tick_ms"]
    assert m["imaging.decode_ms"] > 0 and m["imaging.annotate_ms"] > 0


def test_rendered_tail_ticks_are_heavier_in_grouping(tmp_dir):
    m, _, _ = _trace("loop-rendered-320", 20, tmp_dir)
    assert m["cascade.group_share_tail_pct"] > 1.5 * m["cascade.group_share_mid_pct"]
    assert m["cascade.face_raw"] > 0 and m["synthetic.render_ms"] > 0


def test_oracle_runs_no_detection_and_flies_the_failsafe(tmp_dir):
    m, totals, _ = _trace("loop-oracle", 2, tmp_dir)
    assert not [n for n in totals if n.startswith(("cascade.", "gated.detect",
                                                     "imaging.", "synthetic."))]
    assert m["mission.failsafe_ticks"] > 0
    assert m["mavlink.frames"] > 0 and m["mavlink.errors"] == 0
    assert m["mavlink.bytes"] == pytest.approx(61 * m["mavlink.frames"])


def test_result_line_matches_the_contract(tmp_dir, capsys):
    assert run.main(["--workload", "loop-oracle", "--seed", "3", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in run.BENCH["end_to_end"]}
