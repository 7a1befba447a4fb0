"""Self-tests for the benchmark's helpers and a tiny run of each workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stats
import worker
from spans import Span, Tracer, covered, self_times
from lpcsm.config import RunConfig, TrainSettings
from lpcsm.data import SyntheticTask
from lpcsm.model import ModelConfig
from lpcsm.objective import LossWeights, SgdConfig

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TestTailPercentile:
    @pytest.mark.parametrize("n, p", [(1000, 90), (100, 90), (99, 89),
                                      (45, 77), (20, 50), (11, 50), (1, 50)])
    def test_rule(self, n, p):
        assert stats.tail_percentile(n) == p

    def test_ten_beyond_and_highest(self):
        for n in range(20, 301):
            samples = list(range(n))
            p = stats.tail_percentile(n)

            def beyond(q):
                return sum(x > stats.nearest_rank(samples, q) for x in samples)

            assert beyond(p) >= 10, n
            assert p == 90 or beyond(p + 1) < 10, n

    def test_value(self):
        assert stats.tail(list(range(1, 101))) == (90, 90)
        assert stats.tail([3.0, 1.0, 2.0]) == (50, 2.0)
        assert stats.tail([4.0, 1.0, 2.0, 3.0]) == (50, 2.5)  # never below p50


def span(name, start, end, parent=-1):
    return Span(name, start, end, parent, op=0, step=0)


class TestSelfTime:
    def test_covered_union(self):
        assert covered(0, 10, []) == 0
        assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 4 + 1
        assert covered(0, 10, [(-2, 1), (9, 12)]) == 2  # clipped to the span
        assert covered(0, 10, [(2, 8), (3, 4)]) == 6    # nested interval

    def test_self_times(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("a.x", 2.0, 3.0, parent=1),
            span("b", 6.0, 9.0, parent=0),
        ]
        assert self_times(spans) == [4.0, 2.0, 1.0, 3.0]
        # Self times of a tree add up to the root's duration.
        assert sum(self_times(spans)) == 10.0

    def test_tracer_nesting(self):
        t = Tracer()
        inner = t.wrap("inner", lambda x: x + 1)
        outer = t.wrap("outer", lambda x: inner(inner(x)))
        assert outer(1) == 3
        names = [s.name for s in t.spans]
        assert names == ["outer", "inner", "inner"]
        assert [s.parent for s in t.spans] == [-1, 0, 0]
        own = self_times(t.spans)
        assert sum(own) == pytest.approx(t.spans[0].end - t.spans[0].start)
        assert all(x >= 0 for x in own)

    def test_installed_restores(self):
        import lpcsm.model
        original = lpcsm.model.fast_update
        with Tracer().installed() as missing:
            assert lpcsm.model.fast_update is not original
        assert missing == []
        assert lpcsm.model.fast_update is original


def tiny_run(kind, seq_len, batch, **task):
    return RunConfig(
        model=ModelConfig(vocab_size=11, width=8, layers=1, window=3, heads=2,
                          chunk_size=3, s_ref=1, max_seq_len=32),
        loss=LossWeights(),
        optimizer=SgdConfig(lr=0.01, momentum=0.9, clip_norm=1.0),
        task=SyntheticTask(kind=kind, vocab_size=11, seq_len=seq_len, **task),
        train=TrainSettings(steps=3, batch_size=batch, seed=0),
    )


TINY = {
    "train-copy-t64": (worker.Workload("", "train", steps=4),
                       tiny_run("copy", 12, 2, key_len=2)),
    "train-recall-t256": (worker.Workload("", "train", steps=4),
                          tiny_run("key-recall", 16, 1, key_len=2, distractor_len=6)),
    "decode-t256": (worker.Workload("", "decode", prompt_len=6, max_new=6),
                    tiny_run("key-recall", 8, 1, key_len=2, distractor_len=3)),
}


def test_tiny_covers_every_workload():
    assert set(TINY) == set(worker.WORKLOADS)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(worker.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(name, trace):
    workload, run_cfg = TINY[name]
    result = worker.run_workload(name, seed=5, seconds=0, trace=trace,
                                 workload=workload, run_cfg=run_cfg)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    listed = BENCHMARK["per_layer"] if trace else [
        m for m in BENCHMARK["end_to_end"] if m["name"] != "setup_s"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert result["info"]["unpatched"] == []
    assert 90.0 <= values["trace.coverage_pct"] <= 100.0 + 1e-6
    if workload.kind == "train":
        # One slow write per full chunk, per sequence and layer.
        t = run_cfg.task.seq_len
        assert values["memory.slow_writes"] == run_cfg.train.batch_size * (t // 3)
        assert values["attention.rows_projected_per_token"] == 1.0
        assert values["numerics.tape_nodes_per_token"] > 0
    else:
        assert values["numerics.backward_ms"] == 0.0
        assert values["mhc.sinkhorn_calls_per_token"] == 1.0


def test_needs_sources(tmp_path):
    """Without src/lpcsm beside it, run.py fails and prints no result."""
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "decode-t256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
