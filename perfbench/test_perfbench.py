"""Self-test of the benchmark at toy size.

* every workload runs end to end (``--size tiny``) and prints every
  metric ``BENCHMARK.json`` names, with its unit, traced and untraced;
* every correctness gate fails when fed a corrupted counter or a wrong
  answer;
* without the system under test the benchmark fails and prints no result.

Run::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
from repro import SketchTree, SketchTreeConfig  # noqa: E402
from repro.core.window import WindowedSketchTree  # noqa: E402
from repro.datasets import DblpGenerator, TreebankGenerator  # noqa: E402
from repro.stream import StreamProcessor  # noqa: E402

CONFIG = SketchTreeConfig(s1=8, s2=3, max_pattern_edges=3, n_virtual_streams=31, seed=5)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        stdout=subprocess.PIPE, text=True, timeout=170, cwd=str(ROOT),
    )
    assert completed.returncode == 0, completed.stdout
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values()
                   if m["unit"] != "ratio")


def test_fails_without_the_system(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-dblp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def corrupt(counters: dict) -> None:
    residue = next(iter(counters))
    counters[residue] = counters[residue].copy()
    counters[residue][0] += 1


def test_prefix_gate_rejects_a_corrupted_counter():
    trees = list(DblpGenerator(seed=3).generate(6))
    shipped, reference = SketchTree(CONFIG), SketchTree(CONFIG)
    StreamProcessor([shipped], batch_trees=4).run(trees)
    worker.legacy_ingest(reference, trees)
    good, expected = worker.counters_of(shipped), worker.counters_of(reference)
    assert worker.counters_identical(good, expected)
    corrupt(good)
    assert not worker.counters_identical(good, expected)


def test_unfold_gate_rejects_a_corrupted_counter():
    trees = list(TreebankGenerator(seed=3).generate(12))
    topk = WindowedSketchTree(
        SketchTreeConfig(s1=8, s2=3, max_pattern_edges=3, n_virtual_streams=31,
                         seed=5, topk_size=4), window_trees=8, bucket_trees=4)
    plain = WindowedSketchTree(CONFIG, window_trees=8, bucket_trees=4)
    topk.ingest(trees, batch_trees=3)
    plain.ingest(trees, batch_trees=5)
    unfolded = worker.merged_counters(topk, unfold=True)
    expected = worker.merged_counters(plain, unfold=False)
    assert worker.counters_identical(unfolded, expected)
    corrupt(unfolded)
    assert not worker.counters_identical(unfolded, expected)


class FakeClient:
    """Answers every admin estimate with ``answer(expected)``."""

    def __init__(self, checks: list[dict], answer) -> None:
        self.answers = {json.dumps(c["query"]): answer(c["expected"]) for c in checks}

    def call(self, method, path, body=None):
        query = json.loads(body)
        key = json.dumps(query.get("query", query.get("queries")))
        return 200, json.dumps({"estimate": self.answers[key]}).encode(), 0.0


@pytest.mark.parametrize("kind", ["ordered", "unordered", "sum", "xpath"])
def test_admin_gate_rejects_a_wrong_answer(kind):
    query = ["(a (b))", "(a (c))"] if kind == "sum" else "(a (b))"
    stream = {"admin_checks": [{"kind": kind, "query": query, "expected": 13.04}]}
    gates: dict = {}
    run.admin_gate(FakeClient(stream["admin_checks"], lambda x: x), stream, gates)
    assert gates["admin_bit_identical"][0]
    run.admin_gate(FakeClient(stream["admin_checks"], lambda x: x * 1.001), stream, gates)
    assert not gates["admin_bit_identical"][0]
    # Bit-identical means exactly that: one unit in the last place fails.
    run.admin_gate(FakeClient(stream["admin_checks"], lambda x: math.nextafter(x, math.inf)),
                   stream, gates)
    assert not gates["admin_bit_identical"][0]


def test_best_of_takes_each_positions_least_repeat():
    assert stats.best_of([[3.0, 1.0, 5.0], [2.0, 4.0, math.nan]]) == [2.0, 1.0, 5.0]
    with pytest.raises(ValueError):
        stats.best_of([[1.0, 2.0], [1.0]])


def test_best_of_passes_sums_best_batches_per_stream():
    passes = [
        {"draw": 0, "n_trees": 10, "batch_s": [1.0, 2.0], "latency_ms": [0.5, 0.9]},
        {"draw": 1, "n_trees": 30, "batch_s": [3.0], "latency_ms": [0.2]},
        {"draw": 0, "n_trees": 10, "batch_s": [2.0, 1.0], "latency_ms": [0.4, 1.1]},
        {"draw": 1, "n_trees": 30, "batch_s": [2.0], "latency_ms": [0.3]},
    ]
    rate, latency = stats.best_of_passes(passes)
    # Stream 0: 10 trees in 1 + 1 s; stream 1: 30 trees in 2 s.
    assert rate == 40 / 4.0
    assert latency == [0.4, 0.9, 0.2]


def test_schedule_times_repeats_apart_and_adds_accuracy_draws():
    assert stats.schedule(4, 2, 3, trace=False) == [
        (0, False), (1, False), (2, False), (0, False), (1, False), (3, False),
        (0, False), (1, False),
    ]
    assert stats.schedule(3, 2, 3, trace=True) == [
        (0, False), (0, True), (1, False), (1, True), (2, False),
    ]


def test_rel_error_gate_rejects_wrong_answers():
    exact = [100, 250, 40]
    assert stats.rel_error_gate([104.0, 240.0, 41.0], exact)[0]
    assert not stats.rel_error_gate([1000.0, 2500.0, 400.0], exact)[0]
    assert not stats.rel_error_gate([104.0, float("nan"), 41.0], exact)[0]


def test_summary_fails_the_run_on_a_failed_gate():
    result = {
        "gates": {"prefix_bit_identical": [False, "corrupted"]},
        "estimates": [[100.0]], "exact": [[100]], "latency_ms": [0.1] * 4,
        "failed": 0, "attempted": 5, "setup_s": [0.3], "trees_per_s": 10.0,
        "rss_mb": 50.0, "layers": {},
    }
    manifest = {"min_query_samples": 4}
    _, correct, attempted, failed = run.summarize(manifest, result, trace=False)
    assert not correct and failed == 1 and attempted > failed
