"""Tests for compile-once queries (:mod:`repro.core.compiled`).

A compiled plan is the counter-independent half of an estimator; the
load-bearing property is that evaluating one plan — from any compiler of
the same configuration — against a synopsis gives *exactly* the float the
synopsis' own ``estimate_*`` gives.  The read-path snapshot and hash-seed
tests pin two read-side defects that plans and the serving tier exposed.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import QueryCompiler, distinct_sum_plan, shared_compiler
from repro.core.config import SketchTreeConfig
from repro.core.sketchtree import SketchTree
from repro.core.virtual import VirtualStreams
from repro.core.window import WindowedSketchTree
from repro.errors import ConfigError, QueryError
from repro.obs.registry import MetricsRegistry
from repro.serve.service import ShardedService
from repro.trees import from_sexpr

SRC = Path(__file__).resolve().parents[1] / "src"

STREAM = [
    "(A (B) (C))",
    "(A (C) (B))",
    "(A (B (C)))",
    "(A (B) (C) (D))",
    "(X (A (B)))",
    "(A (B) (B))",
    "(B (A) (C) (E))",
] * 4


def synopsis(**overrides) -> SketchTree:
    config = SketchTreeConfig(
        s1=25, s2=3, max_pattern_edges=3, n_virtual_streams=7, seed=5,
        maintain_summary=True, **overrides,
    )
    st_ = SketchTree(config)
    st_.update_batch([from_sexpr(text) for text in STREAM])
    return st_


class TestPlans:
    @pytest.mark.parametrize("topk_size", [0, 2])
    def test_foreign_compiler_is_bit_identical(self, topk_size):
        """A plan from a private compiler of the same config evaluates to
        the synopsis' own estimate, exactly."""
        st_ = synopsis(topk_size=topk_size)
        compiler = QueryCompiler.for_config(st_.config)
        assert compiler.encoder is not st_.encoder
        for query in ("(A (B))", "(A (C))", "(X (A))", "(A (B (C)))"):
            assert st_.evaluate(compiler.ordered(query)) == st_.estimate_ordered(
                query
            )
        for query in ("(A (B) (C))", "(B (A) (C) (E))", "(A (B) (B))"):
            assert st_.evaluate(
                compiler.unordered(query)
            ) == st_.estimate_unordered(query)
        queries = ["(A (B))", "(A (C))", "(A (D))"]
        assert st_.evaluate(compiler.sum(queries)) == st_.estimate_sum(queries)
        assert st_.evaluate(compiler.or_labels("(A (B|C))")) == st_.estimate_or(
            "(A (B|C))"
        )
        for text in ("A/B", "//A/*", "A[B]/C"):
            assert st_.evaluate(
                compiler.xpath(text, st_.summary)
            ) == st_.estimate_xpath(text)

    def test_ordered_plan_has_one_group(self):
        st_ = synopsis()
        (group,) = st_.compiler.ordered("(A (B))").groups
        value = st_.encoder.encode((("A", (("B", ()),))))
        assert group.values == (value,)
        assert group.residue == value % st_.config.n_virtual_streams
        assert np.array_equal(group.xi, st_.streams.xi.xi(value))

    def test_sum_plan_groups_by_residue_with_xi_sums(self):
        streams = VirtualStreams(7, s1=4, s2=3, seed=2)
        plan = distinct_sum_plan([3, 10, 4, 3], 7, streams.xi)
        assert [(g.residue, g.values) for g in plan.groups] == [
            (3, (3, 10)),
            (4, (4,)),
        ]
        expected = streams.xi.xi_values([3, 10]).sum(axis=1)
        assert np.array_equal(plan.groups[0].xi, expected)

    def test_empty_plan_estimates_zero(self):
        st_ = synopsis()
        assert st_.evaluate(distinct_sum_plan([], 7, st_.streams.xi)) == 0.0

    def test_compile_errors_match_estimators(self):
        compiler = synopsis().compiler
        with pytest.raises(QueryError):
            compiler.ordered("(A (B (C (D (E)))))")
        with pytest.raises(QueryError):
            compiler.sum(["(A (B))", "(A (B))"])
        with pytest.raises(QueryError):
            compiler.xpath("//A/*", summary=None)
        with pytest.raises(ConfigError):
            compiler.expression("COUNT(A/B) * COUNT(A/C) * COUNT(A/D)")

    def test_sum_plan_materialises_generators_once(self):
        st_ = synopsis()
        queries = ["(A (B))", "(A (C))"]
        plan = st_.compiler.sum(q for q in queries)
        assert st_.evaluate(plan) == st_.estimate_sum(queries)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        children=st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=3),
    )
    def test_library_estimates_are_evaluate_of_compile(self, seed, children):
        st_ = SketchTree(
            SketchTreeConfig(
                s1=9, s2=3, max_pattern_edges=3, n_virtual_streams=5, seed=seed
            )
        )
        st_.update_batch([from_sexpr(text) for text in STREAM])
        query = "(A " + " ".join(f"({c})" for c in children) + ")"
        compiler = QueryCompiler.for_config(st_.config)
        assert st_.evaluate(compiler.ordered(query)) == st_.estimate_ordered(query)
        assert st_.evaluate(compiler.unordered(query)) == st_.estimate_unordered(
            query
        )


class TestPairingMode:
    """Pairing-mode encoders number labels in first-seen order, so an
    encoder other than a synopsis' own encodes a query to values its
    counters were never built from.  Every part answering a multi-part
    query must therefore compile with its own encoder."""

    CONFIG = SketchTreeConfig(
        s1=9, s2=3, max_pattern_edges=2, n_virtual_streams=5, seed=3,
        mapping="pairing", maintain_summary=True,
    )
    # Each half meets the labels in a different order: after the first
    # half A=0, B=1; after the second C=0, B=1, A=2 — so a fresh
    # encoder's "(A (B))" is the second half's "(C (B))".
    FIRST = ["(A (B))", "(A (B) (C))"]
    SECOND = ["(C (B))", "(C (B))", "(B (A))"]
    QUERIES = ["(A (B))", "(C (B))", "(B (A))", "(A (C))"]

    def test_for_config_refuses_pairing(self):
        with pytest.raises(ConfigError, match="rabin"):
            QueryCompiler.for_config(self.CONFIG)
        assert shared_compiler(self.CONFIG) is None

    def test_window_sums_its_buckets_own_estimates(self):
        window = WindowedSketchTree(self.CONFIG, window_trees=4, bucket_trees=2)
        window.update_batch([from_sexpr(t) for t in self.FIRST + self.SECOND])
        buckets = window._live_buckets()
        assert len(buckets) == 3
        for query in self.QUERIES:
            assert window.estimate_ordered(query) == sum(
                b.estimate_ordered(query) for b in buckets
            )
            assert window.estimate_unordered(query) == sum(
                b.estimate_unordered(query) for b in buckets
            )
        assert window.estimate_sum(self.QUERIES) == sum(
            b.estimate_sum(self.QUERIES) for b in buckets
        )
        assert window.estimate_or("(A (B|C))") == sum(
            b.estimate_or("(A (B|C))") for b in buckets
        )

    def test_service_sums_its_shards_own_estimates(self):
        service = ShardedService(self.CONFIG, n_shards=2)
        # The test thread is every shard's single writer (no drain threads).
        for shard, texts in zip(service.shards, (self.FIRST, self.SECOND)):
            shard.synopsis.update_batch([from_sexpr(t) for t in texts])
        synopses = [shard.synopsis for shard in service.shards]
        for query in self.QUERIES:
            assert service.estimate_ordered(query) == sum(
                s.estimate_ordered(query) for s in synopses
            )
            assert service.estimate_unordered(query) == sum(
                s.estimate_unordered(query) for s in synopses
            )
        assert service.estimate_sum(self.QUERIES) == sum(
            s.estimate_sum(self.QUERIES) for s in synopses
        )
        for xpath in ("A/B", "C/B", "A/*", "*/B"):
            assert service.estimate_xpath(xpath) == sum(
                s.estimate_xpath(xpath) for s in synopses
            )


class TestReadSnapshots:
    def test_stream_allocation_mid_iteration_is_safe(self):
        """The writer may allocate a stream while a reader iterates."""
        streams = VirtualStreams(31, s1=4, s2=2, seed=0, topk_size=1)
        streams.sketch(1)
        streams.sketch(2)
        seen = []
        for residue, _ in streams.iter_sketches():
            seen.append(residue)
            streams.sketch(10 + residue)  # a drain thread's allocation
        for residue, _ in streams.iter_trackers():
            streams.sketch(residue + 5)
        assert seen == [1, 2]
        assert sorted(r for r, _ in streams.iter_trackers()) == [
            1, 2, 6, 7, 11, 12, 16, 17,
        ]

    def test_l2_gauge_survives_allocation_during_scrape(self):
        registry = MetricsRegistry()
        st_ = SketchTree(
            SketchTreeConfig(s1=4, s2=2, n_virtual_streams=31, seed=1),
            metrics=registry,
        )
        st_.update(from_sexpr("(A (B))"))
        streams = st_.streams
        original = streams.iter_sketches

        def allocating_iter():
            items = original()
            streams.sketch(30)  # a drain thread allocates mid-scrape
            return items

        streams.iter_sketches = allocating_iter  # type: ignore[method-assign]
        try:
            assert registry.gauge("sketch_counter_l2_mass").value > 0
        finally:
            del streams.iter_sketches


class TestHashSeedIndependence:
    SCRIPT = """
from repro import SketchTree, SketchTreeConfig
from repro.trees import from_sexpr
import random
rng = random.Random(3)
def tree(depth=0):
    kids = [] if depth >= 2 else [tree(depth + 1) for _ in range(rng.randint(0, 3))]
    return "(" + rng.choice("ABCDE") + "".join(" " + k for k in kids) + ")"
st = SketchTree(SketchTreeConfig(s1=25, s2=3, max_pattern_edges=3,
                                 n_virtual_streams=7, seed=5))
st.update_batch([from_sexpr(tree()) for _ in range(60)])
for q in ["(A (B) (C) (D))", "(B (A) (C) (E))", "(C (A) (B (D)))"]:
    print(repr(st.estimate_unordered(q)))
"""

    def test_unordered_estimates_do_not_depend_on_pythonhashseed(self):
        outputs = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
            result = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]
