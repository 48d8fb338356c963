"""MetricsRegistry, the Stats protocol, merge_metrics, metrics_delta and
derive_rates."""

from repro.obs import (
    MetricsRegistry,
    Stats,
    current_registry,
    derive_rates,
    merge_metrics,
    metrics_delta,
    metrics_of,
    use_registry,
)


class _FakeStats:
    def as_metrics(self):
        return {"queries": 7, "hits": 3.0}


class TestStatsProtocol:
    def test_runtime_checkable(self):
        assert isinstance(_FakeStats(), Stats)
        assert not isinstance(object(), Stats)

    def test_solver_stats_implement_it(self):
        from repro.sat.solver import SolverStats

        assert isinstance(SolverStats(), Stats)

    def test_cnf_cache_implements_it(self):
        from repro.alloy.cache import CNFCache

        assert isinstance(CNFCache("fp"), Stats)

    def test_explicit_oracle_implements_it(self):
        from repro.core.oracle import ExplicitOracle
        from repro.models.registry import get_model

        assert isinstance(ExplicitOracle(get_model("sc")), Stats)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.count("a", 2)
        assert reg.as_metrics() == {"a": 3}

    def test_float_counts_normalize_to_int(self):
        reg = MetricsRegistry()
        reg.count("hits", 3.0)
        reg.count("seconds", 0.5)
        metrics = reg.as_metrics()
        # int-valued floats normalize to int; the rest stay floats
        assert metrics["hits"] == 3
        assert isinstance(metrics["hits"], int)
        assert metrics["seconds"] == 0.5

    def test_use_registry_scopes_the_current_one(self):
        outer = current_registry()
        inner = MetricsRegistry()
        with use_registry(inner):
            assert current_registry() is inner
            current_registry().count("only_inner")
        assert current_registry() is outer
        assert "only_inner" not in outer.as_metrics()
        assert inner.as_metrics()["only_inner"] == 1


class TestMergeAndRates:
    def test_merge_sums_keywise_and_skips_rates(self):
        merged = merge_metrics(
            {"a": 1, "b": 2.5, "x_rate": 0.9},
            {"a": 4, "c": 1},
        )
        assert merged == {"a": 5, "b": 2.5, "c": 1}

    def test_delta_subtracts_counters_and_keeps_gauges(self):
        before = {"compile_hits": 2, "compile_warm_entries": 8}
        after = {"compile_hits": 5, "compile_warm_entries": 8, "new": 1}
        assert metrics_delta(before, after) == {
            "compile_hits": 3,
            "compile_warm_entries": 8,
            "new": 1,
        }
        assert metrics_of(_FakeStats()) == {"queries": 7, "hits": 3.0}
        assert metrics_of(object()) == {}

    def test_merge_takes_the_maximum_of_gauges(self):
        merged = merge_metrics(
            {"compile_warm_entries": 8, "compile_hits": 1},
            {"compile_warm_entries": 8, "compile_hits": 2},
        )
        assert merged == {"compile_warm_entries": 8, "compile_hits": 3}

    def test_analysis_rate_counts_misses(self):
        # "analyses" counts cache MISSES: total calls = hits + misses.
        rates = derive_rates({"analyses": 25, "analysis_hits": 75})
        assert rates["analysis_hit_rate"] == 0.75

    def test_observe_rate_counts_misses(self):
        rates = derive_rates({"observations": 10, "observe_hits": 30})
        assert rates["observe_hit_rate"] == 0.75

    def test_compile_and_sat_rates(self):
        rates = derive_rates(
            {
                "compile_hits": 9,
                "compile_misses": 1,
                "sat_queries": 4,
                "sat_reuse_hits": 2,
            }
        )
        assert rates["compile_hit_rate"] == 0.9
        assert rates["sat_reuse_rate"] == 0.5

    def test_rates_are_conditional_on_constituents(self):
        assert derive_rates({"candidates": 5}) == {}
