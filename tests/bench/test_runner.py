"""Tests for the experiment runner utilities."""

import pytest

from repro.bench.runner import (
    METHODS,
    headline_seconds,
    run_matrix,
    run_method,
    speedup,
)
from repro.core.counts import BicliqueQuery
from repro.core.verify import brute_force_count


class TestRunMethod:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_exact(self, small_random, method):
        q = BicliqueQuery(2, 2)
        res = run_method(method, small_random, q)
        assert res.count == brute_force_count(small_random, q)

    def test_unknown_method(self, small_random):
        with pytest.raises(ValueError):
            run_method("FOO", small_random, BicliqueQuery(2, 2))

    def test_methods_is_the_plan_registry(self):
        from repro.plan import method_names

        assert METHODS == method_names()

    def test_auto_matches_explicit(self, small_random):
        q = BicliqueQuery(2, 2)
        auto = run_method("auto", small_random, q)
        assert auto.count == run_method("GBC", small_random, q).count
        assert auto.algorithm in ("Basic", "BCL", "BCLP", "GBL", "GBC")


class TestHeadlineSeconds:
    def test_device_result_uses_device_seconds(self, small_random):
        res = run_method("GBC", small_random, BicliqueQuery(2, 2),
                         backend="sim")
        assert headline_seconds(res) == res.device_seconds

    def test_cpu_result_uses_wall(self, small_random):
        res = run_method("BCL", small_random, BicliqueQuery(2, 2))
        assert headline_seconds(res) == res.wall_seconds


class TestRunMatrix:
    def test_matrix_shape_and_agreement(self, small_random, paper_graph):
        graphs = {"a": small_random, "b": paper_graph}
        queries = [BicliqueQuery(2, 2), BicliqueQuery(3, 2)]
        runs = run_matrix(graphs, queries, ["BCL", "GBC"])
        assert len(runs) == 2 * 2 * 2
        for r in runs:
            assert r.seconds >= 0

    def test_share_sessions_matches_unshared_counts(self, small_random,
                                                    paper_graph):
        graphs = {"a": small_random, "b": paper_graph}
        queries = [BicliqueQuery(2, 2), BicliqueQuery(2, 3)]
        methods = ["Basic", "BCL", "GBC"]
        shared = run_matrix(graphs, queries, methods, share_sessions=True)
        plain = run_matrix(graphs, queries, methods)
        assert [(r.method, r.dataset, r.result.count) for r in shared] == \
            [(r.method, r.dataset, r.result.count) for r in plain]

    def test_shared_prepare_timed_separately(self, small_random):
        """share_sessions=True must charge session preparation to
        MethodRun.prepare_seconds (once per graph), never to the first
        warm cell's measure_seconds."""
        graphs = {"g": small_random}
        queries = [BicliqueQuery(2, 2)]
        shared = run_matrix(graphs, queries, ["BCL", "GBC"],
                            share_sessions=True)
        assert len({r.prepare_seconds for r in shared}) == 1
        assert all(r.prepare_seconds > 0 for r in shared)
        plain = run_matrix(graphs, queries, ["BCL", "GBC"])
        assert all(r.prepare_seconds == 0.0 for r in plain)

    def test_disagreement_detected(self, small_random, monkeypatch):
        import repro.bench.runner as runner_mod

        real = runner_mod.run_method

        def broken(method, graph, query, spec=None, threads=16, **kwargs):
            res = real(method, graph, query, spec=spec, threads=threads,
                       **kwargs)
            if method == "GBC":
                res.count += 1
            return res

        monkeypatch.setattr(runner_mod, "run_method", broken)
        with pytest.raises(AssertionError):
            runner_mod.run_matrix({"g": small_random},
                                  [BicliqueQuery(2, 2)], ["BCL", "GBC"])


class TestSpeedup:
    def test_ratio(self, small_random):
        q = BicliqueQuery(2, 2)
        bcl = run_method("BCL", small_random, q)
        gbc = run_method("GBC", small_random, q)
        assert speedup(bcl, gbc) == pytest.approx(
            headline_seconds(bcl) / headline_seconds(gbc))
