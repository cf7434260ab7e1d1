"""batch_count semantics: parsing, session reuse, per-batch accounting."""

import pytest

from repro.core.counts import BicliqueQuery
from repro.core.bcl import bcl_count
from repro.errors import QueryError
from repro.graph.generators import random_bipartite
from repro.query import BatchResult, GraphSession, batch_count, parse_queries


class TestParseQueries:
    def test_comma_string(self):
        assert parse_queries("3x3,3x4") == [BicliqueQuery(3, 3),
                                            BicliqueQuery(3, 4)]

    def test_mixed_iterable(self):
        got = parse_queries(["2x2", (3, 4), BicliqueQuery(5, 5)])
        assert got == [BicliqueQuery(2, 2), BicliqueQuery(3, 4),
                       BicliqueQuery(5, 5)]

    def test_uppercase_x_and_spaces(self):
        assert parse_queries(" 2X3 ,4x4") == [BicliqueQuery(2, 3),
                                              BicliqueQuery(4, 4)]

    @pytest.mark.parametrize("bad", ["", "3", "3x", "3xx4", "axb", "0x2",
                                     [object()], [(2, "three")],
                                     [(1, 2, 3)]])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(QueryError):
            parse_queries(bad)

    def test_truncated_spec_names_the_missing_side(self):
        with pytest.raises(QueryError, match=r"'3x'.*missing q"):
            parse_queries("3x")
        with pytest.raises(QueryError, match=r"'x3'.*missing p"):
            parse_queries("x3")
        with pytest.raises(QueryError, match=r"'x'.*missing p and q"):
            parse_queries("x")

    def test_zero_sized_spec_names_the_bound(self):
        with pytest.raises(QueryError, match=r"'0x3'.*>= 1.*\(0, 3\)"):
            parse_queries("0x3")

    @pytest.mark.parametrize("bad, got", [
        ("-1x3", "(-1, 3)"), ("3x-2", "(3, -2)"), ("-1x-1", "(-1, -1)"),
    ])
    def test_negative_sizes_name_the_bound(self, bad, got):
        with pytest.raises(QueryError) as exc:
            parse_queries(bad)
        assert repr(bad) in str(exc.value)
        assert got in str(exc.value)

    def test_negative_pair_rejected_like_strings(self):
        with pytest.raises(QueryError, match=r">= 1.*\(2, -1\)"):
            parse_queries([(2, -1)])

    def test_non_integer_side_is_called_out(self):
        with pytest.raises(QueryError, match=r"'3\.5x2'.*integers"):
            parse_queries("3.5x2")

    def test_malformed_specs_are_value_errors(self):
        """QueryError doubles as ValueError, so callers can use the
        standard-library idiom for bad-value input."""
        for bad in ("3x", "0x3", "-1x3"):
            with pytest.raises(ValueError):
                parse_queries(bad)


class TestBatchCount:
    def test_raw_graph_gets_fresh_session(self):
        g = random_bipartite(30, 20, 120, seed=2)
        batch = batch_count(g, "2x2,2x3", backend="fast")
        assert isinstance(batch, BatchResult)
        assert batch.session.graph is g
        assert len(batch.results) == 2
        assert batch.counts == [r.count for r in batch.results]

    def test_session_survives_across_batches(self):
        g = random_bipartite(30, 20, 120, seed=2)
        session = GraphSession(g)
        first = batch_count(session, "2x2,2x3", backend="fast")
        second = batch_count(session, "2x2,2x3", backend="fast")
        assert first.session is second.session is session
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        assert first.counts == second.counts

    def test_method_selects_algorithm(self):
        g = random_bipartite(25, 20, 100, seed=4)
        batch = batch_count(g, ["2x2"], method="BCL", backend="fast")
        assert batch.results[0].algorithm == "BCL"
        single = bcl_count(g, BicliqueQuery(2, 2), backend="fast")
        assert batch.counts == [single.count]

    def test_workers_imply_parallel_backend(self):
        g = random_bipartite(40, 30, 200, seed=6)
        serial = batch_count(g, "2x2,3x3", backend="fast")
        sharded = batch_count(g, "2x2,3x3", workers=2)
        assert sharded.counts == serial.counts
        assert all(r.backend == "native" for r in sharded.results)

    def test_conflicting_spec_with_existing_session_raises(self):
        from repro.gpu.device import small_test_device

        g = random_bipartite(20, 15, 60, seed=8)
        session = GraphSession(g)
        with pytest.raises(QueryError):
            batch_count(session, "2x2", spec=small_test_device())

    def test_value_equal_spec_with_existing_session_is_accepted(self):
        from repro.gpu.device import small_test_device

        g = random_bipartite(20, 15, 60, seed=8)
        session = GraphSession(g, spec=small_test_device())
        batch = batch_count(session, "2x2", spec=small_test_device())
        assert len(batch.results) == 1

    def test_default_spec_session_accepts_explicit_default(self):
        from repro.gpu.device import rtx_3090

        g = random_bipartite(20, 15, 60, seed=8)
        session = GraphSession(g)  # spec=None -> counters use rtx_3090()
        batch = batch_count(session, "2x2", spec=rtx_3090())
        assert len(batch.results) == 1

    def test_use_cache_false_skips_the_cache(self):
        g = random_bipartite(20, 15, 60, seed=8)
        session = GraphSession(g)
        batch_count(session, "2x2", backend="fast", use_cache=False)
        again = batch_count(session, "2x2", backend="fast", use_cache=False)
        assert (again.cache_hits, again.cache_misses) == (0, 0)
        assert len(session.results) == 0
