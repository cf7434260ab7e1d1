"""Workload specs: determinism, declarativity, open/closed-loop drives."""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.gbc import gbc_count
from repro.core.counts import BicliqueQuery
from repro.errors import ServiceError
from repro.graph.generators import random_bipartite
from repro.service.pool import SessionPool
from repro.service.scheduler import Scheduler
from repro.service.workload import (WorkloadSpec, generate_requests,
                                    run_workload)
from tests.occupy import occupy_workers, wait_offered

GRAPHS = {
    "hot": random_bipartite(30, 20, 120, seed=2),
    "cold": random_bipartite(25, 20, 100, seed=3),
}


def make_scheduler(**kwargs) -> Scheduler:
    pool = SessionPool()
    for name, graph in GRAPHS.items():
        pool.register(name, graph)
    return Scheduler(pool, **kwargs)


class TestSpec:
    def test_round_trips_through_dict(self):
        spec = WorkloadSpec(graphs=("hot", "cold"), num_queries=10,
                            mode="open", rate_qps=50.0, seed=9)
        assert WorkloadSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ServiceError, match="unknown workload keys"):
            WorkloadSpec.from_dict({"graphs": ["g"], "typo": 1})

    @pytest.mark.parametrize("bad", [
        {"graphs": ()},
        {"graphs": ("g",), "shapes": ()},
        {"graphs": ("g",), "mode": "sideways"},
        {"graphs": ("g",), "clients": 0},
        {"graphs": ("g",), "mode": "open", "rate_qps": 0.0},
        {"graphs": ("g", "h"), "shape_weights": (1.0,)},
    ])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ServiceError):
            WorkloadSpec(**bad)


class TestGeneration:
    def test_deterministic_in_seed_and_offset(self):
        spec = WorkloadSpec(graphs=("hot", "cold"), seed=5)
        assert generate_requests(spec, 50) == generate_requests(spec, 50)
        assert generate_requests(spec, 50, seed_offset=1) \
            != generate_requests(spec, 50)

    def test_zipf_skews_toward_first_graph(self):
        spec = WorkloadSpec(graphs=("hot", "cold"), zipf_s=2.0, seed=0)
        reqs = generate_requests(spec, 400)
        hot = sum(1 for name, _, _ in reqs if name == "hot")
        assert hot > 250        # rank-1 weight is 2**2 = 4x rank-2's

    def test_shapes_respect_weights(self):
        spec = WorkloadSpec(graphs=("hot",), shapes=((2, 2), (3, 3)),
                            shape_weights=(0.0, 1.0), seed=1)
        assert {(p, q) for _, p, q in generate_requests(spec, 30)} \
            == {(3, 3)}


class TestRunWorkload:
    def test_closed_loop_serves_exact_budget(self):
        spec = WorkloadSpec(graphs=("hot", "cold"), num_queries=40,
                            clients=4, seed=7)
        with make_scheduler() as sched:
            result = run_workload(sched, spec)
        assert result.issued == 40
        assert result.completed == 40
        assert result.rejected == result.expired == result.failed == 0
        assert result.throughput_qps > 0
        # every served count is bit-identical to a direct run
        for s in result.served:
            direct = gbc_count(GRAPHS[s.graph], BicliqueQuery(s.p, s.q),
                               backend="fast")
            assert s.count == direct.count, s

    def test_closed_loop_duration_mode_stops(self):
        spec = WorkloadSpec(graphs=("hot",), duration_seconds=0.3,
                            clients=2, seed=1)
        with make_scheduler() as sched:
            result = run_workload(sched, spec)
        assert result.completed > 0
        assert result.wall_seconds < 5.0

    def test_open_loop_issues_at_rate(self):
        spec = WorkloadSpec(graphs=("hot", "cold"), num_queries=30,
                            mode="open", rate_qps=500.0, seed=2)
        with make_scheduler() as sched:
            result = run_workload(sched, spec)
        assert result.issued == 30
        assert result.completed + result.rejected \
            + result.expired + result.failed == 30
        assert result.completed > 0

    def test_open_loop_overload_reports_backpressure(self):
        spec = WorkloadSpec(graphs=("hot",), num_queries=40, mode="open",
                            rate_qps=100_000.0, seed=3)
        # one busy worker + a tiny queue: must reject some
        with make_scheduler(workers=1, max_pending=4) as sched, \
                ThreadPoolExecutor(1) as drive:
            with occupy_workers(sched, "cold") as parked:
                running = drive.submit(run_workload, sched, spec)
                wait_offered(sched, len(parked) + 40)
            result = running.result(timeout=60)
        assert result.rejected > 0
        assert result.completed + result.rejected \
            + result.expired + result.failed == 40

    def test_deadlines_flow_through(self):
        # one client per request, so all 8 queue at once
        spec = WorkloadSpec(graphs=("hot",), num_queries=8, clients=8,
                            deadline=1e-4, seed=4)
        # workers busy far beyond the deadline: every request expires
        with make_scheduler() as sched, ThreadPoolExecutor(1) as drive:
            with occupy_workers(sched, "cold") as parked:
                running = drive.submit(run_workload, sched, spec)
                wait_offered(sched, len(parked) + 8)
                time.sleep(0.01)
            result = running.result(timeout=60)
        assert result.expired == 8
        assert result.completed == 0

    def test_non_repro_errors_are_recorded_not_raised(self):
        # a loader raising an arbitrary exception must surface as a
        # failed-request count, not kill the client thread or the drive
        pool = SessionPool()

        def broken_loader():
            raise FileNotFoundError("edge list missing")

        pool.register("broken", broken_loader)
        spec = WorkloadSpec(graphs=("broken",), num_queries=6, clients=2)
        with Scheduler(pool) as sched:
            result = run_workload(sched, spec)
        assert result.issued == 6
        assert result.failed == 6
        assert result.completed == 0

    def test_client_streams_never_run_dry(self):
        # duration-bounded clients draw from an endless chunked stream;
        # pulling far past one chunk must keep yielding, stay
        # deterministic, and not collide with the other clients' chunks
        from itertools import islice

        from repro.service.workload import _endless_stream

        spec = WorkloadSpec(graphs=("hot", "cold"), num_queries=10,
                            clients=2, seed=8)
        first = list(islice(_endless_stream(spec, 0, stride=2), 5000))
        again = list(islice(_endless_stream(spec, 0, stride=2), 5000))
        other = list(islice(_endless_stream(spec, 1, stride=2), 5000))
        assert len(first) == 5000       # >> the 1024-request chunk
        assert first == again           # deterministic continuation
        assert first != other           # disjoint across clients

    def test_result_as_dict_is_json_shaped(self):
        import json

        spec = WorkloadSpec(graphs=("hot",), num_queries=5, clients=1)
        with make_scheduler() as sched:
            result = run_workload(sched, spec)
        data = json.loads(json.dumps(result.as_dict()))
        assert data["completed"] == 5
        assert data["spec"]["graphs"] == ["hot"]
