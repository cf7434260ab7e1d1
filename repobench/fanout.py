"""dist-fanout: two closed-loop clients against a two-worker DistRouter.

Six bench-scale stand-ins are served (the most popular one replicated on
both workers) and two full-scale ones are BCPar-partitioned, so their
requests fan out to both workers and the slower shard sets the latency.
Every request names ``GBC`` on ``native``, so the planner is bypassed
and the measured cost is routing, pickling and the pipes.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import BicliqueQuery
from repro.dist import DistRouter
from repro.obs.trace import span
from repro.partition.runner import build_root_index, count_roots

from inputs import Timer, check_answers, stand_in, zipf_weights
from report import Outcome, median, percentile, vm_hwm_mb

SHAPES = ((2, 2), (2, 3), (3, 3))
CLIENTS = 2
#: (name, stand-in, scale) in popularity order; the head is replicated
GRAPHS = (("YT", "YT", "bench"), ("LF-full", "LF", "full"),
          ("GH", "GH", "bench"), ("S2-full", "S2", "full"),
          ("BC", "BC", "bench"), ("SO", "SO", "bench"),
          ("OR", "OR", "bench"), ("S1", "S1", "bench"))
HOT = ("YT",)
PARTITIONED = ("LF-full", "S2-full")
#: seconds one request may take before it counts as failed
REQUEST_TIMEOUT_S = 60.0
#: the window is cut into this many slices; throughput and latency are
#: medians over slices, so a few seconds of lost host CPU move nothing
SLICES = 10


class DistFanout:
    name = "dist-fanout"

    def __init__(self, seed: int, seconds: float, smoke: bool,
                 variant: int) -> None:
        self.seed = seed
        self.variant = variant
        gen = Timer()
        with gen:
            self.graphs = {name: stand_in(key, "tiny" if smoke else scale,
                                          seed, variant)
                           for name, key, scale in GRAPHS}
        self.generate_s = gen.seconds
        self.router = DistRouter(self.graphs, workers=2, hot=HOT,
                                 partitioned=PARTITIONED, method="GBC",
                                 backend="native")

    def warm(self) -> None:
        """Count each (graph, shape) once per replica, so the window
        measures serving rather than first-touch counting."""
        for name in self.graphs:
            for p, q in SHAPES:
                for _ in range(2):
                    self.router.count(name, p, q, timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        self.router.close()

    def run(self, seconds: float, recorder=None) -> Outcome:
        out = Outcome(self.name)
        names = [name for name, _, _ in GRAPHS]
        weights = zipf_weights(len(names))
        lock = threading.Lock()
        partitioned_ms: list[float] = []
        start = time.perf_counter()
        stop = start + seconds

        def client(c: int) -> None:
            rng = np.random.default_rng([self.seed, self.variant, 300 + c])
            i = 0
            while time.perf_counter() < stop:
                name = names[rng.choice(len(names), p=weights)]
                p, q = SHAPES[rng.integers(len(SHAPES))]
                op = f"c{c}-{i}"
                i += 1
                t0 = time.perf_counter()
                try:
                    with span("bench.request", op=op, graph=name, p=p, q=q):
                        result = self.router.submit(name, p, q).result(
                            timeout=REQUEST_TIMEOUT_S)
                except Exception:  # a failed request is counted, not fatal
                    with lock:
                        out.attempted += 1
                        out.failed += 1
                    continue
                done = time.perf_counter()
                ms = (done - t0) * 1e3
                with lock:
                    out.attempted += 1
                    out.latencies_ms.append(ms)
                    out.serve(result.algorithm)
                    out.answers.append({
                        "graph": name, "p": p, "q": q,
                        "served": result.algorithm,
                        "count": int(result.count), "ms": ms,
                        "slice": min(int((done - start) / seconds * SLICES),
                                     SLICES - 1)})
                    if name in PARTITIONED:
                        partitioned_ms.append(ms)

        threads = [threading.Thread(target=client, args=(c,),
                                    name=f"bench-client-{c}")
                   for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        out.wall_s = time.perf_counter() - start

        snap = self.router.cluster_snapshot()
        router_p50 = snap["router"]["latency_ms"]["p50"]
        worker_p50 = snap["cluster"]["latency_ms"]["p50"]
        tele = snap["router"]
        out.e2e["peak_rss_mb"] = vm_hwm_mb() + sum(
            vm_hwm_mb(pid) for pid in self.router.worker_pids())
        out.layers.update({
            "graph.generate_s": self.generate_s,
            "sched.batch_size_mean": tele["batches"]["mean_size"],
            "sched.queue_depth_max": tele["queue_depth"]["max"],
            "dist.router_ms_p50": router_p50,
            "dist.worker_ms_p50": worker_p50,
            "dist.ipc_ms_p50": router_p50 - worker_p50,
            "dist.partitioned_ms_p50": percentile(partitioned_ms, 50),
        })
        return out

    def e2e(self, out: Outcome) -> dict:
        slices = [[a for a in out.answers if a["slice"] == i]
                  for i in range(SLICES)]
        length = out.wall_s / SLICES
        return {
            "ops_per_s": median([sum(not a["wrong"] for a in part) / length
                                 for part in slices]),
            "latency_p50_ms": median([percentile([a["ms"] for a in part], 50)
                                      for part in slices]),
            "latency_p99_ms": median([percentile([a["ms"] for a in part], 99)
                                      for part in slices]),
        }

    def verify(self, out: Outcome) -> None:
        out.wrong += check_answers(out.answers, self.graphs)

    def layer_metrics(self, out: Outcome) -> dict:
        """Time ``count_roots`` over every root of each partitioned graph
        and shape: the work the fan-out splits between the workers."""
        timer = Timer()
        for name in PARTITIONED:
            graph = self.graphs[name]
            for p, q in SHAPES:
                index = build_root_index(graph, q)
                with timer:
                    count_roots(graph, BicliqueQuery(p, q),
                                range(graph.num_u), index=index)
        return {"partition.count_roots_s": timer.seconds}
