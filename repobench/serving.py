"""serve-mixed: independent clients on one shared serving tier.

An open loop: a pacer thread submits reads and a writer thread applies
edge toggles, each on a fixed schedule of evenly spaced due times, and
every latency runs from the moment a request was *due*, so a stall also
charges the requests queued behind it.  Reads are zipf-distributed over
22 bench-scale graphs (every Table II stand-in under two labellings);
the pool holds half of them, so the cold tail keeps replanning and
rebuilding.  Two of the graphs are dynamic and take every write.  The
seed orders the reads and picks the written graph and edge of each write.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import (BicliqueQuery, DynamicGraphSession, EdgeMutation,
                   Scheduler, SessionPool)
from repro.obs.trace import span

from inputs import (Timer, check_answers, fixed_schedule, graph_at_epoch,
                    oracle_count, spread_mix, stand_in, toggle_stream,
                    zipf_weights)
from report import Outcome, percentile

SHAPES = ((2, 2), (2, 3), (3, 3))
READS_PER_S = 50.0
WRITES_PER_S = 10.0
#: stand-ins from most to least requested: costliest to rebuild first, so
#: the pool keeps the heavy graphs and the churning tail is the light
#: half, which holds the tier well below saturation
POPULARITY = ("SO", "ID", "LF", "GH", "S1", "S2", "BC", "YT", "OR", "YL",
              "FR")
#: zipf exponent of graph popularity
ZIPF_S = 1.5
#: the two graphs that take writes: one from the resident head of the
#: popularity order, one from the evicted tail
DYNAMIC = ("GH.0", "OR.1")
#: dynamic reads re-counted at their epoch by the oracle, per run
EPOCH_SAMPLE = 24
#: seconds a read may stay unanswered after the schedule ends
DRAIN_S = 60.0


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int, seconds: float, smoke: bool,
                 variant: int) -> None:
        self.seed = seed
        scale = "tiny" if smoke else "bench"
        # popularity order: both labellings of each stand-in side by side
        self.names = [f"{key}.{copy}" for key in POPULARITY
                      for copy in (0, 1)]
        gen = Timer()
        with gen:
            self.graphs = {f"{key}.{copy}": stand_in(key, scale, seed,
                                                     2 * variant + copy)
                           for key in POPULARITY for copy in (0, 1)}
        self.generate_s = gen.seconds

        rng = np.random.default_rng([seed, variant, 101])
        reads = int(READS_PER_S * seconds)
        pairs = [(name, shape) for name in self.names for shape in SHAPES]
        mix = spread_mix(rng, np.repeat(zipf_weights(len(self.names),
                                                     ZIPF_S),
                                        len(SHAPES)) / len(SHAPES), reads)
        self.reads = [(float(t), *pairs[i]) for t, i in
                      zip(fixed_schedule(reads, seconds), mix)]
        writes = int(WRITES_PER_S * seconds)
        targets = rng.integers(len(DYNAMIC), size=writes)
        self.toggles = {name: toggle_stream(self.graphs[name], rng,
                                            int((targets == i).sum()))
                        for i, name in enumerate(DYNAMIC)}
        cursor = {name: iter(edges) for name, edges in self.toggles.items()}
        self.writes = [(float(t), DYNAMIC[i], next(cursor[DYNAMIC[i]]))
                       for t, i in zip(fixed_schedule(writes, seconds),
                                       targets)]

        self.dynamic = {name: DynamicGraphSession.from_graph(
            self.graphs[name], track=SHAPES, backend="native")
            for name in DYNAMIC}
        self.pool = SessionPool(max_sessions=len(self.names) // 2)
        for name in self.names:
            self.pool.register(name, self.dynamic.get(name,
                                                      self.graphs[name]))
        self.scheduler = Scheduler(self.pool, method="auto",
                                   backend="native", workers=2)

    def warm(self) -> None:
        """Fill the pool coldest-first, so the popular half ends resident
        and the window sees steady churn rather than a cold start."""
        for name in reversed(self.names):
            if name not in self.dynamic:
                session = self.pool.session(name)
                for p, q in SHAPES:
                    session.count(BicliqueQuery(p, q), "auto",
                                  backend="native")

    def close(self) -> None:
        self.scheduler.close()
        self.pool.close()

    def run(self, seconds: float, recorder=None) -> Outcome:
        out = Outcome(self.name)
        pool0 = self.pool.snapshot()
        dyn0 = {n: d.stats.as_dict() for n, d in self.dynamic.items()}
        n = len(self.reads)
        submit_at = [0.0] * n
        done_at = [0.0] * n
        futures: list = [None] * n
        writes: list = []
        resolved = threading.Semaphore(0)
        start = time.perf_counter() + 0.05

        def on_done(_fut, i: int) -> None:
            done_at[i] = time.perf_counter()
            resolved.release()

        def pacer() -> None:
            for i, (due, name, (p, q)) in enumerate(self.reads):
                _sleep_until(start + due)
                submit_at[i] = time.perf_counter()
                try:
                    fut = self.scheduler.submit(name, p, q)
                except Exception as exc:  # rejected at admission
                    futures[i] = exc
                    continue
                fut.add_done_callback(lambda f, i=i: on_done(f, i))
                futures[i] = fut

        def writer() -> None:
            for j, (due, name, (u, v)) in enumerate(self.writes):
                _sleep_until(start + due)
                try:
                    with span("bench.mutate", op=j, graph=name):
                        epoch = self.scheduler.mutate(
                            name, [EdgeMutation.toggle(u, v)])
                except Exception as exc:
                    writes.append((name, None, type(exc).__name__))
                    continue
                writes.append((name, epoch,
                               (time.perf_counter() - start - due) * 1e3))

        threads = [threading.Thread(target=pacer, name="bench-pacer"),
                   threading.Thread(target=writer, name="bench-writer")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = _settle(futures, start + seconds + DRAIN_S)
        # result() can return before the done callback has stamped done_at
        for fut in futures:
            if not isinstance(fut, BaseException) and fut.done():
                resolved.acquire(timeout=DRAIN_S)

        out.attempted = n + len(self.writes)
        late_ms = []
        last_done = start
        for i, (due, name, (p, q)) in enumerate(self.reads):
            late_ms.append((submit_at[i] - start - due) * 1e3)
            result = results[i]
            if isinstance(result, BaseException):
                out.failed += 1
                continue
            last_done = max(last_done, done_at[i])
            latency = (done_at[i] - start - due) * 1e3
            out.latencies_ms.append(latency)
            out.serve(result.algorithm)
            out.answers.append({
                "graph": name, "p": p, "q": q, "served": result.algorithm,
                "count": int(result.count),
                "epoch": result.extras.get("epoch"),
                "peak_mb": getattr(result, "peak_working_set_bytes", 0)
                / 2**20})
            if recorder is not None:
                _record_request(recorder, i, name, p, q, start + due,
                                done_at[i], result.algorithm)
        out.wall_s = last_done - start
        write_ms = []
        for name, epoch, got in writes:
            if epoch is None:
                out.failed += 1
            else:
                write_ms.append(got)
        out.e2e["write_p50_ms"] = percentile(write_ms, 50)
        out.layers.update(self._counters(pool0, dyn0, late_ms, out))
        return out

    def _counters(self, pool0: dict, dyn0: dict, late_ms: list,
                  out: Outcome) -> dict:
        pool = self.pool.snapshot()
        hits = pool["hits"] - pool0["hits"]
        builds = pool["builds"] - pool0["builds"]
        tele = self.scheduler.telemetry.snapshot()
        dyn = {key: sum(d.stats.as_dict()[key] - dyn0[n][key]
                        for n, d in self.dynamic.items())
               for key in ("delta_updates", "recounts", "snapshots")}
        answered = max(out.answered, 1)
        return {
            "graph.generate_s": self.generate_s,
            "kernel.peak_mb": max((a["peak_mb"] for a in out.answers),
                                  default=0.0),
            "sched.batch_size_mean": tele["batches"]["mean_size"],
            "sched.queue_depth_max": tele["queue_depth"]["max"],
            "pool.hit_share": hits / max(hits + builds, 1),
            "pool.builds": builds,
            "pool.evictions": pool["evictions"] - pool0["evictions"],
            "gen.late_ms_max": max(late_ms, default=0.0),
            "write.p50_ms": out.e2e["write_p50_ms"],
            "write.delta_updates": dyn["delta_updates"],
            "write.recounts": dyn["recounts"],
            "write.snapshots": dyn["snapshots"],
            "dynamic.delta_read_share": out.served.get("delta", 0)
            / answered,
        }

    def e2e(self, out: Outcome) -> dict:
        right = out.answered - out.wrong
        return {"ops_per_s": right / out.wall_s if out.wall_s else 0.0}

    def layer_metrics(self, out: Outcome) -> dict:
        return {}      # every serve-mixed layer number comes from run()

    def verify(self, out: Outcome) -> None:
        static = [a for a in out.answers if a["graph"] not in self.dynamic]
        out.wrong += check_answers(static, self.graphs)
        # a dynamic read is checked on the graph rebuilt at its epoch,
        # which costs a fresh count each, so only a seeded sample is
        dynamic = [a for a in out.answers if a["graph"] in self.dynamic]
        rng = np.random.default_rng([self.seed, 202])
        for i in sorted(rng.permutation(len(dynamic))[:EPOCH_SAMPLE]):
            ans = dynamic[i]
            graph = graph_at_epoch(self.graphs[ans["graph"]],
                                   self.toggles[ans["graph"]],
                                   int(ans["epoch"]))
            out.wrong += ans["count"] != oracle_count(
                graph, ans["p"], ans["q"], ans["served"])


def _sleep_until(when: float) -> None:
    delay = when - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _settle(futures: list, deadline: float) -> list:
    """Each read's result, or the exception it failed with."""
    out = []
    for fut in futures:
        if isinstance(fut, BaseException):
            out.append(fut)
            continue
        try:
            out.append(fut.result(
                timeout=max(deadline - time.perf_counter(), 0.0)))
        except Exception as exc:
            out.append(exc)
    return out


def _record_request(recorder, i: int, name: str, p: int, q: int,
                    due: float, done: float, algorithm: str) -> None:
    """A due -> result span for one read, written straight into the
    recorder: the read is submitted on the pacer thread and resolved on a
    scheduler worker, so no thread-local span can bracket it."""
    recorder.record({"name": "bench.request", "kind": "span",
                     "span_id": f"read-{i}", "parent_id": None,
                     "thread": "bench-pacer",
                     "ts": time.time() - (time.perf_counter() - due),
                     "dur_ms": (done - due) * 1e3,
                     "attrs": {"op": i, "graph": name, "p": p, "q": q,
                               "served": algorithm}})
