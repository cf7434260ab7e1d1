"""oneshot-full: one caller, one cold ``method="auto"`` count at a time.

Each op builds a fresh ``GraphSession`` on a full-scale stand-in, plans
on ``native``, warms the plan's prepared state and counts.  Every pass
relabels the stand-ins again, so no op finds its graph's fingerprint in
any cache the program keeps, in the session or at module level.

The ops are long and memory-heavy (up to 2.7 GiB each), and on a shared
host their times follow the host: single ops swing by about a tenth,
and whole runs made minutes apart by a quarter or more.  The end-to-end
numbers therefore take each op's median over the passes of the window.
The drift between runs is still wider than a regression bound can
absorb, so ``BENCHMARK.json`` leaves this workload out (see README.md).
"""

from __future__ import annotations

import time

from repro import BicliqueQuery, GraphSession
from repro.bench.datasets import load_dataset
from repro.obs.trace import span
from repro.plan import warm_session

from inputs import Timer, check_answers, relabel, stand_in
from report import Outcome, median

#: (stand-in, k) for a (k, k) count.  S2 (3,3) and YT/S2 (4,4) are left
#: out: the plan auto picks for them exhausts the 4 GiB cap today, and a
#: workload whose ops fail measures little else.
OPS = (("YT", 3), ("GH", 3), ("LF", 3), ("OR", 3), ("OR", 4))
SMOKE_OPS = (("YT", 3), ("GH", 2), ("OR", 3))
#: the labelling of the warm-up graphs, one no measured op uses
WARM_VARIANT = 999


class OneshotFull:
    name = "oneshot-full"

    def __init__(self, seed: int, seconds: float, smoke: bool,
                 variant: int) -> None:
        self.seed = seed
        self.ops = SMOKE_OPS if smoke else OPS
        scale = "tiny" if smoke else "full"
        gen = Timer()
        with gen:
            self.bases = {key: stand_in(key, scale, seed, variant)
                          for key in dict(self.ops)}
        self.generate_s = gen.seconds

    def warm(self) -> None:
        """Run every op once on its tiny stand-in, untimed, so imports
        and first-call set-up inside the program are done before the
        window.  The measured ops stay cold: their graphs are new."""
        for key, k in self.ops:
            query = BicliqueQuery(k, k)
            graph = relabel(load_dataset(key, "tiny"), self.seed,
                            WARM_VARIANT, key)
            session = GraphSession(graph)
            warm_session(session, session.plan(query, backend="native"))
            session.count(query, "auto", backend="native")

    def close(self) -> None:
        pass

    def run(self, seconds: float, recorder=None) -> Outcome:
        """Passes over the op list until ``seconds`` have gone by.  The
        first pass always completes; after it, no op starts late."""
        out = Outcome(self.name)
        started = time.perf_counter()
        j = 0
        while True:
            graphs = {key: base if j == 0 else
                      relabel(base, self.seed, j, key)
                      for key, base in self.bases.items()}
            for key, k in self.ops:
                if j and time.perf_counter() - started >= seconds:
                    out.wall_s = time.perf_counter() - started
                    return out
                self._op(key, graphs[key], k, out)
            j += 1

    def e2e(self, out: Outcome) -> dict:
        # the typical pass: each op at its median over the passes, so a
        # slow stretch of the host that hits one pass moves nothing
        typical = [median([r["latency_ms"] for r in out.rows
                           if (r["graph"], r["shape"]) == (key, f"{k}x{k}")])
                   for key, k in self.ops]
        ok = sum(r["outcome"] == "ok" for r in out.rows) / len(out.rows)
        return {"ops_per_s": ok * len(typical) / (sum(typical) / 1e3),
                "latency_p50_ms": median(typical)}

    def _op(self, key: str, graph, k: int, out: Outcome) -> dict:
        query = BicliqueQuery(k, k)
        op_id = len(out.rows)
        row = {"row": "op", "op": op_id, "graph": key,
               "shape": f"{k}x{k}", "method": "", "outcome": "ok"}
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            with span("bench.op", op=op_id, graph=key, p=k, q=k):
                session = GraphSession(graph)
                with span("bench.plan", op=op_id):
                    t1 = time.perf_counter()
                    plan = session.plan(query, backend="native")
                    t2 = time.perf_counter()
                row["method"] = plan.method
                with span("bench.prepare", op=op_id):
                    warm_session(session, plan)
                    t3 = time.perf_counter()
                with span("bench.count", op=op_id):
                    result = session.count(query, "auto", backend="native")
                    t4 = time.perf_counter()
        except MemoryError:
            row["outcome"] = "MemoryError"
        except Exception as exc:  # a failed op is counted, the run goes on
            row["outcome"] = type(exc).__name__
        latency = time.perf_counter() - t0
        row["latency_ms"] = latency * 1e3
        if row["outcome"] != "ok":
            out.failed += 1
            return _keep(out, row)
        row.update(plan_ms=(t2 - t1) * 1e3, prepare_ms=(t3 - t2) * 1e3,
                   kernel_ms=(t4 - t3) * 1e3,
                   kernel_peak_mb=getattr(result, "peak_working_set_bytes",
                                          0) / 2**20)
        out.latencies_ms.append(latency * 1e3)
        out.serve(plan.method)
        out.answers.append({"graph": key, "p": k, "q": k,
                            "served": result.algorithm,
                            "count": int(result.count), "row": row})
        return _keep(out, row)

    def verify(self, out: Outcome) -> None:
        # relabelled passes are isomorphic to the base graph, so one
        # oracle count per (stand-in, shape, served method) checks them all
        out.wrong += check_answers(out.answers, self.bases)
        for ans in out.answers:
            if ans["wrong"]:
                ans["row"]["outcome"] = "wrong"

    def layer_metrics(self, out: Outcome) -> dict:
        ok = [r for r in out.rows if r["outcome"] == "ok"]
        if not ok:
            return {}
        shares = [1.0 - (r["plan_ms"] + r["prepare_ms"] + r["kernel_ms"])
                  / r["latency_ms"] for r in ok]
        return {
            "graph.generate_s": self.generate_s,
            "plan.ms": _mean(r["plan_ms"] for r in ok),
            "prepare.ms": _mean(r["prepare_ms"] for r in ok),
            "kernel.ms": _mean(r["kernel_ms"] for r in ok),
            "kernel.peak_mb": max(r["kernel_peak_mb"] for r in ok),
            "trace.unaccounted_share": max(shares),
        }


def _keep(out: Outcome, row: dict) -> dict:
    out.rows.append(row)
    return row


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
