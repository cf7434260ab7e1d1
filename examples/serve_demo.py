"""Serving demo: concurrent clients, batched counting, telemetry.

Run with::

    python examples/serve_demo.py

Spins up the serving subsystem over two generated graphs — a bounded
:class:`~repro.service.SessionPool` of prepared per-graph state behind a
:class:`~repro.service.Scheduler`, whose free workers batch whatever
queued for the same graph while they were busy — then fires 200 mixed
(p, q) queries at it from 8 client threads and prints the telemetry
snapshot.  Every served count is verified against a direct single-query
call: batching and pooling change throughput, never answers.
"""

import json
import threading

from repro import (
    BicliqueQuery,
    Scheduler,
    SessionPool,
    gbc_count,
    power_law_bipartite,
    random_bipartite,
)

QUERIES_PER_CLIENT = 25
CLIENTS = 8
SHAPES = [(2, 2), (2, 3), (3, 3), (3, 2)]


def main() -> None:
    graphs = {
        "social": power_law_bipartite(num_u=300, num_v=200, num_edges=1100,
                                      seed=42, name="social"),
        "retail": random_bipartite(num_u=200, num_v=150, num_edges=800,
                                   seed=7, name="retail"),
    }
    pool = SessionPool(max_sessions=2)
    for name, graph in graphs.items():
        pool.register(name, graph)

    served: list[tuple[str, int, int, int]] = []
    lock = threading.Lock()

    def client(client_id: int, scheduler: Scheduler) -> None:
        for i in range(QUERIES_PER_CLIENT):
            name = "social" if (client_id + i) % 3 else "retail"
            p, q = SHAPES[(client_id * 7 + i) % len(SHAPES)]
            result = scheduler.submit(name, p, q).result(timeout=60)
            with lock:
                served.append((name, p, q, result.count))

    with Scheduler(pool, workers=2, backend="fast") as scheduler:
        threads = [threading.Thread(target=client, args=(i, scheduler))
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = scheduler.telemetry.snapshot()

    total = QUERIES_PER_CLIENT * CLIENTS
    assert len(served) == total, (len(served), total)
    print(f"served {len(served)} queries from {CLIENTS} client threads "
          f"over {len(graphs)} pooled graphs\n")

    print("telemetry snapshot:")
    print(json.dumps(snapshot, indent=2, sort_keys=True))

    # bit-identical to direct single-query calls, for every request
    direct = {(name, p, q): gbc_count(graphs[name], BicliqueQuery(p, q),
                                      backend="fast").count
              for name, p, q in {(n, p, q) for n, p, q, _ in served}}
    assert all(count == direct[name, p, q]
               for name, p, q, count in served)
    print(f"\nverified: all {len(served)} served counts are bit-identical "
          f"to direct runs over {len(direct)} distinct (graph, p, q)")
    assert snapshot["completed"] == total
    assert snapshot["batches"]["mean_size"] > 1.0, \
        "micro-batching never coalesced anything"
    print(f"micro-batching: {snapshot['batches']['count']} batches, "
          f"mean size {snapshot['batches']['mean_size']:.1f}, "
          f"max {snapshot['batches']['max_size']}")


if __name__ == "__main__":
    main()
