"""repro — reproduction of "Accelerating Biclique Counting on GPU" (ICDE'24).

Public API quickstart:

>>> from repro import BicliqueQuery, gbc_count, random_bipartite
>>> g = random_bipartite(num_u=30, num_v=20, num_edges=200, seed=7)
>>> result = gbc_count(g, BicliqueQuery(2, 3))
>>> result.count
528

Every counting entry point accepts ``backend=`` to pick the execution
engine: ``"sim"`` (default) runs the fully instrumented simulated device,
``"fast"`` runs pure vectorised NumPy with the instrumentation compiled
out, and ``"native"`` runs one batch kernel per search level;
``workers=N`` forks ``native``'s root loop over N LPT root shards —
identical counts in every case:

>>> gbc_count(g, BicliqueQuery(2, 3), backend="fast").count
528
>>> gbc_count(g, BicliqueQuery(2, 3), workers=2).count  # implies "native"
528

Many queries over one graph should share their precomputation (priority
reorder, two-hop index, HTB) through the batch engine in
:mod:`repro.query`:

>>> from repro import batch_count
>>> batch_count(g, "2x2,2x3,3x3", backend="fast").counts
[908, 528, 118]

Packages:

* :mod:`repro.engine` — the kernel-backend layer (pluggable execution
  engines behind every intersection).
* :mod:`repro.graph` — bipartite CSR graphs, IO, generators, 2-hop index.
* :mod:`repro.gpu` — the simulated SIMT device (warps, transactions,
  cost model) standing in for the paper's RTX 3090.
* :mod:`repro.htb` — Hierarchical Truncated Bitmap.
* :mod:`repro.reorder` — Border / Gorder / degree reorderings.
* :mod:`repro.balance` — pre-runtime + work-stealing load balancing.
* :mod:`repro.parallel` — shard orchestration for multi-process counting.
* :mod:`repro.partition` — BCPar and the METIS-like baseline.
* :mod:`repro.core` — the counting algorithms (Basic, BCL, BCLP, GBL, GBC).
* :mod:`repro.plan` — the query planner: a method registry every
  counter self-registers into, a CountPlan IR, one work-bound price
  for every deadline, and the single ``execute_plan`` dispatch site
  behind ``method="auto"``.
* :mod:`repro.query` — the batched multi-query engine (GraphSession,
  batch_count, LRU result cache).
* :mod:`repro.dynamic` — streaming graphs: exact incremental (p, q)
  maintenance under edge mutations, with epoch-pinned snapshots.
* :mod:`repro.service` — the concurrent serving subsystem (bounded
  session pool, work-conserving scheduler with futures/deadlines/
  backpressure, telemetry).
* :mod:`repro.dist` — the multi-process serving tier (consistent-hash
  routing over forked workers, partitioned fan-out).
* :mod:`repro.obs` — cross-layer observability: zero-overhead-when-off
  span tracing, the measured-cost ledger that calibrates the Planner,
  and structured logging.
* :mod:`repro.bench` — dataset stand-ins and paper experiment harness.

See ``docs/ARCHITECTURE.md`` for the layer diagram and
``docs/PAPER_MAP.md`` for the paper-to-code map.
"""

from repro.core import (
    BicliqueQuery,
    CountResult,
    DeviceRunResult,
    EstimateResult,
    GBCOptions,
    approx_count,
    basic_count,
    bcl_count,
    bclp_count,
    brute_force_count,
    butterfly_count,
    estimate_count,
    gbc_count,
    gbc_variant,
    gbl_count,
    run_pipeline,
)
from repro.engine import (
    BACKEND_NAMES,
    FastBackend,
    KernelBackend,
    NativeBackend,
    SimulatedDeviceBackend,
    get_backend,
    resolve_backend,
)
from repro.graph import (
    BipartiteGraph,
    complete_bipartite,
    from_adjacency,
    from_edges,
    paper_synthetic,
    planted_bicliques,
    power_law_bipartite,
    random_bipartite,
    read_edge_list,
    star_bipartite,
    write_edge_list,
)
from repro.gpu import DeviceSpec, rtx_3090, small_test_device
from repro.plan import (
    CountPlan,
    MethodSpec,
    Planner,
    execute_plan,
    method_names,
    plan_query,
    register_method,
)
from repro.query import (
    BatchResult,
    GraphSession,
    ResultCache,
    batch_count,
    graph_fingerprint,
    parse_queries,
)
from repro.dynamic import (
    DynamicGraphSession,
    EdgeMutation,
    SnapshotSession,
)
from repro.obs import (
    CostLedger,
    TraceRecorder,
    disable_tracing,
    enable_tracing,
    tracing,
)
from repro.service import (
    Scheduler,
    SchedulerConfig,
    SessionPool,
    Telemetry,
)

__version__ = "1.1.0"


__all__ = [
    "__version__",
    "BicliqueQuery", "CountResult", "DeviceRunResult", "GBCOptions",
    "basic_count", "bcl_count", "bclp_count", "gbl_count", "gbc_count",
    "gbc_variant", "butterfly_count", "brute_force_count", "run_pipeline",
    "EstimateResult", "estimate_count", "approx_count",
    "BipartiteGraph", "from_edges", "from_adjacency", "complete_bipartite",
    "random_bipartite", "power_law_bipartite", "paper_synthetic",
    "planted_bicliques", "star_bipartite", "read_edge_list", "write_edge_list",
    "DeviceSpec", "rtx_3090", "small_test_device",
    "KernelBackend", "SimulatedDeviceBackend", "FastBackend",
    "NativeBackend", "BACKEND_NAMES", "get_backend", "resolve_backend",
    "CountPlan", "MethodSpec", "Planner", "execute_plan", "method_names",
    "plan_query", "register_method",
    "GraphSession", "BatchResult", "ResultCache", "batch_count",
    "parse_queries", "graph_fingerprint",
    "DynamicGraphSession", "SnapshotSession", "EdgeMutation",
    "SessionPool", "Scheduler", "SchedulerConfig", "Telemetry",
    "CostLedger", "TraceRecorder", "enable_tracing", "disable_tracing",
    "tracing",
]
