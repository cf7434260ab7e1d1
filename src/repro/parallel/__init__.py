"""Shard orchestration: multi-process execution of per-root work.

:mod:`repro.parallel.sharding` cuts the root set into one shard per
worker with the Table IV pre-runtime splitters and runs the shards in
a pool forked for the call;
:class:`repro.engine.parallel.ParallelBackend` packages that machinery as
the ``"par"`` kernel backend every counting entry point accepts.
"""

from repro.parallel.sharding import (
    ShardPlan,
    default_workers,
    fork_available,
    plan_shards,
    run_sharded,
)

__all__ = ["ShardPlan", "plan_shards", "run_sharded", "default_workers",
           "fork_available"]
