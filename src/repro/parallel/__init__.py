"""Shard orchestration: multi-process execution of per-root work.

:mod:`repro.parallel.sharding` cuts the root set into one shard per
worker with the Table IV pre-runtime splitters and runs the shards in
a pool forked for the call;
:class:`repro.engine.native.NativeBackend` with ``workers=N`` runs every
counter's root loop through it.
"""

from repro.parallel.sharding import (
    ShardPlan,
    fork_available,
    plan_shards,
    run_sharded,
)

__all__ = ["ShardPlan", "plan_shards", "run_sharded", "fork_available"]
