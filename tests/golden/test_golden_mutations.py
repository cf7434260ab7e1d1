"""Golden mutation traces: pinned per-prefix counts under edit streams.

The metamorphic extension of the golden-count harness to streaming
graphs: for each golden graph shape, a fixed-seed stream of 200 single
edge toggles is replayed through a
:class:`~repro.dynamic.DynamicGraphSession` tracking that shape's
pinned query, and the count after *every* prefix is asserted against
``golden_mutations.json`` — any drift in the delta rule, the cutover,
or the snapshot path fails on the exact edit index that diverged.

Every backend replays the same stream against the same pinned trace
(the store cross-checks engines within one session), and prefixes at
a fixed recount cadence are additionally verified against an
independent from-scratch recount on that backend.  Re-pin after an
intentional semantic change with
``python -m pytest tests/golden --update-golden``.
"""

from __future__ import annotations

import pytest

from repro.dynamic import DynamicGraphSession, edit_stream

from tests.golden.test_golden_counts import GRAPHS

BACKENDS = ("sim", "fast", "native")
MUTATION_EDITS = 200
RECOUNT_EVERY = 40
STREAM_SEED = 29


@pytest.fixture(scope="module")
def graphs():
    return {name: (build(), query)
            for name, (build, query) in GRAPHS.items()}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", sorted(GRAPHS))
def test_golden_mutation_trace(golden_mutations, graphs, shape, backend):
    graph, query = graphs[shape]
    stream = edit_stream(graph, MUTATION_EDITS, seed=STREAM_SEED)
    # a huge cutover ratio pins the *delta rule* on every edit — the
    # sim planner prices rebuilds in simulated device-seconds, which
    # would otherwise cut over (and recount) on nearly every edit;
    # cutover exactness has its own property test
    dyn = DynamicGraphSession.from_graph(graph, backend=backend,
                                         cutover_ratio=1e9,
                                         track=[(query.p, query.q)])
    trace = []
    for i, mutation in enumerate(stream):
        dyn.apply(mutation)
        count = dyn.count(query.p, query.q)
        trace.append(count)
        if (i + 1) % RECOUNT_EVERY == 0:
            assert count == dyn.recount(query.p, query.q,
                                        backend=backend), (
                f"incremental diverged from recount at edit {i} "
                f"on {shape}/{query}")
    assert dyn.epoch == MUTATION_EDITS
    assert dyn.stats.delta_updates == MUTATION_EDITS
    golden_mutations.check(f"{shape}/{query}/seed{STREAM_SEED}", trace,
                           source=f"DynamicGraphSession[{backend}]")
