"""Extension ablation: (q, p)-core pruning as a GBC preprocessor.

Every (p, q)-biclique survives the (q, p)-core peel (each member keeps
enough in-biclique neighbours), so peeling first is count-preserving and
strips the power-law tail before the 2-hop index is even built.  This
bench measures the edge reduction and the device-time effect.
"""

from repro.bench.datasets import load_dataset
from repro.bench.tables import format_seconds, render_table
from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count
from repro.graph.cores import prune_for_query

QUERY = BicliqueQuery(4, 4)
DATASETS = ("YT", "BC", "GH", "SO", "ID")


def test_core_pruning(benchmark, bench_scale, save_artifact):
    def run():
        rows = []
        data = {}
        for name in DATASETS:
            graph = load_dataset(name, bench_scale)
            full = gbc_count(graph, QUERY, backend="sim")
            core = prune_for_query(graph, QUERY.p, QUERY.q)
            pruned = gbc_count(core.subgraph, QUERY, backend="sim")
            assert pruned.count == full.count, name
            data[name] = {
                "edge_reduction": core.reduction(graph),
                "full_seconds": full.device_seconds,
                "pruned_seconds": pruned.device_seconds,
            }
            rows.append([name,
                         f"{core.reduction(graph) * 100:.1f}%",
                         format_seconds(full.device_seconds),
                         format_seconds(pruned.device_seconds)])
        return data, render_table(
            f"Ablation — (q,p)-core pruning before GBC, (p,q)={QUERY}",
            ["Dataset", "edges removed", "GBC full", "GBC pruned"], rows)

    data, text = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("ablation_core_pruning", text)
    for name, cell in data.items():
        assert cell["edge_reduction"] >= 0.0
        # pruning never hurts device time materially
        assert cell["pruned_seconds"] <= cell["full_seconds"] * 1.10, name
    # the power-law tail is substantial on at least some datasets
    assert max(c["edge_reduction"] for c in data.values()) > 0.10
