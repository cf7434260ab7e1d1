"""Design-choice ablations beyond the paper's NH/NB/NW (DESIGN.md §8).

Three sweeps over GBC's tunables, each checking the design rationale:

* **shared-memory buffer size** — larger buffers allow bigger BFS batches
  (§IV's batching); utilisation should not degrade as the buffer grows,
  and tiny buffers must still count correctly.
* **HTB word width** — 32-bit words are the paper's choice; 8-bit words
  fragment the index (more words), 64-bit words pack better only on dense
  ids.  We measure the words/1-block trade-off across widths.
* **warp width** — wider warps amortise lock-step rounds but waste lanes
  on short candidate lists; utilisation should fall monotonically with
  width on sparse data.
"""

from dataclasses import replace


from repro.bench.datasets import load_dataset
from repro.bench.tables import render_table
from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count
from repro.gpu.device import rtx_3090
from repro.htb.htb import htb_from_graph

QUERY = BicliqueQuery(3, 3)


def test_ablation_shared_memory(benchmark, bench_scale, save_artifact):
    graph = load_dataset("YT", bench_scale)
    sizes = [256, 2048, 16 * 1024, 48 * 1024]

    def run():
        rows = []
        out = {}
        counts = set()
        for sm in sizes:
            spec = replace(rtx_3090(), shared_mem_per_block=sm)
            res = gbc_count(graph, QUERY, spec=spec, backend="sim")
            counts.add(res.count)
            out[sm] = res
            rows.append([f"{sm}B", f"{res.metrics.utilization * 100:.1f}%",
                         res.metrics.global_transactions,
                         f"{res.device_seconds * 1e3:.3f}ms"])
        assert len(counts) == 1, "buffer size changed the count"
        return out, render_table(
            "Ablation — shared-memory buffer vs batching",
            ["buffer", "utilisation", "transactions", "time"], rows)

    out, text = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("ablation_shared_memory", text)
    # bigger buffers batch more children: utilisation must not degrade
    utils = [out[s].metrics.utilization for s in sizes]
    assert utils[-1] >= utils[0] * 0.99


def test_ablation_word_bits(benchmark, bench_scale, save_artifact):
    graph = load_dataset("YT", bench_scale)
    widths = [8, 16, 32, 64]

    def run():
        rows = []
        words = {}
        for w in widths:
            htb = htb_from_graph(graph, "U", word_bits=w)
            words[w] = htb.total_words
            rows.append([w, htb.total_words, htb.one_block_count(),
                         f"{htb.density():.2f}"])
        return words, render_table(
            "Ablation — HTB word width",
            ["bits", "words", "1-blocks", "vertices/word"], rows)

    words, text = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("ablation_word_bits", text)
    # narrower words always need at least as many words
    assert words[8] >= words[16] >= words[32] >= words[64]


def test_ablation_warp_width(benchmark, bench_scale, save_artifact):
    graph = load_dataset("SO", bench_scale)
    widths = [8, 16, 32, 64]

    def run():
        rows = []
        utils = {}
        counts = set()
        for w in widths:
            spec = replace(rtx_3090(), warp_size=w,
                           transaction_bytes=4 * w)
            res = gbc_count(graph, BicliqueQuery(3, 3), spec=spec,
                            options=None, backend="sim")
            counts.add(res.count)
            utils[w] = res.metrics.utilization
            rows.append([w, f"{res.metrics.utilization * 100:.1f}%",
                         res.metrics.global_transactions])
        assert len(counts) == 1
        return utils, render_table(
            "Ablation — warp width on a sparse dataset",
            ["warp", "utilisation", "transactions"], rows)

    utils, text = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("ablation_warp_width", text)
    assert utils[64] <= utils[8] * 1.01  # wider warps never help occupancy
