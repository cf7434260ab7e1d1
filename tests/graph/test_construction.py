"""Graph construction is pinned byte for byte.

Every stand-in, at every scale the suite builds, must come out of the
vectorised CSR builder and the exact-stream power-law sampler with the
same four int64 arrays the per-edge builder and per-row ``rng.choice``
calls produced: counts, golden traces, frontier-memory pins and graph
fingerprints all key on them.  The pins below are the first 16 hex
digits of the SHA-1 of ``u_offsets || u_neighbors || v_offsets ||
v_neighbors``, taken from the per-edge builder.
"""

import hashlib
import zlib

import numpy as np
import pytest

from repro.bench.datasets import REGISTRY, load_dataset
from repro.graph import generators
from repro.graph.bipartite import graph_from_pairs
from repro.graph.generators import (_choice_rows, planted_bicliques,
                                    random_bipartite)

#: key -> ((graph, relabelled copy) digest at tiny, bench, full)
DIGESTS = {
    "YT": (("fc8b615c40c1f7e1", "8f9adbd5e89f54f1"),
           ("482d3340e18270df", "4588f7758ba489a9"),
           ("bac356e759c7c05b", "e44dfba832254935")),
    "BC": (("33a42712eed9e107", "c2d1140fbb3e8a08"),
           ("6e5b2dceed3a7c54", "3cee0cf44da5723f"),
           ("43b34360d8ed0f79", "35720ca16693cbcd")),
    "GH": (("f8f55cd0016702fc", "a88221c651640280"),
           ("f92ad0c4ea3e04d5", "f45bdf40ce16c264"),
           ("e5401da67028cb85", "b6aa0c4b3baf7e31")),
    "SO": (("57dcd1e8e4f0c4aa", "4870bcb3b8d5e9c9"),
           ("3109f0071ebe2dd5", "ae512792000d2f3b"),
           ("45cfe07a59579821", "af01e0553e2d2947")),
    "YL": (("81d68414ffb66267", "c00df642bdbceb27"),
           ("2460d7cc01006930", "c3d3d965a90603ef"),
           ("934c1cb5815a4e1f", "bc17b5f287b8aa25")),
    "ID": (("b16ef60335493269", "c96529317072c22e"),
           ("49815c13ad95eeca", "4d5745b8f55db1b7"),
           ("888770fcb39c4f55", "73e251a953983cc5")),
    "LF": (("4347f3ffae8568a9", "0fe18f953f2ca080"),
           ("4ce12d3242336cea", "c5869ba904e46f91"),
           ("76aa0a626ba4e7f1", "9c0a9c2a9a1b071e")),
    "FR": (("eae4a9e26db751f1", "2ca4e241b562df9a"),
           ("5aa3bedfd374d376", "3cd9dc6c96bcd7a5"),
           ("1d504c680ff6e339", "dc25a7693ae14083")),
    "OR": (("359ec32d3a7bdc8c", "60f1620f63848c88"),
           ("36286fe3f0b10911", "5b69a08c2dc8d92f"),
           ("7b29554371d21e8f", "9ca68613d3294b8f")),
    "S1": (("8e0ae2723896c8bd", "5d0630087d536c78"),
           ("66ee151858c21f85", "f5fb5595dcd8e2bb"),
           ("3072af1e32e14a12", "56f3299d8b2502b1")),
    "S2": (("4bbb3584c463151d", "25d662ff0a32efd7"),
           ("6f113f634a92b786", "178a2eb8f4540c57"),
           ("3d0b76cbdeee1969", "218db09f2093ddcd")),
}


def csr_digest(graph) -> str:
    h = hashlib.sha1()
    for arr in (graph.u_offsets, graph.u_neighbors,
                graph.v_offsets, graph.v_neighbors):
        assert arr.dtype == np.int64 and arr.flags.c_contiguous
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def test_every_stand_in_is_pinned():
    assert set(DIGESTS) == set(REGISTRY)


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_stand_ins_byte_identical(key):
    for scale, (want, want_relabelled) in zip(("tiny", "bench", "full"),
                                              DIGESTS[key]):
        graph = load_dataset(key, scale)
        rng = np.random.default_rng(zlib.crc32(f"{key}-{scale}".encode()))
        relabelled = graph.relabeled(rng.permutation(graph.num_u),
                                     rng.permutation(graph.num_v))
        assert (csr_digest(graph), csr_digest(relabelled)) == (
            want, want_relabelled), (key, scale)


def _reference(seed, sizes, weights):
    rng = np.random.default_rng(seed)
    rows = [rng.choice(len(weights), size=int(s), replace=False, p=weights)
            for s in sizes]
    return np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)


def _zipf(n, skew):
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** skew
    return w / w.sum()


class TestChoiceRows:
    """``_choice_rows`` against numpy's own ``Generator.choice``."""

    CASES = [
        # (n, sizes, weights)
        (1, [1, 1, 1], _zipf(1, 1.0)),
        (2, [2] * 40, _zipf(2, 3.0)),                   # size == n
        (5, [4, 5, 1, 5, 3] * 30, _zipf(5, 2.0)),       # size near n
        (12, [11, 12, 2, 12] * 25, _zipf(12, 4.0)),     # heavy skew
        (30, list(range(0, 31)) * 4, _zipf(30, 1.0)),   # every size
        (200, [3, 1, 7, 40] * 50, _zipf(200, 1.0)),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_numpy(self, case, seed, monkeypatch):
        n, sizes, weights = self.CASES[case]
        later = []
        real = generators._choice_one

        def counted(*args):
            later.append(args[1])
            return real(*args)

        monkeypatch.setattr(generators, "_choice_one", counted)
        got = _choice_rows(np.random.default_rng(seed),
                           np.asarray(sizes, dtype=np.int64), weights)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference(seed, sizes, weights))
        if n > 1 and max(sizes) > 1:
            assert later, "no row needed a second round"

    def test_random_weights_across_stream_refills(self):
        """More doubles than one stream chunk, rows of every size."""
        rng = np.random.default_rng(3)
        weights = rng.random(90) ** 4 + 1e-9
        weights /= weights.sum()
        sizes = rng.integers(0, 91, size=2000)
        assert sizes.sum() > generators._STREAM_CHUNK
        got = _choice_rows(np.random.default_rng(11), sizes, weights)
        assert np.array_equal(got, _reference(11, sizes, weights))

    def test_no_rows(self):
        got = _choice_rows(np.random.default_rng(0),
                           np.empty(0, dtype=np.int64), _zipf(4, 1.0))
        assert got.dtype == np.int64 and len(got) == 0


def _edge_set(graph):
    us = np.repeat(np.arange(graph.num_u), np.diff(graph.u_offsets))
    return set(zip(us.tolist(), graph.u_neighbors.tolist()))


class TestCsrBuilder:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sorted_rows(self, seed):
        """Both directions equal sorted per-vertex neighbour sets."""
        rng = np.random.default_rng(seed)
        num_u, num_v = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        us = rng.integers(0, num_u, size=120)
        vs = rng.integers(0, num_v, size=120)
        g = graph_from_pairs(num_u, num_v, us, vs)
        pairs = set(zip(us.tolist(), vs.tolist()))
        for u in range(num_u):
            want = sorted(v for (x, v) in pairs if x == u)
            assert g.neighbors("U", u).tolist() == want
        for v in range(num_v):
            want = sorted(u for (u, y) in pairs if y == v)
            assert g.neighbors("V", v).tolist() == want
        assert g.num_edges == len(pairs)


def _random_bipartite_loop(num_u, num_v, num_edges, seed):
    """The per-pair loop ``random_bipartite`` replaced."""
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < num_edges:
        k = int((num_edges - len(seen)) * 1.3) + 8
        us = rng.integers(0, num_u, size=k)
        vs = rng.integers(0, num_v, size=k)
        for u, v in zip(us, vs):
            if len(seen) >= num_edges:
                break
            seen.add((int(u), int(v)))
    return seen


def _planted_loop(num_u, num_v, plants, noise_edges, seed):
    """The one-pair-at-a-time noise loop ``planted_bicliques`` replaced."""
    rng = np.random.default_rng(seed)
    edges = set()
    next_u = next_v = 0
    for a, b in plants:
        edges |= {(u, v) for u in range(next_u, next_u + a)
                  for v in range(next_v, next_v + b)}
        next_u += a
        next_v += b
    added = 0
    while added < noise_edges:
        u = int(rng.integers(0, num_u))
        v = int(rng.integers(0, num_v))
        if (u, v) not in edges:
            edges.add((u, v))
            added += 1
    return edges


class TestSameStreamAsLoops:
    @pytest.mark.parametrize("num_u,num_v,num_edges", [
        (50, 40, 300), (6, 5, 30), (7, 9, 40), (1, 12, 12), (30, 1, 17)])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_random_bipartite(self, num_u, num_v, num_edges, seed):
        g = random_bipartite(num_u, num_v, num_edges, seed=seed)
        assert _edge_set(g) == _random_bipartite_loop(num_u, num_v,
                                                      num_edges, seed)

    @pytest.mark.parametrize("num_u,num_v,plants,noise", [
        (15, 15, [(3, 3)], 20), (4, 5, [(2, 2), (1, 3)], 13),
        (1, 9, [(1, 2)], 6), (8, 1, [], 8), (12, 10, [(4, 4)], 0)])
    @pytest.mark.parametrize("seed", [0, 2])
    def test_planted_bicliques(self, num_u, num_v, plants, noise, seed):
        g = planted_bicliques(num_u, num_v, plants, noise_edges=noise,
                              seed=seed)
        assert _edge_set(g) == _planted_loop(num_u, num_v, plants, noise,
                                             seed)
