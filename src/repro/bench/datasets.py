"""Dataset stand-ins for the paper's Table II corpus.

The paper evaluates on nine KONECT datasets plus two synthetics.  Those
files are not available offline, so each dataset is replaced by a
deterministic synthetic stand-in that preserves what the experiments
exercise: the |U|/|V| ratio, the mean-degree contrast between layers, and
the degree skew (power-law head).  Three scales are provided:

* ``tiny``  — a few hundred edges; used by the test suite (brute-force
  verifiable).
* ``bench`` — a few thousand edges; used by the benchmark harness so the
  full paper matrix runs in minutes.
* ``full``  — tens of thousands of edges; closest to the DESIGN.md table,
  for users who want longer runs.
* ``large`` — Table II's own |U|, |V| and |E| (0.3-0.4M edges), for YT,
  BC and GH only: the ``full`` recipe (same gamma and seed) at the
  paper's size, generated in seconds.

Scaling note: graphs are ~10^2-10^4x smaller than the paper's, so the
default biclique scale shrinks accordingly — the harness default is
(p, q) = (4, 4) (paper default (8, 8)), and the scalability sweep uses
p + q in {4, 6, 8, 10, 12} (paper: {8, ..., 24}).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import paper_synthetic, power_law_bipartite

__all__ = ["DatasetSpec", "REGISTRY", "load_dataset", "list_datasets",
           "SCALES", "PAPER_STATS"]

SCALES = ("tiny", "bench", "full", "large")

# the paper's Table II: |U|, |V|, |E|, mean dU, mean dV
PAPER_STATS: dict[str, tuple[int, int, int, float, float]] = {
    "YT": (94_238, 30_087, 293_360, 3.11, 9.75),
    "BC": (77_802, 185_955, 433_652, 5.57, 2.33),
    "GH": (56_519, 120_867, 440_237, 7.79, 3.64),
    "SO": (545_196, 96_680, 1_301_942, 2.39, 13.47),
    "YL": (31_668, 38_048, 1_561_406, 49.31, 41.04),
    "ID": (303_617, 896_302, 3_782_463, 12.46, 4.22),
    "LF": (359_349, 160_168, 17_559_162, 48.86, 109.63),
    "FR": (16_874, 3_416_271, 23_443_737, 1389.34, 6.86),
    "OR": (2_783_196, 8_730_857, 327_037_487, 117.50, 37.45),
    "S1": (6_720, 5_300, 207_146, 30.83, 39.08),
    "S2": (12_720, 11_100, 220_651, 17.35, 19.88),
}


@dataclass(frozen=True)
class DatasetSpec:
    """One stand-in dataset: its provenance and per-scale builder."""

    key: str
    description: str
    builders: dict[str, Callable[[], BipartiteGraph]]

    @property
    def scales(self) -> tuple[str, ...]:
        """The scales this stand-in is built at, in :data:`SCALES` order."""
        return tuple(s for s in SCALES if s in self.builders)

    def build(self, scale: str) -> BipartiteGraph:
        if scale not in self.builders:
            raise KeyError(f"dataset {self.key} has no scale {scale!r}; "
                           f"available: {list(self.scales)}")
        graph = self.builders[scale]()
        return BipartiteGraph(graph.num_u, graph.num_v, graph.u_offsets,
                              graph.u_neighbors, graph.v_offsets,
                              graph.v_neighbors,
                              name=f"{self.key}-{scale}")


def _pl(nu: int, nv: int, ne: int, gamma: float, seed: int):
    return lambda: power_law_bipartite(nu, nv, ne, gamma=gamma, seed=seed)


def _pl_paper(key: str, gamma: float, seed: int):
    """The ``full`` recipe of ``key`` at Table II's |U|, |V| and |E|."""
    return _pl(*PAPER_STATS[key][:3], gamma, seed)


def _syn(nu: int, nv: int, mean: float, loc: int, seed: int):
    return lambda: paper_synthetic(nu, nv, mean_degree=mean,
                                   locality=loc, seed=seed)


REGISTRY: dict[str, DatasetSpec] = {
    "YT": DatasetSpec(
        "YT", "Youtube: sparse U, moderate V skew (dU~3.1, dV~9.8)",
        {"tiny": _pl(90, 30, 260, 2.0, 11),
         "bench": _pl(460, 155, 1500, 2.0, 11),
         "full": _pl(3100, 1000, 10000, 2.0, 11),
         "large": _pl_paper("YT", 2.0, 11)}),
    "BC": DatasetSpec(
        "BC", "Bookcrossing: wide V layer (dU~5.6, dV~2.3)",
        {"tiny": _pl(70, 170, 380, 2.1, 12),
         "bench": _pl(390, 930, 2150, 2.1, 12),
         "full": _pl(2600, 6200, 14500, 2.1, 12),
         "large": _pl_paper("BC", 2.1, 12)}),
    "GH": DatasetSpec(
        "GH", "Github: mid-degree U (dU~7.8)",
        {"tiny": _pl(56, 120, 420, 2.0, 13),
         "bench": _pl(380, 810, 2960, 2.0, 13),
         "full": _pl(1900, 4000, 14800, 2.0, 13),
         "large": _pl_paper("GH", 2.0, 13)}),
    "SO": DatasetSpec(
        "SO", "StackOverflow: very sparse U, skewed V (dU~2.4)",
        {"tiny": _pl(160, 28, 380, 2.2, 14),
         "bench": _pl(820, 150, 1950, 2.2, 14),
         "full": _pl(5500, 1000, 13100, 2.2, 14)}),
    "YL": DatasetSpec(
        "YL", "Yelp: dense both layers (dU~49 scaled down)",
        {"tiny": _pl(36, 44, 330, 1.7, 15),
         "bench": _pl(170, 205, 1850, 1.7, 15),
         "full": _pl(1000, 1200, 14000, 1.7, 15)}),
    "ID": DatasetSpec(
        "ID", "IMDB: large sparse V layer (dU~12.5 scaled)",
        {"tiny": _pl(68, 200, 420, 2.0, 16),
         "bench": _pl(620, 1830, 3880, 2.0, 16),
         "full": _pl(3000, 9000, 19000, 2.0, 16)}),
    "LF": DatasetSpec(
        "LF", "Lastfm: very dense (dU~49, dV~110 scaled down)",
        {"tiny": _pl(36, 16, 300, 1.7, 17),
         "bench": _pl(210, 90, 1750, 1.7, 17),
         "full": _pl(1200, 500, 12000, 1.7, 17)}),
    "FR": DatasetSpec(
        "FR", "Edit-fr: extreme U-degree skew (dU~1389 scaled to ~28)",
        {"tiny": _pl(12, 220, 330, 1.5, 18),
         "bench": _pl(90, 1800, 2560, 1.5, 18),
         "full": _pl(500, 10000, 14000, 1.5, 18)}),
    "OR": DatasetSpec(
        "OR", "Orkut: the out-of-memory scalability dataset.  Generated "
              "with the locality-window recipe so 2-hop closures overlap "
              "within neighbourhoods (the regime where the paper's 327M-"
              "edge original makes closure sharing profitable) while any "
              "balanced cut must slice through the overlapping chains",
        {"tiny": _syn(200, 400, 6.0, 40, 19),
         "bench": _syn(1200, 2400, 7.0, 64, 19),
         "full": _syn(5000, 10000, 9.0, 100, 19)}),
    "S1": DatasetSpec(
        "S1", "Synthetic 1 (paper recipe): dense 2-hop neighbourhoods",
        {"tiny": _syn(52, 42, 12.0, 24, 20),
         "bench": _syn(260, 220, 16.0, 48, 20),
         "full": _syn(1340, 1060, 30.0, 96, 20)}),
    "S2": DatasetSpec(
        "S2", "Synthetic 2 (paper recipe): larger, slightly sparser",
        {"tiny": _syn(100, 88, 7.0, 32, 21),
         "bench": _syn(500, 440, 9.0, 64, 21),
         "full": _syn(2540, 2220, 17.0, 128, 21)}),
}


def load_dataset(key: str, scale: str = "bench") -> BipartiteGraph:
    """Build the stand-in for paper dataset ``key`` at the given scale."""
    if key not in REGISTRY:
        raise KeyError(f"unknown dataset {key!r}; "
                       f"available: {sorted(REGISTRY)}")
    return REGISTRY[key].build(scale)


def list_datasets() -> list[str]:
    """All dataset keys, in the paper's Table II order."""
    return list(REGISTRY)
