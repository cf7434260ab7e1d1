"""Counting core: Basic, BCL, BCLP (CPU); GBL, GBC (simulated device);
brute-force verifier; butterfly fast path; full pipeline."""

from repro.core.basic import basic_count
from repro.core.bcl import BCLProfile, bcl_count, bcl_per_root_profile
from repro.core.bclp import bclp_count, schedule_makespan
from repro.core.butterfly import butterfly_count
from repro.core.counts import (
    BicliqueQuery,
    CountResult,
    DeviceRunResult,
    anchored_view,
)
from repro.core.enumerate import enumerate_bicliques
from repro.core.estimate import (DEFAULT_SAMPLES, Z95, EstimateResult,
                                 approx_count, estimate_count)
from repro.core.gbc import GBCOptions, gbc_count, gbc_variant
from repro.core.localcounts import LocalCountResult, local_biclique_counts
from repro.core.gbl import gbl_count
from repro.core.pipeline import REORDER_METHODS, PipelineResult, run_pipeline
from repro.core.profile import LevelStats, SearchTreeProfile, profile_search
from repro.core.verify import brute_force_count, brute_force_count_both_anchors

__all__ = [
    "BicliqueQuery", "CountResult", "DeviceRunResult", "anchored_view",
    "basic_count",
    "bcl_count", "bcl_per_root_profile", "BCLProfile",
    "bclp_count", "schedule_makespan",
    "butterfly_count",
    "gbl_count",
    "gbc_count", "GBCOptions", "gbc_variant",
    "run_pipeline", "PipelineResult", "REORDER_METHODS",
    "brute_force_count", "brute_force_count_both_anchors",
    "enumerate_bicliques",
    "estimate_count", "EstimateResult", "approx_count",
    "DEFAULT_SAMPLES", "Z95",
    "local_biclique_counts", "LocalCountResult",
    "profile_search", "SearchTreeProfile", "LevelStats",
]
