"""Core algorithms of the paper.

* Algorithm 1 -- :func:`run_hk_ssp` / :func:`run_apsp` / :func:`run_k_ssp`
* Algorithm 2 -- :func:`run_short_range` / :func:`run_short_range_extension`
* CSSSP (Section III-A) -- :func:`build_csssp`
* Blocker sets + Algorithm 4 (Section III-B) -- :func:`compute_blocker_set`
* Algorithm 3 -- :func:`run_kssp_blocker` / :func:`run_apsp_blocker`
* Approximate APSP (Section IV) -- :func:`run_approx_apsp`
* Baselines -- :func:`run_unweighted_apsp`, :func:`run_positive_apsp`,
  :func:`run_bellman_ford` and friends
* High-level API -- :func:`apsp`, :func:`k_ssp`, :func:`h_hop_ssp`,
  :func:`approximate_apsp`
"""

from .api import approximate_apsp, apsp, h_hop_ssp, k_ssp
from .approx import (
    ApproxAPSPResult,
    run_approx_apsp,
    run_approx_apsp_positive,
    verify_approx_ratio,
)
from .routing import Route, RoutingTable
from .bellman_ford import (
    BellmanFordKSSPResult,
    BellmanFordResult,
    run_bellman_ford,
    run_bellman_ford_apsp,
    run_bellman_ford_kssp,
)
from .blocker import (
    BlockerResult,
    blocker_size_bound,
    compute_blocker_set,
    greedy_blocker_reference,
    tree_scores,
    verify_blocker_coverage,
)
from .csssp import CSSSPCollection, build_csssp
from .keys import (
    ceil_key,
    gamma_for,
    key_of,
    max_entries_per_source,
    send_round,
    theoretical_key_bound,
)
from .kssp import KSSPResult, run_apsp_blocker, run_kssp_blocker
from .kssp_random import SampledKSSPResult, run_apsp_sampled, run_kssp_sampled
from .node_list import NodeList, ReferenceNodeList, set_paranoid
from .pipelined import (
    HKSSPResult,
    PipelinedSSPProgram,
    run_apsp,
    run_hk_ssp,
    run_k_ssp,
)
from .positive_pipeline import PositiveAPSPResult, run_positive_apsp
from .scaling import ScalingAPSPResult, run_scaling_apsp
from .short_range import (
    KSourceShortRangeResult,
    ShortRangeResult,
    k_source_short_range_schedule,
    run_k_source_short_range_concurrent,
    run_k_source_short_range_joint,
    run_short_range,
    run_short_range_extension,
)
from .unweighted import (
    UnweightedAPSPResult,
    run_unweighted_apsp,
    zero_reachability_distributed,
)

__all__ = [
    "ApproxAPSPResult",
    "BellmanFordKSSPResult",
    "BellmanFordResult",
    "BlockerResult",
    "CSSSPCollection",
    "HKSSPResult",
    "KSSPResult",
    "KSourceShortRangeResult",
    "NodeList",
    "ReferenceNodeList",
    "PipelinedSSPProgram",
    "PositiveAPSPResult",
    "Route",
    "RoutingTable",
    "SampledKSSPResult",
    "ScalingAPSPResult",
    "ShortRangeResult",
    "UnweightedAPSPResult",
    "approximate_apsp",
    "apsp",
    "blocker_size_bound",
    "build_csssp",
    "ceil_key",
    "compute_blocker_set",
    "gamma_for",
    "greedy_blocker_reference",
    "h_hop_ssp",
    "k_source_short_range_schedule",
    "k_ssp",
    "key_of",
    "max_entries_per_source",
    "run_approx_apsp",
    "run_approx_apsp_positive",
    "run_apsp",
    "run_apsp_blocker",
    "run_apsp_sampled",
    "run_bellman_ford",
    "run_bellman_ford_apsp",
    "run_bellman_ford_kssp",
    "run_hk_ssp",
    "run_k_source_short_range_concurrent",
    "run_k_source_short_range_joint",
    "run_k_ssp",
    "run_kssp_blocker",
    "run_kssp_sampled",
    "run_positive_apsp",
    "run_scaling_apsp",
    "run_short_range",
    "run_short_range_extension",
    "run_unweighted_apsp",
    "send_round",
    "set_paranoid",
    "theoretical_key_bound",
    "tree_scores",
    "verify_approx_ratio",
    "verify_blocker_coverage",
    "zero_reachability_distributed",
]
