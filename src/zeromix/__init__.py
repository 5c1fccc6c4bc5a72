"""Exact and series machinery for hard-core and homomorphism partition
functions on finite graphs: brute-force oracles, cluster-expansion series,
certified truncation through conformal maps, polymer representations, and a
scan harness for spatial-mixing and zero-location experiments."""

from .cluster import (
    connected_subsets,
    logZ_series,
    ratio_series_cluster,
    ratio_series_division,
    shearer_radius,
    weitz_lambda_c,
)
from .errors import (
    BoundaryError,
    GraphParseError,
    HypothesisViolationError,
    NearZeroDenominatorError,
    SizeLimitError,
    TruncationDepthError,
    ZeromixError,
    ZeroRegionViolationError,
)
from .exact import (
    IndPoly,
    cond_prob_hardcore,
    edge_matrix_Z,
    eval_Z,
    eval_poly,
    hom_Z,
    hom_Z_poly,
    hom_ratio,
    ind_poly,
    multivariate_Z,
    ratio_P,
    ratio_R,
)
from .families import (
    FAMILY_KINDS,
    cycle_graph,
    generate_family,
    grid_graph,
    line_graph_of_random_regular,
    path_graph,
    random_regular_graph,
)
from .graphs import (
    Graph,
    HardcoreBoundary,
    SpinBoundary,
    apply_hardcore_boundary,
    ball,
    bfs_distances,
    connected_components,
    dist_to_disagreement,
    format_graph,
    from_edges,
    induced_subgraph,
    is_claw_free,
    parse_graph,
    remove_vertices,
)
from .harness import (
    ClawfreeRootReport,
    RatioScanReport,
    SSMFit,
    SSMRecord,
    ZeroScanReport,
    clawfree_root_check,
    ratio_bound_scan,
    ssm_scan,
    zero_scan,
)
from .interpolate import (
    ApproxResult,
    SectorSpec,
    StripSpec,
    approx_cond_prob,
    estimate_M,
    gap_bound_hardcore,
    gap_bound_hom,
    tail_bound,
)
from .polymers import (
    BarvinokReport,
    BoundedRatioReport,
    DeltaSpec,
    HomSSMReport,
    Polymer,
    PolymerGraph,
    barvinok_zero_check,
    bounded_ratio_check,
    build_edge_matrices,
    delta_Delta,
    enumerate_polymers,
    hom_Z_via_polymers,
    hom_ratio_series,
    hom_ssm_experiment,
    polymer_graph,
)
from .series import PowerSeries

__all__ = [name for name in dir() if not name.startswith("_")]
