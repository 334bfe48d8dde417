"""Certificate-producing toolkit for packing/covering dualities on
loopless multigraphs."""

from .certificates import (
    CoverCertificate,
    Diagnostics,
    EPOutcome,
    PackingCertificate,
    PatternDetector,
    PatternWitness,
    QualityReport,
    builtin_detectors,
    cycles_detector,
    fixed_subgraph_detector,
    theta_detector,
    triangles_detector,
    verify_cover,
    verify_packing,
)
from .cycles import ep_cycles, reduce_low_degree, short_cycle_threshold
from .decomp import (
    Ceiling,
    NiceTreeDecomposition,
    Separation,
    TreeDecomposition,
    balanced_separation,
    cover_connected_bounded_tw,
    disconnected_pattern_ep,
    exact_elimination_td,
    min_fill_td,
    to_nice,
    validate_td,
)
from .errors import (
    BudgetExceeded,
    CeilingViolated,
    EPError,
    InvalidDecomposition,
    InvalidFamily,
    InvalidParameter,
    InvalidPartition,
    InvariantViolated,
    OracleFailure,
    PreconditionViolated,
    RoutingFailed,
    UnknownIdentifier,
    WouldCreateLoop,
)
from .gadgets import (
    Gadget,
    MinorModel,
    SubdivisionModel,
    gamma,
    route_avoiding,
    thicken,
    thicken_minor,
    thicken_subcubic,
    verify_minor_model,
    verify_subdivision_model,
)
from .graph import Cycle, Mode, MultiGraph
from .oracles import (
    ExactResult,
    exact_cover_subgraph,
    exact_ecover_cycles,
    exact_epack_cycles,
    exact_pack_subgraph,
    exact_vcover_cycles,
    exact_vpack_cycles,
    greedy_subgraph_ep,
)
from .rng import SplitMix64
from .treepart import (
    TreePartition,
    bfs_layer_tp,
    inductive_edge_cover,
    tp_width,
    validate_tp,
)
from .trees import SubtreeFamily, family_detector, gallai, rs_selection

__version__ = "0.1.0"
