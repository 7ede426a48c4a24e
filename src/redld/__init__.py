"""Redundant locating-dominating sets: verification, exact solving,
closed-form families, extremal trees, a 3-SAT reduction, and periodic
grid patterns."""

from ._kernels import BACKEND as kernel_backend
from .families import (
    DensityConstant,
    FamilyValue,
    density_constants,
    kary_table,
    kary_value,
    max_order_even_k,
    redld_cycle,
    redld_kary,
    redld_ladder,
    redld_path,
)
from .graph import (
    Graph,
    build_complete_multipartite,
    build_cycle,
    build_hypercube,
    build_kary_tree,
    build_ladder,
    build_path,
    build_petersen,
    parse_edge_list,
    render_edge_list,
)
from .grids import (
    LatticeKind,
    PeriodicPattern,
    build_torus,
    density,
    parse_pattern,
    pattern_search,
    render_pattern,
    share_histogram,
    verify_periodic,
)
from .satreduce import (
    ReductionArtifact,
    SatInstance,
    assignment_to_detectors,
    build_reduction,
    decide_via_redld,
    extract_assignment,
    parse_dimacs_cnf,
)
from .solver import (
    BudgetExceededError,
    SolveBudget,
    SolveResult,
    brute_force_min_ld,
    brute_force_min_redld,
    forced_detectors,
    min_ld,
    min_redld,
    redld_exists,
)
from .trees import (
    TminClass,
    canonical_code,
    classify_tmin,
    enumerate_tmax,
    enumerate_tmin,
    is_2dom_redld_on_tree,
    is_tmax,
    random_tree,
    strip_exterior_p2,
    tmax_extensions,
    tmax_removals,
    tree_lower_bound,
)
from .verify import (
    DetectorSet,
    VerificationReport,
    distinguishing_degree,
    domination_count,
    find_twins,
    is_ld_set,
    is_redld_by_definition,
    is_redld_set,
    share,
)

__version__ = "0.1.0"
