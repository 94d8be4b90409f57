"""Phase diagram, tree fixpoints, exact moment oracles and Swendsen-Wang
dynamics for q-spin models on random regular graphs."""

from .spinsys import (
    InteractionMatrix,
    Phase,
    Signature,
    SizeGuardError,
    build_potts_matrix,
    cholesky_factor,
    interaction_matrix,
    load_model,
    model_from_json,
)
from .treefix import (
    Fixpoint,
    PottsThresholds,
    classify_stability,
    find_fixpoints,
    ordered_root_marginal,
    potts_fixpoints,
    potts_thresholds,
    tree_step,
)
from .moments import (
    MomentReport,
    dif_value,
    first_moment_exact,
    matrix_norm_p2,
    moment_report,
    potts_phase_diagram,
    psi1,
    psi2,
    second_moment_exact,
    small_graph_constants,
)
from .graphs import (
    GibbsOracle,
    RegularGraph,
    brute_gibbs,
    build_gadget,
    build_reduction,
    count_cycles,
    enumerate_pairings,
    make_graph,
    pairing_sample,
    read_graph,
    reduction_constants,
)
from .swsim import (
    SWTrace,
    classify_UMT,
    conductance,
    exact_sw_kernel,
    expected_mono,
    run_chain,
    sw_gap_check,
    sw_step,
)

__version__ = "0.1.0"
