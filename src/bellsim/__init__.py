"""Bell-CHSH and Mermin correlators on dense finite-dimensional Hilbert
spaces, with violation maximization and a local-hidden-variable Monte Carlo."""

from .linalg import (
    ATOL_CONSTRUCT,
    ATOL_OPT,
    ATOL_ORACLE,
    DenseOperator,
    NumericGuardError,
    StateVector,
    commutator,
    expectation,
    identity_operator,
    is_dichotomic,
    operator_norm,
    tensor_op,
    tensor_state,
)
from .states import (
    DEFAULT_CUTOFF,
    bell_state,
    cat_state_pair,
    cat_state_single,
    coherent_state,
    entangled_coherent,
    ghz_state,
    gisin_family_state,
    is_product,
    r_state,
    spin_singlet,
    squeezed_state,
    symmetric_coherent,
)
from .observables import (
    PairingScheme,
    SignedKronSum,
    TSIRELSON_BOUND,
    chsh_operator,
    mermin3_operator,
    mermin4_operator,
    phase_flip_observable,
    polar_observable,
    pseudospin_operators,
    spin_matrices,
)
from .correlators import (
    CorrelatorReport,
    chsh_coherent,
    chsh_gisin,
    chsh_phi0_phase,
    chsh_phi0_polar,
    chsh_product_plusminus,
    chsh_rstate,
    chsh_spin1,
    chsh_spin_j,
    chsh_squeezed,
    generic_correlator,
    mermin3_ghz,
    mermin4_ghz,
    spin_j_max,
)
from .optimize import (
    OptimizationResult,
    Scenario,
    make_scenario,
    maximize_violation,
    table_gisin,
)
from .lhv import (
    LhvEstimate,
    LhvModel,
    SIGN_MODEL,
    chsh_lhv,
    estimate_E,
    get_model,
    register_model,
    singlet_quantum_E,
    singlet_quantum_chsh,
    uniform_sphere,
)

__version__ = "0.1.0"
