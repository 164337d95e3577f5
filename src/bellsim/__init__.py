"""Bell-CHSH and Mermin correlators on dense finite-dimensional Hilbert
spaces, with violation maximization and a local-hidden-variable Monte Carlo.

Each public name is imported from its submodule on first access (PEP 562),
so ``import bellsim`` loads no numpy and the command line can check its
arguments before it pays for the numeric stack.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "ATOL_CONSTRUCT", "ATOL_OPT", "ATOL_ORACLE", "DenseOperator", "StateVector",
        "commutator", "expectation", "is_dichotomic",
        "operator_norm", "tensor_op", "tensor_state",
    ), "linalg"),
    **dict.fromkeys(("DEFAULT_CUTOFF", "NumericGuardError", "TSIRELSON_BOUND"), "limits"),
    **dict.fromkeys((
        "bell_state", "cat_state_pair", "cat_state_single", "coherent_state",
        "entangled_coherent", "ghz_state", "gisin_family_state", "is_product", "r_state",
        "spin_singlet", "squeezed_state", "symmetric_coherent",
    ), "states"),
    **dict.fromkeys((
        "PairingScheme", "SignedKronSum", "chsh_operator", "mermin3_operator",
        "mermin4_operator", "phase_flip_observable", "polar_observable",
        "pseudospin_operators", "spin_matrices",
    ), "observables"),
    **dict.fromkeys((
        "CorrelatorReport", "chsh_coherent", "chsh_gisin", "chsh_phi0_phase",
        "chsh_phi0_polar", "chsh_rstate", "chsh_spin_j", "chsh_squeezed",
        "generic_correlator", "mermin3_ghz", "mermin4_ghz", "spin_j_max",
    ), "correlators"),
    **dict.fromkeys((
        "OptimizationResult", "Scenario", "make_scenario", "maximize_violation",
        "table_gisin",
    ), "optimize"),
    **dict.fromkeys((
        "LhvEstimate", "LhvModel", "SIGN_MODEL", "chsh_lhv", "estimate_E", "get_model",
        "register_model", "singlet_quantum_E", "singlet_quantum_chsh", "uniform_sphere",
    ), "lhv"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
