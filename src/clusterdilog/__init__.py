"""Cluster-algebra y-seed mutation and the dilogarithm identities
attached to mutation periods: classical Rogers sums, exact quantum
dilogarithm identities in a truncated quantum torus, the noncompact
quantum dilogarithm, and the stationary-phase bridge between them."""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {    # module -> the public names it defines
    "errors": "BranchProximity ClusterDilogError IncompatibleContexts "
    "MixedSignCVector NonInvertible NonTruncating NotAPeriod PoleHit "
    "QuadratureFailure ZeroCVector",
    "exchange": "ExchangeMatrix MutationSchedule NumericSeed PeriodReport "
    "SignSequence check_period extend_schedule mutate_matrix "
    "numeric_trajectory principal_extension sign_sequence tropical_sign",
    "ratfunc": "EXACT QCoefficient RationalPointField",
    "torus": "TorusElement invert monomial multiply pairing power psi_series "
    "unit",
    "qident": "QuantumSeedSeries Residual initial_quantum_seed quantum_mutate "
    "quantum_trajectory verify_dual_pair verify_shuffle "
    "verify_tropical_identity verify_universal_identity",
    "dilog": "ClassicalIdentityReport li2 log_psiq_numeric psiq_asymptotics "
    "rogers_L rogers_L_complex verify_classical_identity",
    "phib": "PhibParams check_duality check_phib_asymptotics log_phib phib "
    "phipsi_residual recurrence_residual unitarity_residual",
    "saddle": "SaddleReport SaddleState TransformSpec action build_solution "
    "coordinate_maps newton_refine residuals",
    "fixtures": "builtin_seed load_seed_file seed_from_dict",
    "search": "search_periods",
}
_MODULE_OF = {n: m for m, names in _EXPORTS.items() for n in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):  # PEP 562: a name's module loads on first access
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name in _MODULE_OF:      # a public name, not a submodule: keep it
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        if name == "phib":  # the submodule, on its import: keep the function
            value = getattr(value, "phib", value)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
