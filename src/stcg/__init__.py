"""Systematic time-coarse graining of driven quantum systems.

Derives effective low-frequency generators (corrected Hamiltonians plus
pseudo-dissipators) for rapidly driven systems by filtering fast phase
factors through a spectral window, and verifies them against direct
integration on truncated Hilbert spaces.
"""
from .contraction import (
    FrequencyTuple,
    UnresolvedSingularityError,
    bubble_factor_oracle,
    contraction_coefficient,
    symmetry_check,
)
from .diagrams import Bubble, Diagram, count_diagrams, enumerate_diagrams
from .model import (
    DissipatorTermSpec,
    EffectiveModel,
    HamiltonianTermSpec,
    ModelSpec,
    assemble,
    effective_dissipators,
    effective_hamiltonian,
    export_model,
    ir_limit,
    load_effective,
    load_model,
    parse_quantity,
    prune_terms,
)
from .operators import (
    ModeSpec,
    OperatorSum,
    monomial_label,
    parse_operator,
)
from .presets import PRESETS, get_preset
from .simulate import (
    NumericalGuardError,
    ObservableSpec,
    Trajectory,
    build_initial,
    coarse_grain_trajectory,
    compare_series,
    expectation_series,
    integrate,
    rate_decomposition,
)
from .symbols import (
    TAU,
    TIME,
    FreqExpr,
    GaussianFilter,
    scalar_eval,
)

__version__ = "0.1.0"

__all__ = [
    "TAU",
    "TIME",
    "Bubble",
    "Diagram",
    "DissipatorTermSpec",
    "EffectiveModel",
    "FreqExpr",
    "FrequencyTuple",
    "GaussianFilter",
    "HamiltonianTermSpec",
    "ModeSpec",
    "ModelSpec",
    "NumericalGuardError",
    "ObservableSpec",
    "OperatorSum",
    "PRESETS",
    "Trajectory",
    "UnresolvedSingularityError",
    "assemble",
    "bubble_factor_oracle",
    "build_initial",
    "coarse_grain_trajectory",
    "compare_series",
    "contraction_coefficient",
    "count_diagrams",
    "effective_dissipators",
    "effective_hamiltonian",
    "enumerate_diagrams",
    "expectation_series",
    "export_model",
    "get_preset",
    "integrate",
    "ir_limit",
    "load_effective",
    "load_model",
    "monomial_label",
    "parse_operator",
    "parse_quantity",
    "prune_terms",
    "rate_decomposition",
    "scalar_eval",
    "symmetry_check",
]
