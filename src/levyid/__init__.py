"""Monte-Carlo identity checks for nonnegative infinitely divisible processes.

The package samples four time-indexed jump-process families (Poisson
counting, tempered stable subordinator, self-similar additive, stochastic
convolution) plus finite-state permanental vectors, builds the companion
objects of the size-biased tilting and conditioning identities, and verifies
those identities statistically against quadrature and closed-form oracles.
"""

from .core import (
    ConvSpec,
    ExpDecayKernel,
    JumpLaw,
    JumpLawSpec,
    Kernel,
    LevyFunctionalPanel,
    PanelEntry,
    PermanentalSpec,
    PoissonSpec,
    PowerCutoffKernel,
    ProcessSpec,
    SatoSpec,
    TabulatedKernel,
    TemperedStableSpec,
    TimeGrid,
    WeightedEnsemble,
    make_grid,
    mean_function,
)
from .identities import (
    tilted_ensemble,
    verify_decomposition_identity,
    verify_tilting_identity,
)
from .levymeasure import (
    laplace_exponent_check,
    levy_functional_mc,
    levy_functional_quadrature,
    validate_levy_conditions,
)
from .limits import verify_thinning_limit
from .permanental import (
    GreenMatrix,
    green_matrix,
    levy_functional_permanental,
    sample_local_times,
    sample_permanental,
    verify_permanental_identity,
)
from .processes import sample_paths
from .randkit import (
    RngStream,
    sample_jump,
    sample_positive_stable,
    sample_tempered_stable_increment,
)
from .statlab import Check, compare, effective_sample_size

__version__ = "0.1.0"

__all__ = [
    "Check",
    "ConvSpec",
    "ExpDecayKernel",
    "GreenMatrix",
    "JumpLaw",
    "JumpLawSpec",
    "Kernel",
    "LevyFunctionalPanel",
    "PanelEntry",
    "PermanentalSpec",
    "PoissonSpec",
    "PowerCutoffKernel",
    "ProcessSpec",
    "RngStream",
    "SatoSpec",
    "TabulatedKernel",
    "TemperedStableSpec",
    "TimeGrid",
    "WeightedEnsemble",
    "compare",
    "effective_sample_size",
    "green_matrix",
    "laplace_exponent_check",
    "levy_functional_mc",
    "levy_functional_permanental",
    "levy_functional_quadrature",
    "make_grid",
    "mean_function",
    "sample_jump",
    "sample_local_times",
    "sample_paths",
    "sample_permanental",
    "sample_positive_stable",
    "sample_tempered_stable_increment",
    "tilted_ensemble",
    "validate_levy_conditions",
    "verify_decomposition_identity",
    "verify_permanental_identity",
    "verify_thinning_limit",
    "verify_tilting_identity",
]
