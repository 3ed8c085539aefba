"""Exact Rumin/BGG complexes on graded nilpotent Lie algebras.

The library computes, in exact rational arithmetic: weight filtrations on
the exterior algebra of a graded nilpotent Lie algebra, the
Chevalley-Eilenberg coboundary and its metric adjoint, bigraded homology
rank tables, the flat-model de Rham calculus with polynomial
coefficients, the homotopy operators q and pi, the retraction onto the
bigraded complex with differential D, uniform-boundedness strip tables,
and a quasi-conformality decision procedure.
"""

__version__ = "0.1.0"

# The one rank kernel is pure Python; benchmark results record this name.
KERNEL_BACKEND = "python"

from .algebra import (
    BUILTIN_MODELS,
    Dilation,
    GradedNilpotentLieAlgebra,
    ValidationReport,
    algebra_from_json,
    algebra_to_json,
    builtin,
    dilate,
    homogeneous_dimension,
    validate,
)
from .budget import Budget
from .errors import (
    BudgetExceededError,
    IdentityError,
    StructureError,
    UnsupportedStepError,
)
from .fiber import (
    BggTable,
    FiberContext,
    FiberForm,
    FilteredOperator,
    bgg_fiber,
    cohomology_ranks,
    d0,
    delta,
    fiber_inner,
)
from .groupcalc import (
    GroupContext,
    LeftInvariantField,
    PolyForm,
    contraction,
    d,
    lie_derivative,
    parametrix_identity_check,
)

from .tables import (
    StripTable,
    ad_matrix,
    dilation_matrix,
    quasiconformal_check,
    quasiconformal_matrix,
    strip_table,
    truncation_ranks,
)

# `rumin` loads on first use of one of these names (PEP 562), so that
# importing the package, or a command that never builds a package, does not
# pay for its code
_RUMIN_NAMES = (
    "RuminPackage",
    "build_iota_and_D",
    "build_pi_and_E",
    "build_q",
    "invert_on_im_delta",
)

# every public name bound above, the submodules among them, and the lazy ones
__all__ = [*[n for n in globals() if not n.startswith("_")], "rumin", *_RUMIN_NAMES]


def __getattr__(name):
    from importlib import import_module

    if name != "rumin" and name not in _RUMIN_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    rumin = import_module(".rumin", __name__)
    if name == "rumin":
        return rumin
    value = globals()[name] = getattr(rumin, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
