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
from .rumin import (
    RuminPackage,
    build_iota_and_D,
    build_pi_and_E,
    build_q,
    invert_on_im_delta,
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
