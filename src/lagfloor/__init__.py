"""lagfloor: exact Lie-algebra cohomology, double-complex spectral sequences,
and the cohomological floor classification of weakly invariant Lagrangians."""

from .linalg import (
    DenominatorNotContained,
    KERNEL_IMPL,
    Mat,
    QuotientSpace,
    Subspace,
    image_basis,
    kernel_basis,
    quotient,
    solve,
)
from .expr import AnsatzSpec, Chart, EvaluationPole, Expr, ParseError, UnknownSymbol, parse_expr, to_string
from .calculus import (
    AnsatzExhausted,
    NotClosed,
    OneForm,
    VectorFieldExpr,
    d_el,
    derham_split,
    euler_lagrange,
    find_potential,
    gradient,
    is_closed,
)
from .liealg import BadParams, StructureConstants, UnknownName, catalog, jacobi_check
from .cecohom import (
    GModule,
    NotACocycle,
    ce_differential,
    coboundary_witness,
    cohomology,
    validate_module,
)
from .spectral import (
    DoubleComplex,
    abutment_check,
    page,
    page_infinity,
    random_double_complex,
    total_cohomology,
    transpose,
    validate_double_complex,
)
from .pairs import (
    FunctionCochain,
    GMPair,
    invariant_closed_forms,
    pi_images,
    restrict_cocycle,
    stability_subalgebra,
    validate_pair,
)
from .hierarchy import (
    ClassifyOptions,
    FloorReport,
    KSpacesReport,
    NotWeaklyInvariantError,
    PotentialUnavailable,
    build_invariance_double_complex,
    classify,
    k_spaces,
    noether_charges,
    weak_invariance_split,
)

__version__ = "0.1.0"
