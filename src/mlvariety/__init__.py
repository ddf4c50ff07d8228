"""Exact-arithmetic calculus of multilinear forms and varieties over small
prime fields: bias, analytic and partition rank, slices, directional
convolutions, and certified extraction of low-codimension subvarieties."""

from .budget import (
    BudgetExceededError,
    point_budget,
    reset_work,
    set_point_budget,
    work_points,
)
from .construct import (
    ApproxResult,
    DenseColumnsResult,
    dense_columns,
    external_approx,
    find_subvariety,
)
from .errors import (
    ApproxMismatchError,
    ConstructionError,
    EmptyVarietyError,
    InputFormatError,
    PreconditionError,
    ZeroBiasError,
)
from .fibers import (
    CertificateCheck,
    ZeroFiberReport,
    density,
    verify_certificate,
    zero_fiber_identity_check,
)
from .forms import (
    MultilinearForm,
    MultilinearMap,
    Shape,
    analytic_rank,
    bias,
    ceil_log,
    eval_form,
    matricization_rank_bound,
    partition_rank_search,
    prank_lower_bound,
    product_form,
    slice_form,
)
from .ledger import SubvarietyCertificate, arity_constant, budget_line, codim_budget
from .variety import (
    ConvFillReport,
    Parallelepiped,
    PointSet,
    Variety,
    conv_fill_check,
    directional_convolution,
    intersect,
    iterated_conv_witness,
    membership,
    slice_variety,
    variety_bitmap,
)

__version__ = "0.1.0"
