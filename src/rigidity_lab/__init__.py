"""Numerical rigidity certificates for generalized conformal structures.

The package assembles jet-isometry and prolongation constraints as explicit
finite-dimensional linear systems and certifies rigidity statements as
kernel-dimension-zero reports with full singular spectra attached.
"""

__version__ = "0.1.0"

from .braid import (
    KernelReport,
    LinearSystem,
    classical_braid_kernel,
    generalized_braid_kernel,
    generalized_braid_system,
    trilinear_symskew_kernel,
)
from .certifier import (
    Certificate,
    gcs_certificate,
    lightlike_subrigidity_certificate,
)
from .gcs import (
    GcsChart,
    GenericityReport,
    LightlikeChart,
    builtin_chart,
    chart_from_doc,
    chart_to_doc,
    genericity_report,
    lift_to_lightlike,
)
from .multilinear import (
    BilinForm,
    SymTensor,
    form_signature,
)
from .prolongation import (
    FiniteType,
    InfiniteType,
    MatrixAlgebra,
    ProlongationSpace,
    UnknownBeyond,
    builtin_algebra,
    curve_stabilizer_algebra,
    find_rank1,
    finite_type,
    prolongation_space,
    rank1_witness_prolongation,
)
from .ratfield import Poly, RationalField
from .symspace import SpdCurve, SpdPoint, arclength_reparam, circle_mean, curve_length, spd_inner
