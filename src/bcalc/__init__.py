"""Symbolic-numeric bookkeeping for boundary asymptotics.

Exact index-set algebra, corner blow-up combinatorics, b-map exponent
matrices, index transport under pull-back and push-forward, and the
half-line operator calculus (boundary spectrum, weighted model inverses,
parametrix index bookkeeping), with every symbolic prediction cross-checked
against brute-force quadrature.
"""

from .indexsets import (
    EMPTY,
    SMOOTH,
    Exponent,
    IndexEntry,
    IndexFamily,
    IndexSet,
    complete,
)
from .geometry import (
    BlowupRecord,
    BMapDescriptor,
    FaceLattice,
    blow_up_face,
    check_b_fibration,
    compose,
    halfline,
    halfline_projection,
    induced_face_map,
    lifted_projection,
    model_quadrant,
    triple_b_space,
    x2b,
    x2b_blowdown,
    x2b_lattice,
    x3b_blowdown,
    x3b_lattice,
)
from .transport import (
    TransportReport,
    b_density_shift,
    pull_back_family,
    push_forward_family,
    push_forward_halfline,
)
from .boperators import (
    BDiffOp,
    FullCalcDescriptor,
    IndicialData,
    ModelKernel,
    action_index,
    apply_check,
    compose_descriptors,
    hs_front_face_criterion,
    indicial,
    model_inverse,
    parametrix_indices,
    split_spec,
)
from .numeric import (
    PhgExpansion,
    QuadratureSpec,
    SampledFunction2D,
    convolve_model_kernels,
    fit_expansion,
    numeric_pushforward,
    solve_model_ode,
)

__version__ = "0.1.0"
