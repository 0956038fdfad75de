"""Exact quantum cohomology of complex Grassmannians.

Schubert calculus over Q and finite fields (quantum Pieri and Giambelli),
the degree-zero graded-field classifier, root-of-unity
evaluation homomorphisms, and a floating-point Gelfand-Cetlin toolbox with
the disk potential's critical point in closed form, checked exactly.

Only the Gelfand-Cetlin toolbox needs numpy. It is imported on first access
to one of its names (``from qhgrass import gc_map``, or
``import qhgrass.gelfand_cetlin``), so ``import qhgrass`` and the exact
layers load without numpy.
"""

from .diagram import (
    EMPTY,
    GradedBasisElement,
    GrContext,
    YoungDiagram,
    column_diagram,
    enumerate_diagrams,
    graded_basis,
)
from .exactfield import (
    QQ,
    DegreeLimitError,
    ExtensionField,
    FieldCtx,
    FieldError,
    Poly,
    PrimeField,
    SquareMatrix,
    UnsupportedCharacteristicError,
    char_poly,
    cyclotomic_field,
    is_irreducible,
    make_extension,
    min_poly,
    nth_roots_of_unity,
    parse_field,
    prime_field,
)
from .qh_core import (
    QhElement,
    format_element,
    giambelli_expand,
    parse_element,
    pieri_multiply,
    q_shift,
    quantum_product,
    schubert_product,
    special_class,
    transposed_pieri_multiply,
)
from .presentation import (
    AdmissibleMultiset,
    EvContext,
    admissible_multisets,
    ev_map,
    verify_ideal_vanishing,
)
from .degree_zero import (
    ClassifierVerdict,
    Diameter,
    OrbitDecomposition,
    charpoly_identity_holds,
    classify,
    closed_form_charpoly,
    closed_form_matrix,
    generates_units,
    is_graded_field,
    mult_matrix,
    orbit_decomposition,
    orbit_sizes,
    qh0_basis,
    standard_degree_zero_element,
)

_GELFAND_CETLIN_NAMES = frozenset({
    "Frame",
    "GcValues",
    "critical_point",
    "gc_map",
    "quaternionic_frame",
    "random_frame",
})


def __getattr__(name):
    if name in _GELFAND_CETLIN_NAMES:
        from . import gelfand_cetlin

        return getattr(gelfand_cetlin, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
