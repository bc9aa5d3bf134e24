"""Exact rack and quandle cohomology with cup products.

The package computes rack/quandle homology and cohomology of finite racks
over Z, Q, and prime fields, realizes the associated differential graded
bialgebra as an executable rewriting engine, and computes the cup product
together with its commutativity homotopy on cochains and on cohomology.
"""

__version__ = "0.1.0"

from .racks import (
    Rack,
    XSet,
    builtin,
    conjugation_rack,
    cyclic_rack,
    dihedral_rack,
    orbits,
    trivial_rack,
    validate_rack,
    validate_xset,
    xset_self,
    xset_singleton,
)
from .rings import GF, QQ, ZZ, ring_by_name
from .words import BElement, TensorElement, WordAlgebra
from .complexes import (
    Cochain,
    TupleBasis,
    basis_cochain,
    boundary_matrix,
    cochain_differential_matrix,
    project_to_chain,
    tuple_basis,
)
from .linalg import (
    ChainComplex,
    HomologyGroup,
    SparseMat,
    kernel_basis,
    rank,
    smith_normal_form,
    solve,
)
from .cup import (
    CupContext,
    RingStructure,
    cup,
    cup_via_coproduct,
    homotopy_cochain,
    is_coboundary,
    ring_structure,
)

__all__ = [
    "Rack",
    "XSet",
    "builtin",
    "conjugation_rack",
    "cyclic_rack",
    "dihedral_rack",
    "orbits",
    "trivial_rack",
    "validate_rack",
    "validate_xset",
    "xset_self",
    "xset_singleton",
    "GF",
    "QQ",
    "ZZ",
    "ring_by_name",
    "BElement",
    "TensorElement",
    "WordAlgebra",
    "Cochain",
    "TupleBasis",
    "basis_cochain",
    "boundary_matrix",
    "cochain_differential_matrix",
    "project_to_chain",
    "tuple_basis",
    "ChainComplex",
    "HomologyGroup",
    "SparseMat",
    "kernel_basis",
    "rank",
    "smith_normal_form",
    "solve",
    "CupContext",
    "RingStructure",
    "cup",
    "cup_via_coproduct",
    "homotopy_cochain",
    "is_coboundary",
    "ring_structure",
    "__version__",
]
