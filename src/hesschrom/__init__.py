"""Exact chromatic and path quasisymmetric functions of natural unit
interval orders, Tymoczko Betti numbers of regular Hessenberg varieties,
and the dot-action character of the symmetric group, with brute-force
verifiers for the identities connecting them."""

from .base import (
    BoundExceededError,
    Composition,
    DegreeMismatchError,
    Partition,
    Permutation,
    Report,
    TPoly,
    compositions,
    is_palindromic,
    partitions,
    z_of,
)
from .betti import (
    BettiVector,
    Tableau,
    admissible_tableaux,
    betti_vector,
    betti_vector_bruteforce,
    cell_dimension,
    check_palindromic,
    unified_dimension,
)
from .character import (
    ClassFunction,
    c_coeffs,
    dot_character,
    e_positivity_report,
    fixed_space_dims,
    frobenius_image,
    irreducible_multiplicities,
    omega_x_of,
    schur_positivity_report,
    x_of,
)
from .chromatic import (
    chromatic_qsym,
    chromatic_qsym_bruteforce,
    stable_ordered_partitions,
)
from .hessenberg import (
    Digraph,
    Graph,
    HessenbergFunction,
    complement,
    digraph,
    enumerate_hessenberg,
    incomparability_graph,
    new_hessenberg,
    poset_relation,
    staircase,
    weight,
)
from .pathqsym import (
    InvalidCoverError,
    OrderedPathCover,
    c_via_path_covers,
    ordered_path_covers,
    path_qsym,
    path_qsym_bruteforce,
    sw_inversions_of_cover,
    sw_to_t_bijection,
    t_inversions_of_cover,
    verify_reciprocity,
)
from .qsym import (
    NotSymmetricError,
    QSymElement,
    SymElement,
    expand_in_basis,
    f_to_m,
    generator,
    is_symmetric,
    kostka,
    m_to_f,
    omega,
    quasi_shuffle,
    to_m_basis,
)
from .verify import verify_sw_betti

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
