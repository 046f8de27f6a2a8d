"""The public API of ``hesschrom``, one name per public function, class
and error.  The package ``__init__`` loads this module on the first
access to any of these names and copies them into its own namespace."""

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
    betti_vectors,
    cell_dimension,
    check_palindromic,
    reading_inversions,
    t_inversions,
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
from .pathcovers import (
    OrderedPathCover,
    c_via_path_covers,
    ordered_path_covers,
    path_qsym_bruteforce,
    verify_reciprocity,
)
from .pathqsym import path_qsym
from .qsym import (
    NotSymmetricError,
    QSymElement,
    f_to_m,
    is_symmetric,
    m_to_f,
    omega,
    quasi_shuffle,
    to_m_basis,
)
from .sym import expand_in_basis, generator, kostka, kostka_bruteforce
from .verify import (
    InvalidCoverError,
    sw_inversions_of_cover,
    sw_to_t_bijection,
    t_inversions_of_cover,
    verify_sw_betti,
)

# only the names imported above: "from .x import" binds no module here
__all__ = [name for name in dir() if not name.startswith("_")]
