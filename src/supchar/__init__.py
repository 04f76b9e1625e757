"""Exact enumeration of the supercharacter theories of a finite group.

The search works on a character table alone: build the degree-weighted
character rows, scan every candidate part once for the bad parts (parts
whose row separates every non-identity class) and the admissible parts
(parts whose row has few enough level sets for their size), walk the
partition tree of the non-trivial characters through admissible parts
only, keeping each part inside one block of the character partition dual
to the class side forced so far, and for each partition reached force the
matching class-side partition.
An unpruned baseline driver visits all partitions instead, for
cross-checking and benchmarks.
"""

from .chartab import (
    MAX_CLASSES,
    CharacterTable,
    SizeLimitError,
    TableFormatError,
    TableValidationError,
    cyclic_table,
    dihedral_table,
    frobenius_pq_table,
    load_table,
    load_table_file,
    save_table,
    table_to_document,
    validate_table,
)
from .engine import (
    SearchStats,
    TheorySet,
    brute_force_supertheories,
    count_supertheories,
    find_supertheories,
    result_document,
    theory_document,
)
from .exactnum import Cyclotomic, OrderMismatchError, Rational, root_of_unity
from .kappa import KappaFailure, SuperTheory, create_kappa, verify_theory
from .setparts import bell_number, enumerate_partitions, er_codewords, er_partitions, walk_pool
from .sigma import (
    SigmaMatrix,
    alpha_ratio,
    count_bad_parts,
    find_bad_parts,
    indices_of,
    is_bad_part,
    mask_of,
    scan_parts,
    sigma_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterTable",
    "Cyclotomic",
    "KappaFailure",
    "MAX_CLASSES",
    "OrderMismatchError",
    "Rational",
    "SearchStats",
    "SigmaMatrix",
    "SizeLimitError",
    "SuperTheory",
    "TableFormatError",
    "TableValidationError",
    "TheorySet",
    "alpha_ratio",
    "bell_number",
    "brute_force_supertheories",
    "count_bad_parts",
    "count_supertheories",
    "create_kappa",
    "cyclic_table",
    "dihedral_table",
    "enumerate_partitions",
    "er_codewords",
    "er_partitions",
    "find_bad_parts",
    "find_supertheories",
    "frobenius_pq_table",
    "indices_of",
    "is_bad_part",
    "load_table",
    "load_table_file",
    "mask_of",
    "result_document",
    "root_of_unity",
    "save_table",
    "scan_parts",
    "sigma_matrix",
    "table_to_document",
    "theory_document",
    "validate_table",
    "verify_theory",
    "walk_pool",
]
