"""Exact enumeration of the supercharacter theories of a finite group.

The search works on a character table alone: build the degree-weighted
character rows, find the bad parts (parts whose row separates every
non-identity class), walk the partition tree of the non-trivial characters
skipping branches with a bad part or whose forced class side already has
too many parts, and for each surviving partition force the matching
class-side partition.  An unpruned baseline driver visits all
partitions instead, for cross-checking and benchmarks.
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
from .setparts import (
    alpha_decode,
    alpha_encode,
    bell_number,
    enumerate_partitions,
    er_codewords,
)
from .sigma import (
    BadPartSet,
    SigmaMatrix,
    alpha_ratio,
    find_bad_parts,
    indices_of,
    is_bad_part,
    mask_of,
    sigma_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BadPartSet",
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
    "alpha_decode",
    "alpha_encode",
    "alpha_ratio",
    "bell_number",
    "brute_force_supertheories",
    "count_supertheories",
    "create_kappa",
    "cyclic_table",
    "dihedral_table",
    "enumerate_partitions",
    "er_codewords",
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
    "sigma_matrix",
    "table_to_document",
    "theory_document",
    "validate_table",
    "verify_theory",
]
