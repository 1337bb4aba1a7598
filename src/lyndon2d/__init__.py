"""Canonical naming of row-periodic matrices and its matching applications.

The package classifies matrices whose rows are all periodic by the
numerically smallest conjugate of their horizontal repetition, answers
horizontal suffix-prefix queries between classified matrices in constant
time, and performs multi-pattern 2D dictionary matching with arithmetic
verification.  The reference algorithms the tests check against live in
:mod:`lyndon2d.reference`, which this package does not import.
"""

from .classify import (
    ClassifiedMatrix,
    MatrixClassKey,
    classify_matrix,
    conjugacy_shift,
    longest_suffix_prefix,
    summarize_matrix,
)
from .dictmatch import (
    DictionaryIndex,
    Occurrence,
    build_index,
    search_text,
    verify_candidate,
)
from .errors import (
    CapExceeded,
    InvalidInput,
    InvalidQuery,
    LyndonError,
    NoInverse,
    NotLyndon,
    NotPrimitive,
    NotSufficientlyPeriodic,
)
from .lw2d import OpCounter, SummaryColumn, TwoDLWBuilder, alg2_2dlw
from .strings1d import (
    NameRegistry,
    compute_period,
    is_lyndon,
    is_primitive,
    least_rotation,
    summarize_row,
)

__all__ = [
    "CapExceeded",
    "ClassifiedMatrix",
    "DictionaryIndex",
    "InvalidInput",
    "InvalidQuery",
    "LyndonError",
    "MatrixClassKey",
    "NameRegistry",
    "NoInverse",
    "NotLyndon",
    "NotPrimitive",
    "NotSufficientlyPeriodic",
    "Occurrence",
    "OpCounter",
    "SummaryColumn",
    "TwoDLWBuilder",
    "alg2_2dlw",
    "build_index",
    "classify_matrix",
    "compute_period",
    "conjugacy_shift",
    "is_lyndon",
    "is_primitive",
    "least_rotation",
    "longest_suffix_prefix",
    "search_text",
    "summarize_matrix",
    "summarize_row",
    "verify_candidate",
]
