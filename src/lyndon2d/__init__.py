"""Canonical naming of row-periodic matrices and its matching applications.

The package classifies matrices whose rows are all periodic by the
numerically smallest conjugate of their horizontal repetition, answers
horizontal suffix-prefix queries between classified matrices in constant
time, and performs multi-pattern 2D dictionary matching with arithmetic
verification.  The building blocks (row naming, the 2D Lyndon word
builder, candidate verification) stay importable from their own modules.
The reference algorithms the tests check against live in
:mod:`lyndon2d.reference`, which ``import lyndon2d`` does not load; only the
CLI in :mod:`lyndon2d.workbench` imports them.
"""

from .classify import (
    ClassifiedMatrix,
    MatrixClassKey,
    classify_matrix,
    conjugacy_shift,
    longest_suffix_prefix,
)
from .dictmatch import (
    DictionaryIndex,
    Occurrence,
    build_index,
    search_text,
)
from .errors import (
    CapExceeded,
    InvalidInput,
    InvalidQuery,
    LyndonError,
    NotLyndon,
    NotPrimitive,
    NotSufficientlyPeriodic,
)
from .lw2d import OpCounter
from .strings1d import NameRegistry

__all__ = [
    "CapExceeded",
    "ClassifiedMatrix",
    "DictionaryIndex",
    "InvalidInput",
    "InvalidQuery",
    "LyndonError",
    "MatrixClassKey",
    "NameRegistry",
    "NotLyndon",
    "NotPrimitive",
    "NotSufficientlyPeriodic",
    "Occurrence",
    "OpCounter",
    "build_index",
    "classify_matrix",
    "conjugacy_shift",
    "longest_suffix_prefix",
    "search_text",
]
