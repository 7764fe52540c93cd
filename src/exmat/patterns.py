"""Named patterns and parametric pattern families.

pattern_L(i) returns three fixed small patterns (family labels L1, L2, L3,
matching the CLI's `generate L` family).  pattern_P(r, c) is the all-ones
r x c block.  generate_T builds the two-parameter family whose members have
r+s+2 rows and r+2s+2 columns: a row of r ones on top of the middle block,
two (s+1) x (s+1) permutation blocks on the left and right, and an r x r
permutation block in the bottom middle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, permutations

from .matrix import Matrix01, PatternSet, SizeLimitError, check_cells

# generate_T refuses families with more members than this.
T_FAMILY_LIMIT = 10_000

_L_CELLS = {
    1: (3, 4, ((0, 1), (0, 2), (1, 0), (1, 3), (2, 1))),
    2: (3, 5, ((0, 1), (0, 2), (0, 3), (1, 0), (1, 4), (2, 2))),
    3: (4, 5, ((0, 1), (0, 2), (0, 3), (1, 0), (2, 4), (3, 2))),
}


def pattern_L(i: int) -> Matrix01:
    """The fixed pattern L1, L2 or L3 (CLI family `L`)."""
    if i not in _L_CELLS:
        raise ValueError(f"L index must be 1, 2 or 3, got {i}")
    rows, cols, ones = _L_CELLS[i]
    return Matrix01.from_ones(rows, cols, ones)


def pattern_P(r: int, c: int) -> Matrix01:
    """All-ones r x c block."""
    if r < 1 or c < 1:
        raise ValueError("P dimensions must be positive")
    check_cells(r, c)
    return Matrix01.filled(r, c)


@dataclass(frozen=True)
class TrsParams:
    """Parameters of the T family; members are (r+s+2) x (r+2s+2)."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValueError("r and s must be nonnegative")

    @property
    def member_rows(self) -> int:
        return self.r + self.s + 2

    @property
    def member_cols(self) -> int:
        return self.r + 2 * self.s + 2


@cache
def generate_T(params: TrsParams) -> PatternSet:
    """All members of the T family for the given (r, s), in a fixed order.

    Enumeration is lexicographic over the (left, middle, right) permutation
    triple, each permutation read as its row-wise column-index sequence, so
    output files and fixtures are reproducible.  For r = 0 the top row is
    entirely zero and there is no middle block; the family is emitted
    literally anyway (one member per left/right pair).

    Families are cached: the result is frozen, and a refused (r, s) raises,
    so only the finitely many families within the limit are kept.
    """
    r, s = params.r, params.s
    size = 1
    # ((s+1)!)^2 * r!, one factor at a time, so a huge r or s stops early
    for factor in chain(range(2, s + 2), range(2, s + 2), range(2, r + 1)):
        size *= factor
        if size > T_FAMILY_LIMIT:
            raise SizeLimitError(
                f"T({r},{s}) has ((s+1)!)^2*r! = over {T_FAMILY_LIMIT} members, "
                f"past the {T_FAMILY_LIMIT}-member limit"
            )
    rows, cols = params.member_rows, params.member_cols
    side = s + 1
    members = []
    for left in permutations(range(side)):
        for mid in permutations(range(r)):
            for right in permutations(range(side)):
                ones = [(0, side + t) for t in range(r)]
                ones += [(1 + i, left[i]) for i in range(side)]
                ones += [(1 + i, r + side + right[i]) for i in range(side)]
                ones += [(side + 1 + i, side + mid[i]) for i in range(r)]
                members.append(Matrix01.from_ones(rows, cols, ones))
    return PatternSet(tuple(members))
