"""Dense 0-1 matrices and ordered pattern containment.

A 0-1 matrix A contains a pattern M when there are strictly increasing row
indices i1 < ... < ip and column indices j1 < ... < jq (p, q the pattern
dimensions) such that A[ia, jb] = 1 wherever M[a, b] = 1.  Otherwise A
avoids M.  Row and column order is kept; extra ones in A are allowed.

Rows are packed into integer bitmasks (bit j of row_bits[i] is the cell in
row i, column j), so the inner candidate tests of the containment search are
single AND operations.  Everything in this API is 0-based; the text format
and the CLI are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


class DegeneratePatternError(ValueError):
    """A pattern violates a structural precondition (e.g. an all-zero column)."""


class SizeLimitError(ValueError):
    """An object built from the input would exceed a fixed module size limit."""


# A matrix built from integer arguments may have at most this many cells.
MATRIX_CELL_LIMIT = 1 << 24


def check_cells(rows: int, cols: int) -> None:
    """Refuse a rows x cols matrix larger than MATRIX_CELL_LIMIT, before it is built."""
    if rows * cols > MATRIX_CELL_LIMIT:
        raise SizeLimitError(f"a {rows} x {cols} matrix exceeds the {MATRIX_CELL_LIMIT}-cell limit")


def _transpose(masks, width: int) -> list[int]:
    """Bit i of out[j] is bit j of masks[i], for j < width: rows to columns
    and, with width = row count, columns back to rows.

    Up to 64 x 64 each set bit is moved on its own, on ints of a word or
    two.  Past that, moving a bit costs a word operation per 64 bits of row
    width and of row count, so a table with wide or many rows goes through
    one binary string per row and one per column instead: linear in its
    cells.
    """
    if len(masks) <= 64 and width <= 64:
        out = [0] * width
        bit = 1
        for bits in masks:
            while bits:
                low = bits & -bits
                out[low.bit_length() - 1] |= bit
                bits ^= low
            bit <<= 1
        return out
    if not masks or not width:
        return [0] * width
    # character k of a row's string is its bit width-1-k; the last row comes
    # first, so each column's string reads its bits from the top row down
    rows = [format(bits, f"0{width}b") for bits in reversed(masks)]
    return [int("".join(col), 2) for col in zip(*rows)][::-1]


def _trim_bits(mask: int, low: int, high: int) -> int:
    """mask without its `low` lowest and `high` highest set bits."""
    if mask.bit_count() <= low + high:
        return 0
    for _ in range(low):
        mask &= mask - 1
    for _ in range(high):
        mask ^= (1 << mask.bit_length()) >> 1
    return mask


@dataclass(frozen=True)
class Matrix01:
    """Immutable dense 0-1 matrix.

    Zero-dimension matrices (rows == 0 or cols == 0) are legal so that
    operations whose result has no columns can return an explicit empty
    matrix; patterns used for avoidance must be at least 1x1 (enforced by
    PatternSet).
    """

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("dimensions must be nonnegative")
        if len(self.row_bits) != self.rows:
            raise ValueError("row_bits length does not match rows")
        full = (1 << self.cols) - 1
        for bits in self.row_bits:
            if bits < 0 or bits & ~full:
                raise ValueError("row mask does not fit in cols bits")

    @classmethod
    def from_rows(cls, data) -> "Matrix01":
        """Build from an iterable of rows, each an iterable of 0/1 values."""
        grid = [[int(v) for v in row] for row in data]
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        for row in grid:
            if len(row) != cols:
                raise ValueError("ragged rows")
            if any(v not in (0, 1) for v in row):
                raise ValueError("entries must be 0 or 1")
        bits = tuple(sum(v << j for j, v in enumerate(row)) for row in grid)
        return cls(rows, cols, bits)

    @classmethod
    def from_ones(cls, rows: int, cols: int, ones) -> "Matrix01":
        """Build from (row, col) positions of the one-cells (0-based)."""
        masks = [0] * rows
        for i, j in ones:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"cell ({i},{j}) outside {rows}x{cols}")
            masks[i] |= 1 << j
        return cls(rows, cols, tuple(masks))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix01":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def filled(cls, rows: int, cols: int) -> "Matrix01":
        return cls(rows, cols, ((1 << cols) - 1,) * rows)

    def cell(self, i: int, j: int) -> int:
        return (self.row_bits[i] >> j) & 1

    @property
    def weight(self) -> int:
        return sum(b.bit_count() for b in self.row_bits)

    def ones(self):
        """Yield (row, col) of every one-cell in row-major order."""
        for i, bits in enumerate(self.row_bits):
            while bits:
                low = bits & -bits
                yield i, low.bit_length() - 1
                bits ^= low

    def columns(self) -> list[int]:
        """Per column, the bitmask over rows of its ones."""
        return _transpose(self.row_bits, self.cols)

    def to_text(self) -> str:
        if self.rows == 0 or self.cols == 0:
            raise ValueError("empty matrix has no text form")
        return "\n".join(format(bits, f"0{self.cols}b")[::-1] for bits in self.row_bits)

    def __str__(self):  # pragma: no cover - debugging aid
        return self.to_text() if self.rows and self.cols else f"<empty {self.rows}x{self.cols}>"


@dataclass(frozen=True)
class PatternSet:
    """Nonempty ordered collection of patterns avoided simultaneously."""

    patterns: tuple[Matrix01, ...]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("pattern set must be nonempty")
        for p in self.patterns:
            if p.rows < 1 or p.cols < 1:
                raise ValueError("patterns must have at least one row and column")

    @classmethod
    def of(cls, *patterns: Matrix01) -> "PatternSet":
        return cls(tuple(patterns))

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)


# ---------------------------------------------------------------------------
# containment core
#
# The search assigns host rows to pattern rows in increasing order.  Beside
# the row stack `assigned` sits a stack of column masks: the candidate host
# columns for pattern column b are the AND of the host rows placed on the
# pattern rows where b has a one.  Placing a row ANDs it into its own
# columns only, and a backtrack pops it.  After every placement a greedy
# left-to-right column check runs: the greedy strictly-increasing choice of
# lowest set bits is feasible iff some choice is (exchange argument).  Masks
# only shrink as rows get placed, so the partial check is a sound prune.
# Both stacks are plain lists, so pattern depth is bounded by memory, not by
# Python's recursion limit.  Both searches run this greedy match as an
# automaton instead of calling contains, ex_columns over row subsets and
# ex_weight over column subsets.
# ---------------------------------------------------------------------------


def contains(host: Matrix01, pattern: Matrix01) -> bool:
    """Ordered containment of pattern in host.

    An all-zero pattern that fits dimension-wise is vacuously contained.
    `assigned` and `masks` are the only stacks: a placed row is pushed with
    its column masks and the walk resumes at the next pattern row; when a
    row has no candidate left, the previous one is popped and the walk
    resumes after it.  A zero row sits on the first host row it can, since a
    later one only leaves less room, so it is popped with no retry.
    """
    hrows, hm, n = host.row_bits, host.rows, host.cols
    p = pattern.rows
    if p > hm or pattern.cols > n:
        return False
    masks = [[(1 << n) - 1] * pattern.cols]
    assigned: list[int] = []
    i = 0  # first host row still to try for pattern row len(assigned)
    while len(assigned) < p:
        a = len(assigned)
        bits = pattern.row_bits[a]
        weight = bits.bit_count()
        for i in range(i, hm - p + a + 1):
            row = hrows[i]
            if row.bit_count() < weight:
                continue
            placed = []
            cur = -1
            for b, mask in enumerate(masks[-1]):
                if bits >> b & 1:
                    mask &= row
                placed.append(mask)
                mask >>= cur + 1
                if not mask:
                    break
                cur += (mask & -mask).bit_length()
            else:  # every column still fits: go on to the next pattern row
                assigned.append(i)
                masks.append(placed)
                i += 1
                break
        else:  # no candidate left for pattern row a: backtrack
            while assigned and not pattern.row_bits[len(assigned) - 1]:
                masks.pop()
                assigned.pop()
            if not assigned:
                return False
            masks.pop()
            i = assigned.pop() + 1
    return True


def contains_oracle(host: Matrix01, pattern: Matrix01) -> bool:
    """Plain enumeration over all row-subset/column-subset pairs.

    No pruning or bit tricks; the independent reference for contains().
    """
    p, q = pattern.rows, pattern.cols
    if p > host.rows or q > host.cols:
        return False
    pattern_ones = list(pattern.ones())
    for rsel in combinations(range(host.rows), p):
        for csel in combinations(range(host.cols), q):
            if all(host.cell(rsel[a], csel[b]) for a, b in pattern_ones):
                return True
    return False


def avoids_all(host: Matrix01, patterns: PatternSet) -> bool:
    return not any(contains(host, p) for p in patterns)


def is_range_overlapping(pattern: Matrix01) -> bool:
    """Every pair of columns' top-to-bottom one segments meets a common row.

    Requires every column to contain a one; an all-zero column has no
    segment and raises DegeneratePatternError.
    """
    cols = pattern.columns()
    if not all(cols):
        bad = [j for j, bits in enumerate(cols) if not bits]
        raise DegeneratePatternError(f"all-zero column(s) {bad} have no row segment")
    # A column's segment runs from its lowest set bit to its highest.  Segments
    # that meet pairwise share a row (Helly, in one dimension), so the deepest
    # top may not lie below the highest bottom.
    top = max(((bits & -bits).bit_length() for bits in cols), default=0)
    return top <= min((bits.bit_length() for bits in cols), default=0)


def transpose(matrix: Matrix01) -> Matrix01:
    """Mirror over the main diagonal: row i of the result is column i."""
    return Matrix01(matrix.cols, matrix.rows, tuple(matrix.columns()))


def flip_h(matrix: Matrix01) -> Matrix01:
    """Mirror over a vertical line (reverse column order)."""
    return transpose(flip_v(transpose(matrix)))


def flip_v(matrix: Matrix01) -> Matrix01:
    """Mirror over a horizontal line (reverse row order)."""
    return Matrix01(matrix.rows, matrix.cols, tuple(reversed(matrix.row_bits)))


# ---------------------------------------------------------------------------
# text format: one line per row of characters '0'/'1'; a blank line separates
# matrices inside a pattern-set file.
# ---------------------------------------------------------------------------


def parse_matrix(text: str) -> Matrix01:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no matrix rows found")
    width = len(lines[0])
    for ln in lines:
        if len(ln) != width:
            raise ValueError("rows have unequal length")
        if set(ln) - {"0", "1"}:
            raise ValueError(f"invalid characters in row {ln!r}")
    return Matrix01(len(lines), width, tuple(int(ln[::-1], 2) for ln in lines))


def parse_pattern_set(text: str) -> PatternSet:
    blocks: list[list[str]] = [[]]
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            blocks[-1].append(line)
        elif blocks[-1]:
            blocks.append([])
    mats = [parse_matrix("\n".join(b)) for b in blocks if b]
    if not mats:
        raise ValueError("no matrices found")
    return PatternSet(tuple(mats))


def format_pattern_set(patterns: PatternSet) -> str:
    return "\n\n".join(m.to_text() for m in patterns)
