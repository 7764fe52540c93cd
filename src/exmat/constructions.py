"""Checkable constructions: cluster splitting, block witnesses and the
coloring induction that grows many-column avoiders of the all-ones r x 2
pattern.

Every function here builds plain data (a matrix, a column graph as
adjacency sets, a coloring as a list) whose promised properties are cheap
to re-verify with contains(); the test suite does so.  The induction yields
each rung as its (matrix, column graph, coloring), with the graph built
once per rung.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, islice
from math import comb

from .matrix import Matrix01, SizeLimitError, _trim_bits, check_cells, flip_h, transpose

# pigeonhole_witness refuses to build more rows or columns than this.
PIGEONHOLE_COLUMN_LIMIT = 1 << 16

# coloring_induction refuses a matrix with more columns than this, since
# every induction step builds the column graph over all pairs of columns;
# lower_bound_witness refuses more rows or C(m, r) columns before it builds
# its first rung, and more than this many induction steps.  At both limits
# it takes a few seconds.
INDUCTION_COLUMN_LIMIT = 1 << 10
INDUCTION_STEP_LIMIT = 16

# One rung of the coloring induction: its matrix, the column graph of that
# matrix as adjacency sets, and the graph's greedy coloring.
Rung = tuple[Matrix01, list[set[int]], list[int]]


def cluster_split(matrix: Matrix01, k: int) -> Matrix01:
    """Regroup each column's ones, top down, into size-k clusters.

    The at most k-1 leftover ones of a column are deleted.  The first
    cluster keeps its column; every later cluster becomes a fresh column
    inserted immediately to the right of its predecessor cluster's column
    (so a column's clusters stay adjacent, top cluster first).  Emptied
    columns vanish.  Every output column has exactly k ones; the output can
    have zero columns.
    """
    if k < 1:
        raise ValueError("cluster size must be positive")
    clusters = []
    for bits in matrix.columns():
        for _ in range(bits.bit_count() // k):
            rest = _trim_bits(bits, k, 0)
            clusters.append(bits ^ rest)
            bits = rest
    return transpose(Matrix01(len(clusters), matrix.rows, tuple(clusters)))


def construct_K_prime(m: int, k: int) -> Matrix01:
    """m x floor(m/k) matrix: column j holds ones in rows (j-1)k+1..jk,
    mirrored over a vertical line.

    Each row has at most one one and no 2x2 identity embeds, so the matrix
    avoids any pattern set whose members all contain the 2x2 identity or a
    row with two ones.
    """
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    check_cells(m, m // k)
    cols = tuple(((1 << k) - 1) << (j * k) for j in range(m // k))
    return flip_h(transpose(Matrix01(len(cols), m, cols)))


def pigeonhole_witness(m: int, k: int, c: int) -> Matrix01:
    """Every k-subset of m rows as a column support, c-1 adjacent copies each.

    Subsets appear in lexicographic order.  The result has (c-1)*C(m,k)
    columns and avoids the all-ones k x c pattern because no k rows carry
    ones in c common columns.
    """
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    if c < 2:
        raise ValueError("need c >= 2")
    # m is tested first, so C(m, k) is computed for small m only.
    if m > PIGEONHOLE_COLUMN_LIMIT or (width := (c - 1) * comb(m, k)) > PIGEONHOLE_COLUMN_LIMIT:
        raise SizeLimitError(f"m and (c-1)*C(m,k) must not exceed the limit {PIGEONHOLE_COLUMN_LIMIT}")
    check_cells(m, width)
    supports = [sum(1 << r for r in sel) for sel in combinations(range(m), k)]
    cols = tuple(bits for bits in supports for _ in range(c - 1))
    return transpose(Matrix01(len(cols), m, cols))


def build_column_graph(matrix: Matrix01, r: int) -> list[set[int]]:
    """Adjacency sets of the column graph: columns b and c are adjacent iff
    their supports share exactly r-1 rows.

    r-1 is the largest overlap two columns may have without the pair forming
    the all-ones r x 2 pattern; a larger overlap raises ValueError.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    supports = matrix.columns()
    adj = [set() for _ in supports]
    for b, c in combinations(range(matrix.cols), 2):
        shared = (supports[b] & supports[c]).bit_count()
        if shared >= r:
            raise ValueError("matrix already contains the all-ones r x 2 pattern")
        if shared == r - 1:
            adj[b].add(c)
            adj[c].add(b)
    return adj


def greedy_coloring(adj: list[set[int]]) -> list[int]:
    """Color vertices in index order with the smallest free color.

    Proper by construction and never uses more than max degree + 1 colors.
    """
    colors = []
    for v, neighbors in enumerate(adj):
        taken = {colors[u] for u in neighbors if u < v}
        color = 0
        while color in taken:
            color += 1
        colors.append(color)
    return colors


def coloring_induction(matrix: Matrix01, r: int) -> Iterator[Rung]:
    """Yield (matrix, adj, colors) for each rung of the coloring induction,
    starting with the given matrix; adj is its column graph and colors its
    greedy coloring.

    Each next rung adds one more one per column without creating the
    all-ones r x 2 pattern: it appends delta+1 fresh rows, delta the maximum
    degree of adj, and gives column b a one in appended row number
    color(b).  Same-colored columns are non-adjacent, so they shared at most
    r-2 old rows and the new shared row keeps every pair below r common
    rows.  The matrix needs the same number of ones in every column, and
    at most INDUCTION_COLUMN_LIMIT columns.
    """
    if matrix.cols > INDUCTION_COLUMN_LIMIT:
        raise SizeLimitError(f"{matrix.cols} columns exceed the induction limit {INDUCTION_COLUMN_LIMIT}")
    if len({bits.bit_count() for bits in matrix.columns()}) > 1:
        raise ValueError("induction-step input needs a uniform number of ones per column")
    while True:
        adj = build_column_graph(matrix, r)
        colors = greedy_coloring(adj)
        yield matrix, adj, colors
        added = max(map(len, adj), default=0) + 1
        rows = list(matrix.row_bits) + [0] * added
        for b, color in enumerate(colors):
            rows[matrix.rows + color] |= 1 << b
        matrix = Matrix01(matrix.rows + added, matrix.cols, tuple(rows))


def lower_bound_witness(m: int, r: int, k: int) -> list[Rung]:
    """The rungs of the coloring induction from all C(m, r) distinct r-subset
    columns (k = r) up to k ones per column, as coloring_induction yields them.

    The last rung's matrix avoids the all-ones r x 2 pattern with C(m, r)
    columns, a lower bound for the column extremal function.
    """
    if not k >= r >= 2:
        raise ValueError("need k >= r >= 2")
    # m is tested first, so C(m, r) is computed for small m only; for r < m
    # that refuses nothing more, as then C(m, r) >= m.
    if m > INDUCTION_COLUMN_LIMIT or comb(m, r) > INDUCTION_COLUMN_LIMIT:
        raise SizeLimitError(f"m and C(m,r) must not exceed the limit {INDUCTION_COLUMN_LIMIT}")
    if k - r > INDUCTION_STEP_LIMIT:
        raise SizeLimitError(f"k-r induction steps exceed the limit {INDUCTION_STEP_LIMIT}")
    if m < r:
        raise ValueError("need m >= r")
    return list(islice(coloring_induction(pigeonhole_witness(m, r, 2), r), k - r + 1))


def degree_growth_bound(before: Matrix01, delta: int, next_delta: int, r: int) -> bool:
    """Measured degree growth across one step, from the column graph degree
    delta of the matrix before it to next_delta, against the counting bound.

    A fresh neighbor of column b shares r-2 old rows with b (plus the new
    color row), and distinct fresh neighbors through the same r-2 rows are
    same-colored, hence row-disjoint elsewhere, so at most
    (rows - k) / (k - r + 2) of them exist per choice of the r-2 rows,
    with k the ones-per-column count before the step.
    """
    k = before.weight // before.cols
    choices = comb(k, r - 2)
    return (next_delta - delta) * (k - r + 2) <= choices * (before.rows - k)
