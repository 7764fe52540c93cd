"""Checkable constructions: cluster splitting, block witnesses and the
coloring induction that grows many-column avoiders of the all-ones r x 2
pattern.

Every function here builds an explicit matrix (or graph) whose promised
properties are cheap to re-verify with contains(); the test suite does so.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .matrix import Matrix01, SizeLimitError, _trim_bits, check_cells, flip_h, transpose
from .search import ExtremalResult

# pigeonhole_witness refuses to build more columns than this.
PIGEONHOLE_COLUMN_LIMIT = 1 << 16

# lower_bound_witness refuses more rows or C(m, r) columns than this, since
# every induction step builds the column graph over all pairs of columns,
# and more than this many induction steps.  At both limits it takes a few
# seconds.
INDUCTION_COLUMN_LIMIT = 1 << 10
INDUCTION_STEP_LIMIT = 16


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
    # C(m, k) >= m for k < m: a huge m is refused without computing C(m, k).
    width = (c - 1) * (m if k < m and m > PIGEONHOLE_COLUMN_LIMIT else comb(m, k))
    if width > PIGEONHOLE_COLUMN_LIMIT:
        raise SizeLimitError(f"(c-1)*C(m,k) columns exceed the limit {PIGEONHOLE_COLUMN_LIMIT}")
    check_cells(m, width)
    supports = [sum(1 << r for r in sel) for sel in combinations(range(m), k)]
    cols = tuple(bits for bits in supports for _ in range(c - 1))
    return transpose(Matrix01(len(cols), m, cols))


@dataclass(frozen=True)
class ColumnGraph:
    """Graph on the columns of a matrix; edges join columns whose supports
    share exactly r-1 rows."""

    n: int
    edges: frozenset[tuple[int, int]]

    @property
    def max_degree(self) -> int:
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return max(deg, default=0)

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def build_column_graph(matrix: Matrix01, r: int) -> ColumnGraph:
    """Edge between columns b < c iff their supports share exactly r-1 rows.

    r-1 is the largest overlap two columns may have without the pair forming
    the all-ones r x 2 pattern.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    supports = matrix.columns()
    edges = set()
    for b, c in combinations(range(matrix.cols), 2):
        if (supports[b] & supports[c]).bit_count() == r - 1:
            edges.add((b, c))
    return ColumnGraph(matrix.cols, frozenset(edges))


def greedy_coloring(graph: ColumnGraph) -> list[int]:
    """Color vertices in index order with the smallest free color.

    Proper by construction and never uses more than max_degree + 1 colors.
    """
    adj = graph.adjacency()
    colors = [-1] * graph.n
    for v in range(graph.n):
        taken = {colors[u] for u in adj[v] if colors[u] >= 0}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return colors


@dataclass(frozen=True)
class InductionState:
    """One rung of the coloring induction.

    matrix has exactly k ones in every column and avoids the all-ones r x 2
    pattern; delta is the maximum degree of its column graph.
    """

    matrix: Matrix01
    k: int
    row_count: int
    delta: int


def _avoids_all_ones_r2(matrix: Matrix01, r: int) -> bool:
    # The all-ones r x 2 pattern embeds iff two columns share >= r rows.
    supports = matrix.columns()
    return all(
        (a & b).bit_count() < r for a, b in combinations(supports, 2)
    )


def coloring_induction_step(state: InductionState, r: int) -> InductionState:
    """Add one more one per column without creating the all-ones r x 2 pattern.

    Greedy-colors the column graph with at most delta+1 colors, appends
    delta+1 fresh rows, and gives column b a one in appended row number
    color(b).  Same-colored columns are non-adjacent, so they shared at most
    r-2 old rows and the new shared row keeps every pair below r common
    rows.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    mat = state.matrix
    if mat.rows != state.row_count:
        raise ValueError("state row_count does not match its matrix")
    if any(bits.bit_count() != state.k for bits in mat.columns()):
        raise ValueError("every column must have exactly k ones")
    if not _avoids_all_ones_r2(mat, r):
        raise ValueError("matrix already contains the all-ones r x 2 pattern")
    graph = build_column_graph(mat, r)
    if graph.max_degree != state.delta:
        raise ValueError("state delta does not match its matrix")
    colors = greedy_coloring(graph)
    added = state.delta + 1
    new_rows = list(mat.row_bits) + [0] * added
    for b, color in enumerate(colors):
        new_rows[state.row_count + color] |= 1 << b
    new_mat = Matrix01(state.row_count + added, mat.cols, tuple(new_rows))
    new_delta = build_column_graph(new_mat, r).max_degree
    return InductionState(new_mat, state.k + 1, new_mat.rows, new_delta)


def induction_base(m: int, r: int) -> InductionState:
    """All C(m, r) distinct r-subset columns, each once: the k = r rung."""
    if r < 2:
        raise ValueError("need r >= 2")
    if m < r:
        raise ValueError("need m >= r")
    base = pigeonhole_witness(m, r, 2)
    delta = build_column_graph(base, r).max_degree
    return InductionState(base, r, m, delta)


def lower_bound_witness(m: int, r: int, k: int) -> ExtremalResult:
    """Witness with C(m, r) columns and k ones per column avoiding the
    all-ones r x 2 pattern, grown by k - r coloring induction steps.

    The value reported is the witness's column count, a lower bound for the
    column extremal function, so exact is False.
    """
    if not k >= r >= 2:
        raise ValueError("need k >= r >= 2")
    # m is tested first, so C(m, r) is computed for small m only; for r < m
    # that refuses nothing more, as then C(m, r) >= m.
    if m > INDUCTION_COLUMN_LIMIT or comb(m, r) > INDUCTION_COLUMN_LIMIT:
        raise SizeLimitError(f"m and C(m,r) must not exceed the limit {INDUCTION_COLUMN_LIMIT}")
    if k - r > INDUCTION_STEP_LIMIT:
        raise SizeLimitError(f"k-r induction steps exceed the limit {INDUCTION_STEP_LIMIT}")
    state = induction_base(m, r)
    for _ in range(k - r):
        state = coloring_induction_step(state, r)
    return ExtremalResult(state.matrix.cols, state.matrix, 0, False)


def degree_growth_bound(before: InductionState, after: InductionState, r: int) -> bool:
    """Measured degree growth across one step against the counting bound.

    A fresh neighbor of column b shares r-2 old rows with b (plus the new
    color row), and distinct fresh neighbors through the same r-2 rows are
    same-colored, hence row-disjoint elsewhere, so at most
    (rows - k) / (k - r + 2) of them exist per choice of the r-2 rows,
    with k the ones-per-column count before the step.
    """
    k = before.k
    choices = comb(k, r - 2)
    gap = after.delta - before.delta
    return gap * (k - r + 2) <= choices * (before.row_count - k)
