"""Exact weight and column extremal values by exhaustive search.

ex_weight(m, n, S) is the maximum number of ones in an m x n 0-1 matrix
avoiding every pattern in S; ex_columns(m, k, S) is the maximum number of
columns of an m-row matrix with at least k ones per column avoiding S.
ex_weight is branch and bound; ex_columns is a longest path over automaton
states, memoized on the state.  Both test only the containment an extension
can create, and neither runs a containment search once its boundary cases
and seeds are settled.  Every checked pattern is an automaton, built by
_automaton, whose state records, per subset of host lines, how many pattern
lines the greedy match has placed.  ex_columns appends a column of exactly k ones, the
sorted tuple of its rows, at a time: the automaton runs over row subsets.
ex_weight sets a cell at a time in row-major order: the automaton runs over
column subsets and advances once per finished row, and a cell set to 1 is
tested against the zeros of its row.  What a candidate covers is one
bitmask per query, so testing it takes a few ANDs.

Boundary semantics for ex_columns, one finiteness rule:
  * k > m: the value is 0 (no column can hold k ones).
  * some pattern has at most k rows in total: finite, and capped by
    (cols-1) * C(m, rows) via pigeonhole on column supports.
  * otherwise, w the widest pattern's width, the value is unbounded iff,
    for some k-subset of rows, the m-row band host with ones exactly on
    those rows avoids every pattern at width w.  If none does, w columns
    whose supports share k rows contain a band host, so (w-1) * C(m, k)
    caps the value.  _band_hosts says which hosts decide it.

Budgets are node counts, never wall time, so runs are reproducible.  A
budget-exhausted result carries exact=False and a witness-backed lower
bound; so does an ex_columns walk stopped at COLUMN_MEMO_LIMIT.  Both
searches run on one explicit-stack driver, so their depth is limited by
memory, not by Python's recursion limit.  A column query whose
C(m, k) candidates and C(m, cert_rows) support slots number more than
COLUMN_CANDIDATE_LIMIT is refused with SizeLimitError, and so is any query
whose table, times the masks as wide as it that the search keeps (the
larger of its candidates and its m rows, or its n columns), passes
MATRIX_CELL_LIMIT; _automaton applies that rule before it builds anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations
from math import comb
from operator import or_

from .matrix import (
    MATRIX_CELL_LIMIT,
    Matrix01,
    PatternSet,
    SizeLimitError,
    avoids_all,
    check_cells,
    contains_oracle,
    transpose,
)

UNBOUNDED = math.inf

ORACLE_CELL_LIMIT = 16

# ex_columns refuses queries whose C(m, k) candidate columns plus
# C(m, cert_rows) support slots exceed this count, before it lists them: a
# narrow table, such as a 1-row certificate's, would pass the table rule
# with the C(20, 10) candidates of m = 20, k = 10.  The slots bound the
# certificate's row subsets when k = m leaves a single candidate.
COLUMN_CANDIDATE_LIMIT = 1 << 16

# ex_columns holds one memo entry per expanded state and stops as a cut
# after this many, whatever its budget: without it {101/110} at m = 7 runs
# an 8 GiB host out of memory.  At the limit it peaks near 360 MiB.
COLUMN_MEMO_LIMIT = 1 << 21


def _depth_first(root, budget: int | None) -> tuple[int, bool]:
    """Walk a search tree depth first with an explicit stack.

    A node is a generator that yields its child nodes one at a time and is
    resumed once a child's subtree is done: an ex_weight node sets its cell
    and undoes it after the last child, an ex_columns node stores its
    state's run after the last one.  The searches keep their results
    themselves.  A node is counted when it is entered; the walk stops
    without entering node budget+1.  The root is entered like any child,
    from a one-item iterator.  Returns the node
    count and whether the tree was walked to the end.
    """
    limit = math.inf if budget is None else budget
    stack = [iter((root,))]
    nodes = 0
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > limit:
            return nodes, False
        stack.append(child)
    return nodes, True


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of an extremal computation.

    value is an integer, or UNBOUNDED (math.inf).  exact=True means proven
    optimum; exact=False means best witness found within the node budget,
    or for ex_columns within COLUMN_MEMO_LIMIT nodes, which is still a
    valid lower bound.
    """

    value: int | float
    witness: Matrix01 | None
    nodes_explored: int
    exact: bool

    @property
    def unbounded(self) -> bool:
        return self.value == UNBOUNDED


def _binomial_past(n: int, k: int, cap: int) -> int:
    """C(n, k), or some number above cap when C(n, k) is: the product stops
    once a C(n, j) on the way passes cap, so no huge binomial is built."""
    value = 1
    for j in range(min(k, n - k)):
        value = value * (n - j) // (j + 1)
        if value > cap:
            break
    return value


def ex_weight(m: int, n: int, patterns: PatternSet, budget: int | None = None) -> ExtremalResult:
    """Maximum weight of an m x n matrix avoiding every pattern.

    Cells are decided in row-major order, trying 1 before 0; a branch dies
    as soon as its partial matrix contains a pattern or cannot beat the
    incumbent.  The incumbent starts from the zero matrix, or the better of
    a single all-ones column and a single all-ones row that avoids, so any
    result, exact or budget-cut, is at least that seed's weight.

    Containment is the automaton over the host columns: its levels are
    pattern rows and its subsets are column subsets.  states[r] is the
    automaton after rows 0..r-1.  A pattern's z trailing zero rows get no
    level, since a zero host row is never tested; its last nonzero row
    counts in last[r] only while r + z <= m-1.  Every later cell of the
    current row is still 0, so setting (r, c) completes a pattern iff a
    subset at its last level lacks none of its row's columns among the
    row's zeros and the columns after c.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    check_cells(m, n)
    if not avoids_all(Matrix01.zeros(m, n), patterns):
        raise ValueError(
            "an all-zero pattern fits inside every host; no avoiding matrix exists"
        )
    # Every pattern that fits is nonzero here, so its nonzero rows are kept.
    checked, tails = [], []
    for p in dict.fromkeys(patterns):
        if p.rows <= m and p.cols <= n:
            height = max(a for a, bits in enumerate(p.row_bits) if bits) + 1
            checked.append(Matrix01(height, p.cols, p.row_bits[:height]))
            tails.append(p.rows - height)
    block, state, ends, lacks = _automaton(n, checked, n, f"m={m}, n={n}: {n} columns")
    best_m, best_w = Matrix01.zeros(m, n), 0
    single_col = Matrix01(m, n, (1,) * m)
    single_row = Matrix01(m, n, ((1 << n) - 1,) + (0,) * (m - 1))
    for seed in (single_col, single_row):
        if seed.weight > best_w and avoids_all(seed, patterns):
            best_m, best_w = seed, seed.weight

    beyond = list(accumulate(lacks[:0:-1], or_, initial=0))[::-1]
    last = [sum(e for e, z in zip(ends, tails) if r + z < m) for r in range(m)]
    # A last level is met only in the last z rows, with no room left for the
    # zero rows; such a match stays put instead of moving into the next
    # pattern's blocks.
    lower = ~sum(ends)
    states = [state] * m

    rows = [0] * m
    total = m * n

    def node(t: int, w: int, zeros: int):
        nonlocal best_m, best_w
        if w + (total - t) <= best_w:
            return
        if t == total:
            best_w = w
            best_m = Matrix01(m, n, tuple(rows))
            return
        r, c = divmod(t, n)
        if not c and r:
            st = states[r - 1]
            hit = st & ~zeros & lower
            states[r] = st ^ hit | hit << block
            zeros = 0
        rows[r] |= 1 << c
        if not states[r] & last[r] & ~(zeros | beyond[c]):
            yield node(t + 1, w + 1, zeros)
        rows[r] ^= 1 << c
        yield node(t + 1, w, zeros | lacks[c])

    nodes, exact = _depth_first(node(0, 0, 0), budget)
    return ExtremalResult(best_w, best_m, nodes, exact)


def ex_weight_oracle(m: int, n: int, patterns: PatternSet) -> ExtremalResult:
    """Exhaustive enumeration of all 2^(m*n) matrices; always exact.

    Enforces m*n <= 16.  Avoidance is tested with contains_oracle so the
    whole route is independent of the pruned search and of contains().
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    if m * n > ORACLE_CELL_LIMIT:
        raise SizeLimitError(f"{m}x{n} exceeds the {ORACLE_CELL_LIMIT}-cell oracle limit")
    pats = tuple(patterns)
    col_mask = (1 << n) - 1
    best_w = -1
    best = None
    for mask in range(1 << (m * n)):
        if mask.bit_count() <= best_w:
            continue
        host = Matrix01(m, n, tuple((mask >> (r * n)) & col_mask for r in range(m)))
        if any(contains_oracle(host, p) for p in pats):
            continue
        best_w = host.weight
        best = host
    if best is None:
        raise ValueError(
            "an all-zero pattern fits inside every host; no avoiding matrix exists"
        )
    return ExtremalResult(best_w, best, 1 << (m * n), True)


def _column_bound(m: int, k: int, pats) -> tuple[int, int] | None:
    """(cert_rows, cap) bounding the column search, or None when the value
    is unbounded.  A chosen column fills one slot per cert_rows-subset of
    its rows, and all of them fill at most cap slots.  The bound is the
    smallest pigeonhole cap, the first on ties, or failing one the band
    hosts' (k, (w-1)*C(m, k)); the module docstring derives both.

    ex_columns refuses a certificate whose C(m, rows) passes its candidate
    limit, so C(m, rows) stops once past (w-1) times it, w the widest
    certificate: such a cap exceeds every cap within the limit, so the same
    certificate is chosen, or one that is refused.
    """
    certs = [p for p in pats if p.rows <= k]
    if certs:
        past = (max(p.cols for p in certs) - 1) * COLUMN_CANDIDATE_LIMIT
        caps = [(p.rows, (p.cols - 1) * _binomial_past(m, p.rows, past)) for p in certs]
        return min(caps, key=lambda bound: bound[1])
    if any(avoids_all(host, pats) for host in _band_hosts(m, k, pats)):
        return None
    return k, (max(p.cols for p in pats) - 1) * _binomial_past(m, k, COLUMN_CANDIDATE_LIMIT)


def _band_hosts(m: int, k: int, pats):
    """The hosts whose avoidance decides that (m, k, pats) is unbounded.

    For a k-subset K of rows, the band host has ones exactly on the rows in
    K and is as wide as the widest pattern.  Its columns are all alike, so
    if it avoids the patterns it does so at any width.  If none avoids
    them, a support of k or more rows appears fewer times than that width,
    so the value is finite.  An embedding uses at most `depth` rows of a run
    of equal host rows, so a run may be cut to `depth` rows.  When the m-k
    zero rows cannot all sit in the k+1 gaps around the ones with fewer
    than `depth` in each, every band host holds, as a sub-host, a split
    one: ones on its top a and bottom k-a rows.  Those k+1 then decide.
    Otherwise every band is tested while there are at most
    COLUMN_CANDIDATE_LIMIT of them, else only the top and bottom ones; an
    untested band may still avoid, so once both of those have been yielded
    the query is refused with SizeLimitError.
    """
    depth, width = max(p.rows for p in pats), max(p.cols for p in pats)
    ones = (1 << width) - 1
    gap = (0,) * min(m - k, depth)

    def split(a):
        rows = (ones,) * min(a, depth) + gap + (ones,) * min(k - a, depth)
        return Matrix01(len(rows), width, rows)

    if m - k > (k + 1) * (depth - 1):
        yield from map(split, range(k + 1))
    elif _binomial_past(m, k, COLUMN_CANDIDATE_LIMIT) <= COLUMN_CANDIDATE_LIMIT:
        for band in combinations(range(m), k):
            rows = [0] * m
            for r in band:
                rows[r] = ones
            yield Matrix01(m, width, tuple(rows))
    else:
        yield split(k)
        yield split(0)
        raise SizeLimitError(
            f"m={m}, k={k}: the top and bottom band hosts hold a pattern, and the "
            f"other bands number more than the limit {COLUMN_CANDIDATE_LIMIT}"
        )


def _cover_masks(holds, candidates) -> list[int]:
    """Per candidate, the bits whose subset needs no line the candidate
    lacks: the complement of the OR of holds[r] over those lines r."""
    return [~reduce(or_, (h for r, h in enumerate(holds) if r not in sel), 0) for sel in candidates]


def _automaton(lines: int, patterns, masks: int, query: str) -> tuple[int, int, list[int], list[int]]:
    """(block, state, ends, holds) of the append-a-line automaton of the
    patterns over `lines` host lines.

    A pattern's rows are its levels, run over the subsets of host lines as
    large as its width.  Level j owns `block` bits of `state`, the first
    C(lines, cols) for the subsets on which the greedy match (exact, by the
    exchange argument of contains) has placed j levels.  ends[p] marks
    pattern p's last block and holds[r] the bits whose subset needs host
    line r for its level.  A new host line lacking none of the lines a set
    bit needs completes a pattern if the bit is in an end block, and
    otherwise moves it up one block.

    The caller keeps `masks` masks as wide as the table, so masks x table
    bits past MATRIX_CELL_LIMIT is refused with SizeLimitError, `query`
    naming the masks, before any table or binomial past the limit is built;
    a block past MATRIX_CELL_LIMIT // lines is reported as that bound.
    """
    block = max((_binomial_past(lines, p.cols, MATRIX_CELL_LIMIT) for p in patterns), default=0)
    bits = block * sum(p.rows for p in patterns)
    if masks * bits > MATRIX_CELL_LIMIT:
        cap = MATRIX_CELL_LIMIT // lines
        raise SizeLimitError(
            f"{query} x {bits if block <= cap else f'over {cap}'} "
            f"table bits exceed the {MATRIX_CELL_LIMIT}-cell limit"
        )
    # `stride` bytes per host line; a subset comes as its lines' offsets.
    stride = (bits + 7) // 8
    grid = bytearray(lines * stride)
    state, ends, base = 0, [], 0
    for p in patterns:
        text = [format(row, f"0{p.cols}b")[::-1] for row in p.row_bits]
        levels = [[a for a, one in enumerate(row) if one == "1"] for row in text]
        for i, offsets in enumerate(combinations(range(0, lines * stride, stride), p.cols)):
            for j, level in enumerate(levels):
                at = base + j * block + i
                byte, bit = at >> 3, 1 << (at & 7)
                for a in level:
                    grid[offsets[a] + byte] |= bit
        every = (1 << comb(lines, p.cols)) - 1
        state |= every << base
        base += p.rows * block
        ends.append(every << base - block)
    if not stride:
        return block, state, ends, [0] * lines
    holds = [int.from_bytes(grid[r:r + stride], "little") for r in range(0, len(grid), stride)]
    return block, state, ends, holds


def ex_columns(m: int, k: int, patterns: PatternSet, budget: int | None = None) -> ExtremalResult:
    """Maximum number of columns of an m-row matrix with >= k ones each
    avoiding the patterns.

    A column is the sorted tuple of its rows.  Turning ones into zeros
    never creates a containment, so every avoider trims to one with exactly
    k ones per column and the same number of columns; only the k-subsets of
    rows are candidates.  Every allowed candidate moves an automaton bit up
    a level (one that moved none could repeat forever, which the finiteness
    rule excludes), so the states form a DAG and the value is its longest
    path from the start state.  A node is a state: it walks the candidates
    in lexicographic order and stores its longest run in the memo once all
    are done.  Each column fills the C(k, cert_rows) support slots of
    _column_bound among its rows, so no avoider has more than
    cap // C(k, cert_rows) columns, and the walk stops once a path and its
    run have that many.  Each node holds one memo entry, so the walk stops
    as a cut after the smaller of budget and COLUMN_MEMO_LIMIT nodes, with
    the longer of the best finished path and the path it stands on.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be at least 1")
    pats = tuple(patterns)
    if k > m:
        return ExtremalResult(0, Matrix01.zeros(m, 0), 0, True)
    bound = _column_bound(m, k, pats)
    if bound is None:
        return ExtremalResult(UNBOUNDED, None, 0, True)
    cert_rows, cap = bound
    if cap == 0:
        return ExtremalResult(0, Matrix01.zeros(m, 0), 0, True)

    count = _binomial_past(m, k, COLUMN_CANDIDATE_LIMIT)
    if count + _binomial_past(m, cert_rows, COLUMN_CANDIDATE_LIMIT) > COLUMN_CANDIDATE_LIMIT:
        raise SizeLimitError(
            f"m={m}, k={k} needs more candidate columns and support slots "
            f"than the limit {COLUMN_CANDIDATE_LIMIT}"
        )
    # A pattern taller than the host never embeds, so it is not checked; one
    # always fits: the bound came from a pattern with at most k <= m rows or
    # from band hosts of at most m rows that each hold a pattern.  Transposed,
    # a pattern's columns are the automaton's levels.  The search keeps a
    # table-wide mask per candidate and per row; only k = m has fewer
    # candidates than rows.
    checked = [transpose(p) for p in dict.fromkeys(pats) if p.rows <= m]
    masks = f"{count} candidate columns" if k < m else f"{m} row masks"
    block, state, ends, holds = _automaton(m, checked, max(count, m), f"m={m}, k={k}: {masks}")
    candidates = list(combinations(range(m), k))

    last = sum(ends)
    table = list(zip(candidates, _cover_masks(holds, candidates)))
    top = cap // comb(k, cert_rows)

    # run[st] = (length, first column, state after it) of the longest run
    # that can follow state st; path holds the columns from the start to the
    # node being walked, and best = (length, columns, st) the longest
    # avoider a finished run has given: those columns, then run from st.
    run: dict[int, tuple] = {}
    path: list[tuple[int, ...]] = []
    best = (0, (), state)

    def node(st: int):
        nonlocal best
        here = (0, None, None)
        for sel, cov in table:
            hit = st & cov
            if hit & last:
                continue
            nxt = st ^ hit | hit << block
            if nxt not in run:
                path.append(sel)
                yield node(nxt)
                path.pop()
                if best[0] == top:
                    return
            size = run[nxt][0] + 1
            if size > here[0]:
                here = (size, sel, nxt)
                if len(path) + size > best[0]:
                    best = (len(path) + size, (*path, sel), nxt)
                    if best[0] == top:
                        return
        run[st] = here

    limit = COLUMN_MEMO_LIMIT if budget is None else min(budget, COLUMN_MEMO_LIMIT)
    nodes, exact = _depth_first(node(state), limit)
    size, columns, st = best if len(path) <= best[0] else (len(path), path, None)
    columns = list(columns)
    while (step := run.get(st)) and step[0]:
        _, sel, st = step
        columns.append(sel)
    witness = Matrix01.from_ones(m, size, [(r, j) for j, sel in enumerate(columns) for r in sel])
    return ExtremalResult(size, witness, nodes, exact)
