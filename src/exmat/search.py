"""Exact weight and column extremal values by exhaustive search.

ex_weight(m, n, S) is the maximum number of ones in an m x n 0-1 matrix
avoiding every pattern in S; ex_columns(m, k, S) is the maximum number of
columns of an m-row matrix with at least k ones per column avoiding S.
Both are longest paths over automaton states, memoized on the state, and
test only the containment an extension can create: neither runs a
containment search once its boundary cases and seeds are settled.  Every
checked pattern is an automaton, built by _automaton, whose state records,
per subset of host lines, how many pattern lines the greedy match has
placed.  ex_columns appends a column of exactly k ones, the sorted tuple of
its rows, at a time: the automaton runs over row subsets.  ex_weight sets a
cell at a time in row-major order: the automaton runs over column subsets
and advances once per finished row, and a cell set to 1 is tested against
the zeros of its row.  When the query passes the size rule and its
transpose passes it with strictly fewer table bits, ex_weight walks the
transpose instead and transposes the witness back.  A candidate's cover
is one bitmask, tested by ANDs.
avoiders(m, n, S) runs ex_weight's row automaton a whole row at a time to
list every m x n avoider of at most 16 cells without a containment search.

Boundary semantics for ex_columns, one finiteness rule:
  * k > m: the value is 0 (no column can hold k ones).
  * some pattern has r <= k rows and c columns: finite.  Each column holds
    C(k, r) of the C(m, r) row r-subsets, and an r-subset in c columns
    holds an r x c all-ones block, so (c-1) * C(m, r) / C(k, r)
    = (c-1) * C(m, k) / C(m-r, k-r) caps the value.
  * otherwise, w the widest pattern's width, the value is unbounded iff,
    for some k-subset of rows, the m-row band host with ones exactly on
    those rows avoids every pattern at width w.  If none does, w columns
    whose supports share k rows contain a band host, so the cap of an
    r = k, c = w pattern holds.  _band_avoids decides it with ex_weight's
    walk, stopped once it holds k ones.
_column_cap takes the smallest of these caps.

Budgets are node counts, never wall time, so runs are reproducible.  A
budget-exhausted result carries exact=False and a witness-backed lower
bound; so does a walk stopped at MEMO_LIMIT memo entries, as neither
search opens a state past it.  Both searches run on one explicit-stack
driver, so their depth is limited by memory, not by Python's recursion
limit, and a node ends a walk by telling the driver that its value is
proven or that it stops as a cut.  A bounded column query with more than
COLUMN_CANDIDATE_LIMIT candidate columns is refused with SizeLimitError,
and so is any query whose table, times the masks as wide as it that the
search keeps (the larger of its candidates and its m rows, or its n
columns), passes MATRIX_CELL_LIMIT; _automaton applies that rule before it
builds anything, and ex_weight predicts it with _table_bits to choose its
orientation.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
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

# ex_columns refuses a bounded query with more than this many C(m, k)
# candidate columns before it lists them: a narrow table, such as a 1-row
# pattern's, would pass the table rule with the C(20, 10) candidates of
# m = 20, k = 10.  Below it no column cap builds a binomial past it.
COLUMN_CANDIDATE_LIMIT = 1 << 16

# Each search holds one memo entry per expanded state and stops as a cut after
# this many, whatever its budget: without it ex_columns on {101/110} at m = 7
# runs an 8 GiB host out of memory.  At the limit it peaks near 360 MiB.
MEMO_LIMIT = 1 << 21


def _depth_first(root, budget: int | None) -> tuple[int, bool]:
    """Walk a search tree depth first with an explicit stack.

    A node is a generator that yields its child nodes one at a time and is
    resumed once a child's subtree is done: an ex_columns node, or an
    ex_weight row start, stores its state's run after the last child.  In
    place of a child a node may yield True, its search's value is proven,
    or False, the walk stops as a cut; either ends the whole walk at once.
    The searches keep their results themselves.  A node is counted when it
    is entered; the walk stops as a cut without entering node budget+1.
    The root is entered like any child, from a one-item iterator.  Returns
    the node count and whether the value is proven: True when the tree was
    walked to the end or a node said so.
    """
    limit = math.inf if budget is None else budget
    stack = [iter((root,))]
    nodes = 0
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            continue
        if child.__class__ is bool:
            return nodes, child
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
    or before the search would open memo entry MEMO_LIMIT+1, which is still
    a valid lower bound.
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
    if k > n:
        return 0
    value = 1
    for j in range(min(k, n - k)):
        value = value * (n - j) // (j + 1)
        if value > cap:
            break
    return value


def ex_weight(m: int, n: int, patterns: PatternSet, budget: int | None = None) -> ExtremalResult:
    """Maximum weight of an m x n matrix avoiding every pattern.

    Transposing the host and the patterns keeps containment, so the query
    equals (n, m, S transposed).  Before any table is built the table bits
    of both orientations are counted the way _row_automaton counts them; if
    the query as given passes the size rule, and the transposed one has
    strictly fewer bits and passes too, the transposed query is walked and
    its witness transposed back.  Otherwise the query is walked as given,
    refusals included.  The rule admitted n masks as wide as the given
    table, so the at most n row states of a transposed walk, one per row of
    its n x m host, are each narrower than those.  nodes_explored and the
    walk order are those of the walked orientation.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    check_cells(m, n)
    fitting = [p for p in dict.fromkeys(patterns) if p.rows <= m and p.cols <= n]
    _, given = _table_bits(n, [(p.cols, _height(p)) for p in fitting])
    # a transposed pattern's levels are p's columns up to its last nonzero one
    _, flipped = _table_bits(
        m, [(p.rows, reduce(or_, p.row_bits, 0).bit_length()) for p in fitting]
    )
    if flipped < given and n * given <= MATRIX_CELL_LIMIT and m * flipped <= MATRIX_CELL_LIMIT:
        res = _weight_walk(n, m, [transpose(p) for p in fitting], budget)
        return replace(res, witness=transpose(res.witness))
    return _weight_walk(m, n, patterns, budget)


def _weight_walk(m: int, n: int, patterns, budget: int | None, goal=math.inf) -> ExtremalResult:
    """ex_weight(m, n, patterns, budget) walked in the orientation given.

    Containment is the automaton over the host columns: its levels are
    pattern rows and its subsets are column subsets.  The greedy match is
    exact, so the rows below depend only on the state at the start of their
    row: a row start walks its rows a cell at a time, 1 before 0, each cell
    a node, and stores its heaviest run.  A row dies once it completes a
    pattern or cannot beat its row start's best so far: every run is exact.
    The automaton, with its rule for a completed pattern, is
    _row_automaton's.  Every later cell of the current row is still 0, so
    setting (r, c) completes a pattern iff a subset at its last level lacks
    none of its row's columns among the row's zeros and the columns after c.

    The walk stops as a cut when it would open row start MEMO_LIMIT+1,
    when it would enter node budget+1, or once its best avoider, a seed
    included, holds goal ones (the band test needs only k ones, and k
    bounds nothing).  A cut
    returns the best finished avoider, the rows the walk stands on above
    zero rows, or a seed (the zero matrix, or an all-ones column or row),
    the heaviest.
    """
    block, state, lacks, last, lower = _row_automaton(m, n, patterns)
    # run[r][st] = (weight, row, state after it) of the heaviest rows r..m-1
    # after state st; past the last row, r = m, there are none.
    # best = (weight, rows, st) ends likewise; path: the rows above.
    run: list[dict[int, tuple]] = [{} for _ in range(m + 1)]
    path: list[int] = []
    best = (0, [], None)
    for seed in (Matrix01(m, n, (1,) * m), Matrix01(m, n, ((1 << n) - 1,) + (0,) * (m - 1))):
        if seed.weight > best[0] and avoids_all(seed, patterns):
            best = (seed.weight, [*seed.row_bits], None)
    beyond = list(accumulate(lacks[:0:-1], or_, initial=0))[::-1]
    states = 0

    def start(r: int, st: int, above: int):
        nonlocal states
        states += 1
        if states > MEMO_LIMIT or best[0] >= goal:
            yield False
        here, room = (0, 0, None), (m - 1 - r) * n

        def cell(c: int, w: int, zeros: int, bits: int):
            nonlocal best, here
            if w + (n - c) + room <= here[0]:
                return
            if c < n:
                if not st & last[r] & ~(zeros | beyond[c]):
                    yield cell(c + 1, w + 1, zeros, bits | 1 << c)
                yield cell(c + 1, w, zeros | lacks[c], bits)
                return
            hit = st & ~zeros & lower
            nxt = st ^ hit | hit << block
            if r + 1 < m and nxt not in run[r + 1]:
                path.append(bits)
                yield start(r + 1, nxt, above + w)
                path.pop()
            total = w + run[r + 1].get(nxt, (0,))[0]
            if total > here[0]:
                here = (total, bits, nxt)
                if above + total > best[0]:
                    best = (above + total, [*path, bits], nxt)
                    if best[0] >= goal:
                        yield False

        yield cell(0, 0, 0, 0)
        run[r][st] = here

    nodes, exact = _depth_first(start(0, state, 0), budget)
    above = sum(map(int.bit_count, path))
    weight, rows, st = best if above <= best[0] else (above, path, None)
    while step := run[len(rows)].get(st):
        _, bits, st = step
        rows.append(bits)
    run.clear()  # start's closure holds run in a cycle with start itself
    witness = Matrix01(m, n, (*rows, *[0] * (m - len(rows))))
    return ExtremalResult(weight, witness, nodes, exact)


def _row_automaton(m: int, n: int, patterns) -> tuple[int, int, list[int], list[int], int]:
    """(block, state, lacks, last, lower) of the automaton that ex_weight and
    avoiders run over the rows of an m x n host.

    Its levels are the rows of each pattern that fits, down to its last
    nonzero row (_height), and its subsets are column subsets (see
    _automaton): lacks[c] marks the bits whose subset needs column c for its
    level, and zeros(row) below is the OR of lacks[c] over the row's zero
    columns.  A pattern's z trailing zero rows get no level, as a zero host
    row is never tested; its last level counts in last[r] only if r + z < m,
    so last holds one mask per distinct z and the rows share them.  Row r
    completes a pattern iff st & last[r] & ~zeros(row) is nonzero; otherwise
    it moves hit = st & ~zeros(row) & lower up one block, to
    st ^ hit | hit << block.  A last level met only in the last z rows has no
    room left for the zero rows, so `lower` keeps it in place instead of
    moving it into the next pattern's blocks.  An all-zero pattern that fits
    is refused with ValueError, as no host avoids it.
    """
    checked, tails = [], []
    for p in dict.fromkeys(patterns):
        if p.rows <= m and p.cols <= n:
            height = _height(p)
            if not height:
                raise ValueError(
                    "an all-zero pattern fits inside every host; no avoiding matrix exists"
                )
            checked.append(Matrix01(height, p.cols, p.row_bits[:height]))
            tails.append(p.rows - height)
    block, state, ends, lacks = _automaton(n, checked, n, f"m={m}, n={n}: {n} columns")
    # bottom-up, the patterns with z trailing zero rows join at row m-1-z
    joins: dict[int, int] = {}
    for e, z in zip(ends, tails):
        joins[z] = joins.get(z, 0) | e
    last, mask = [], 0
    for z in range(m):
        if z in joins:
            mask |= joins[z]
        last.append(mask)
    return block, state, lacks, last[::-1], ~sum(ends)


def _height(p: Matrix01) -> int:
    """The rows of p down to its last nonzero one: its row automaton levels."""
    return next((a + 1 for a in range(p.rows - 1, -1, -1) if p.row_bits[a]), 0)


def _table_bits(lines: int, shapes) -> tuple[int, int]:
    """(block, bits) of the table _automaton builds over `lines` host lines
    for patterns of these (width, levels): block is the largest C(lines,
    width), from _binomial_past, and bits = block x the levels."""
    block = max((_binomial_past(lines, cols, MATRIX_CELL_LIMIT) for cols, _ in shapes), default=0)
    return block, block * sum(levels for _, levels in shapes)


def avoiders(m: int, n: int, patterns: PatternSet) -> Iterator[tuple[int, ...]]:
    """A generator of the row tuple of every m x n matrix avoiding every
    pattern, in lexicographic order of the tuples.

    It walks the rows top-down over ex_weight's row automaton, so no
    containment search runs: every prefix of rows that completes no pattern
    is extended by each of the 2^n rows, and a row is refused when
    st & last[r] & ~zeros(row) is nonzero.  All but the last row are
    expanded here; the last is yielded lazily.  Like ex_weight_oracle it
    enforces m*n <= 16 with SizeLimitError, and an all-zero pattern that fits
    raises ValueError.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    if m * n > ORACLE_CELL_LIMIT:
        raise SizeLimitError(f"{m}x{n} exceeds the {ORACLE_CELL_LIMIT}-cell oracle limit")
    block, state, lacks, last, lower = _row_automaton(m, n, patterns)
    # zeros[z] ORs lacks[c] over the columns c in z, one column at a time
    zeros = [0] * (1 << n)
    for z in range(1, 1 << n):
        zeros[z] = zeros[z & z - 1] | lacks[(z & -z).bit_length() - 1]
    full = (1 << n) - 1
    covers = [~zeros[full ^ row] for row in range(1 << n)]
    prefixes = [((), state)]
    for r in range(m - 1):
        prefixes = [
            (rows + (row,), st ^ hit | hit << block)
            for rows, st in prefixes
            for row, cover in enumerate(covers)
            if not st & last[r] & cover
            for hit in (st & cover & lower,)
        ]
    return (
        rows + (row,)
        for rows, st in prefixes
        for row, cover in enumerate(covers)
        if not st & last[m - 1] & cover
    )


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


def _column_cap(m: int, k: int, pats, count: int) -> int | None:
    """The smallest cap of the module docstring on the columns of an
    avoider, or None when the value is unbounded; count is C(m, k) from
    _binomial_past.  A cap of 0 needs no candidate; any other is refused
    with SizeLimitError past COLUMN_CANDIDATE_LIMIT candidates."""
    if not count:  # k > m: no column holds k ones
        return 0
    bounds = [(p.rows, p.cols) for p in pats if p.rows <= k]
    if not bounds:
        if _band_avoids(m, k, pats):
            return None
        bounds = [(k, max(p.cols for p in pats))]
    if any(c == 1 for _, c in bounds):
        return 0
    if count > COLUMN_CANDIDATE_LIMIT:
        raise SizeLimitError(
            f"m={m}, k={k} needs more candidate columns than the limit {COLUMN_CANDIDATE_LIMIT}"
        )
    return min((c - 1) * count // comb(m - r, k - r) for r, c in bounds)


def _band_avoids(m: int, k: int, pats) -> bool:
    """Whether some band host avoids the patterns: ones on a k-subset of
    the m rows, zeros elsewhere, as wide as the widest pattern.

    Its columns are all alike, so a pattern embeds in it iff the pattern's
    row word does, the one-column pattern with a one on each of its nonzero
    rows.  Deleting ones keeps an avoider, so some band avoids iff a column
    avoiding the words holds k ones.  An embedding uses at most h rows of a
    run of equal host rows, h the tallest pattern's height, so a zero run of
    h or more rows may be cut or grown to any length of h or more; past
    k + (k+1)*h rows one of the k+1 zero runs is that long, so that many
    rows decide it.  The walk stops as a cut once it holds k ones; one cut
    at MEMO_LIMIT short of them is refused.  It calls _weight_walk, which
    alone takes that goal, so it checks the m'-row host's cells itself.
    """
    words = [Matrix01(p.rows, 1, tuple(int(bits > 0) for bits in p.row_bits)) for p in pats]
    if any(w.rows <= m and not w.weight for w in words):
        return False  # every band holds it, and _row_automaton refuses it
    rows = min(m, k + (k + 1) * max(w.rows for w in words))
    check_cells(rows, 1)
    res = _weight_walk(rows, 1, words, MEMO_LIMIT, goal=k)
    if not res.exact and res.value < k:
        raise SizeLimitError(
            f"m={m}, k={k}: the band test stopped at the memo limit {MEMO_LIMIT} short of {k} ones"
        )
    return res.value >= k


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
    block, bits = _table_bits(lines, [(p.cols, p.rows) for p in patterns])
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
    holds = [int.from_bytes(grid[r * stride:(r + 1) * stride], "little") for r in range(lines)]
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
    are done.  No avoider has more than _column_cap's `top` columns, and
    the walk ends, proven, once a path and its run have that many.  Each
    node holds one memo entry, so the walk stops as a cut after the smaller
    of budget and MEMO_LIMIT nodes, with the longer of the best finished
    path and the path it stands on.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be at least 1")
    pats = tuple(patterns)
    count = _binomial_past(m, k, COLUMN_CANDIDATE_LIMIT)
    top = _column_cap(m, k, pats, count)
    if top is None:
        return ExtremalResult(UNBOUNDED, None, 0, True)
    if top == 0:
        return ExtremalResult(0, Matrix01.zeros(m, 0), 0, True)

    # A pattern taller than the host never embeds, so it is not checked; one
    # always fits: the bound came from a pattern with at most k <= m rows or
    # from the m-row band hosts, which each hold a pattern.  Transposed,
    # a pattern's columns are the automaton's levels.  The search keeps a
    # table-wide mask per candidate and per row; only k = m has fewer
    # candidates than rows.
    checked = [transpose(p) for p in dict.fromkeys(pats) if p.rows <= m]
    masks = f"{count} candidate columns" if k < m else f"{m} row masks"
    block, state, ends, holds = _automaton(m, checked, max(count, m), f"m={m}, k={k}: {masks}")
    candidates = list(combinations(range(m), k))

    last = sum(ends)
    table = list(zip(candidates, _cover_masks(holds, candidates)))

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
            size = run[nxt][0] + 1
            if size > here[0]:
                here = (size, sel, nxt)
                if len(path) + size > best[0]:
                    best = (len(path) + size, (*path, sel), nxt)
                    if best[0] == top:
                        yield True
        run[st] = here

    limit = MEMO_LIMIT if budget is None else min(budget, MEMO_LIMIT)
    nodes, exact = _depth_first(node(state), limit)
    size, columns, st = best if len(path) <= best[0] else (len(path), path, None)
    columns = list(columns)
    while (step := run.get(st)) and step[0]:
        _, sel, st = step
        columns.append(sel)
    witness = Matrix01.from_ones(m, size, [(r, j) for j, sel in enumerate(columns) for r in sel])
    run.clear()  # node's closure holds run in a cycle with node itself
    return ExtremalResult(size, witness, nodes, exact)
