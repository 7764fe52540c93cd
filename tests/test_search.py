import random
from itertools import combinations
from math import comb, inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exmat import (
    UNBOUNDED,
    Matrix01,
    PatternSet,
    SizeLimitError,
    avoiders,
    avoids_all,
    contains_oracle,
    ex_columns,
    ex_weight,
    ex_weight_oracle,
    flip_h,
    flip_v,
    is_range_overlapping,
    pattern_L,
    pattern_P,
    transpose,
)
import exmat.matrix as matrix_module
import exmat.search as search_module
import exmat.verify as verify_module
from exmat.patterns import generate_T

from conftest import small_patterns

DIAMOND = generate_T(1, 0).patterns[0]
P22 = PatternSet.of(pattern_P(2, 2))


def brute_ex_columns(m, k, patterns, max_cols):
    """Unpruned reference: every column sequence up to max_cols, with no
    bound pruning, avoidance by contains_oracle only.  Its columns
    are every row subset of size >= k, as the definition reads, so the
    differential tests also check that ex_columns may trim to exactly k.

    An embedding into a prefix followed by more columns splits at the
    prefix's last column, so two prefixes of one length whose rows T host
    the same leading columns of each pattern, for every row subset T, have
    the same avoiding extensions.  That profile is found with
    contains_oracle too, and each one is expanded once per length.
    """
    types = []
    for size in range(k, m + 1):
        for sel in combinations(range(m), size):
            types.append(sel)
    pieces = [
        (i, rsel, Matrix01(p.rows, j, tuple(bits & ((1 << j) - 1) for bits in p.row_bits)))
        for i, p in enumerate(patterns) if p.rows <= m
        for j in range(1, p.cols)
        for rsel in combinations(range(m), p.rows)
    ]
    longest = {}

    def as_matrix(cols):
        rows = [0] * m
        for j, sel in enumerate(cols):
            for r in sel:
                rows[r] |= 1 << j
        return Matrix01(m, len(cols), tuple(rows))

    def profile(host):
        return frozenset(
            (i, rsel, piece.cols) for i, rsel, piece in pieces
            if contains_oracle(Matrix01(len(rsel), host.cols, tuple(host.row_bits[r] for r in rsel)), piece)
        )

    def rec(cols):
        """Most columns an avoiding extension of cols can add."""
        most = 0
        if len(cols) == max_cols:
            return most
        for t in types:
            nxt = cols + [t]
            host = as_matrix(nxt)
            if not any(contains_oracle(host, p) for p in patterns):
                key = (profile(host), len(nxt))
                if key not in longest:
                    longest[key] = rec(nxt)
                most = max(most, 1 + longest[key])
        return most

    return rec([])


class TestExWeight:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_two_ones_in_a_row(self, n):
        res = ex_weight(n, n, PatternSet.of(pattern_P(1, 2)))
        assert res.exact and res.value == n

    def test_pattern_taller_than_host(self):
        res = ex_weight(2, 2, PatternSet.of(pattern_L(1)))
        assert res.value == 4 and res.witness == Matrix01.filled(2, 2)

    @pytest.mark.parametrize("pats", [P22, PatternSet.of(DIAMOND), PatternSet.of(pattern_P(1, 1))])
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 3), (3, 4)])
    def test_matches_oracle(self, pats, m, n):
        fast = ex_weight(m, n, pats)
        slow = ex_weight_oracle(m, n, pats)
        assert fast.exact
        assert fast.value == slow.value
        assert fast.witness.weight == fast.value
        assert avoids_all(fast.witness, pats)

    # OEIS A072567: the Zarankiewicz numbers z(n; 2), the most ones in an
    # n x n matrix that avoids the all-ones 2 x 2 block.
    @pytest.mark.parametrize("n,z", [(4, 9), (5, 12), (6, 16)])
    def test_zarankiewicz_numbers(self, n, z):
        res = ex_weight(n, n, P22)
        assert res.exact and res.value == z
        assert res.witness.weight == z and avoids_all(res.witness, P22)

    def test_full_matrix_when_pattern_does_not_fit(self):
        for n in (2, 3):
            res = ex_weight(n, n, PatternSet.of(pattern_P(n + 1, 1)))
            assert res.value == n * n

    def test_budget_exhaustion_keeps_seed_floor(self):
        res = ex_weight(5, 5, PatternSet.of(DIAMOND), budget=50)
        assert not res.exact
        assert res.value >= 5
        assert avoids_all(res.witness, PatternSet.of(DIAMOND))

    def test_oversized_automaton_is_refused(self):
        # 256 columns x 2 levels x C(256, 2) column pairs still fit; 257 do not
        assert ex_weight(256, 256, P22, budget=1).nodes_explored == 2
        with pytest.raises(SizeLimitError, match="257 columns x 65792 table bits"):
            ex_weight(257, 257, P22)
        # C(2^20, 2^19) is never computed in full
        wide = Matrix01(1, 1 << 19, ((1 << (1 << 19)) - 1,))
        with pytest.raises(SizeLimitError, match=f"over {(1 << 24) >> 20} table bits"):
            ex_weight(1, 1 << 20, PatternSet.of(wide))

    def test_all_zero_pattern_makes_query_infeasible(self):
        with pytest.raises(ValueError):
            ex_weight(2, 2, PatternSet.of(Matrix01.zeros(1, 1)))

    def test_weight_floor_for_two_one_patterns(self):
        for pat in (pattern_P(2, 1), pattern_P(1, 2), DIAMOND, pattern_L(1)):
            res = ex_weight(4, 4, PatternSet.of(pat), budget=20000)
            assert res.value >= 4

    @pytest.mark.parametrize(
        "pat,value", [(DIAMOND, 20), (pattern_L(1), 24), (generate_T(1, 1).patterns[0], 30)],
        ids=["diamond", "L1", "T11"],
    )
    def test_frontier_value(self, pat, value):
        # exact at 6 x 6, and equal to the query transposed about the
        # antidiagonal; about the main diagonal L1 walks 750,552 row starts
        for image in (lambda p: p, lambda p: flip_h(flip_v(transpose(p)))):
            res = ex_weight(6, 6, PatternSet.of(image(pat)))
            assert res.exact and res.value == res.witness.weight == value
            assert not contains_oracle(res.witness, image(pat))

    def test_memo_limit_counts_row_starts(self, monkeypatch):
        # the limit counts row starts, not cells: 5 x 5 P22 expands 1,663 of
        # them in 43,540 nodes, so one fewer is a cut, budget or not
        for limit, exact in ((1663, True), (1662, False), (20, False)):
            monkeypatch.setattr(search_module, "MEMO_LIMIT", limit)
            for budget in (None, 10**6):
                res = ex_weight(5, 5, P22, budget=budget)
                assert res.exact == exact and res.nodes_explored < 10**6
                assert res.witness.weight == res.value >= 5
                assert not contains_oracle(res.witness, pattern_P(2, 2))


class TestExWeightSymmetry:
    @settings(max_examples=60)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(small_patterns().filter(lambda p: p.weight), min_size=1, max_size=2),
    )
    def test_value_is_invariant_under_reflection_and_transposition(self, m, n, pats):
        def value(rows, cols, image):
            return ex_weight(rows, cols, PatternSet(tuple(map(image, pats)))).value

        base = value(m, n, lambda p: p)
        assert value(n, m, transpose) == base
        assert value(m, n, flip_h) == base
        assert value(m, n, flip_v) == base


@st.composite
def padded_patterns(draw):
    """A pattern with a one, with up to two zero rows inserted anywhere
    (leading, middle or trailing) and up to two zero columns."""
    core = draw(small_patterns().filter(lambda p: p.weight))
    rows, cols = list(core.row_bits), core.cols
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), 0)
    for _ in range(draw(st.integers(0, 2))):
        low = (1 << draw(st.integers(0, cols))) - 1
        rows = [bits & low | (bits & ~low) << 1 for bits in rows]
        cols += 1
    return Matrix01(len(rows), cols, tuple(rows))


class TestExWeightZeroLines:
    @settings(max_examples=150)
    @given(st.integers(1, 4), st.integers(1, 4), st.lists(padded_patterns(), min_size=1, max_size=2))
    @example(3, 4, [Matrix01.from_rows([[0, 0], [1, 1], [0, 0], [1, 0]]),
                    Matrix01.from_rows([[1, 0, 1], [0, 0, 0]])])
    @example(4, 4, [Matrix01.from_rows([[1, 0], [0, 0], [0, 1]]), Matrix01.from_rows([[0, 1, 1]])])
    def test_matches_oracle(self, m, n, pats):
        # zero rows and columns still order the rows and columns around them;
        # two patterns of different widths share padded level blocks
        pats = PatternSet(tuple(pats))
        res = ex_weight(m, n, pats)
        assert res.exact
        assert res.value == ex_weight_oracle(m, n, pats).value
        assert res.witness.weight == res.value and avoids_all(res.witness, pats)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (4, 3), (6, 6), (7, 2)])
    def test_closed_forms(self, m, n):
        # a one with a zero row below (above) it: only the last (first) row
        # may hold ones; a one with a zero column right (left) of it: only
        # the last (first) column may
        for rows, value in (([[1], [0]], n), ([[0], [1]], n), ([[1, 0]], m), ([[0, 1]], m)):
            res = ex_weight(m, n, PatternSet.of(Matrix01.from_rows(rows)))
            assert res.exact and res.value == value
            assert avoids_all(res.witness, PatternSet.of(Matrix01.from_rows(rows)))


class TestExWeightOracle:
    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            ex_weight_oracle(5, 4, P22)

    def test_one_cell_pattern(self):
        assert ex_weight_oracle(2, 3, PatternSet.of(pattern_P(1, 1))).value == 0

    def test_oversized_pattern_gives_full_weight(self):
        assert ex_weight_oracle(2, 2, PatternSet.of(pattern_P(3, 3))).value == 4


def oracle_avoiders(m, n, patterns):
    """The row tuples of every m x n host that contains_oracle finds free of
    every pattern, in mask order (row r is bits r*n .. r*n+n-1)."""
    width = (1 << n) - 1
    hosts = (
        tuple(mask >> r * n & width for r in range(m)) for mask in range(1 << m * n)
    )
    return [
        rows for rows in hosts
        if not any(contains_oracle(Matrix01(m, n, rows), p) for p in patterns)
    ]


class TestAvoiders:
    def test_matches_oracle_filtering_on_random_pattern_sets(self):
        # patterns with zero rows (trailing ones included), patterns larger
        # than the host and two-pattern sets, each on every host of at most
        # 12 cells
        rng = random.Random(29)
        fixed = [
            (2, 3, [Matrix01.from_rows([[1, 0], [0, 1], [0, 0]])]),
            (3, 3, [Matrix01.from_rows([[1, 1], [0, 0]])]),
            (3, 2, [Matrix01.from_rows([[1, 0, 1], [0, 1, 0]])]),
            (2, 2, [pattern_P(3, 3)]),
            (3, 4, [DIAMOND, Matrix01.from_rows([[1, 1, 1]])]),
        ]
        drawn = []
        for _ in range(60):
            m, n = rng.choice([(m, n) for m in range(1, 5) for n in range(1, 5) if m * n <= 12])
            pats = []
            for _ in range(rng.randint(1, 2)):
                rows, cols = rng.randint(1, 4), rng.randint(1, 3)
                bits = [rng.randrange(1 << cols) for _ in range(rows)]
                bits[rng.randrange(rows)] |= 1 << rng.randrange(cols)
                pats.append(Matrix01(rows, cols, tuple(bits)))
            drawn.append((m, n, pats))
        for m, n, pats in fixed + drawn:
            got = list(avoiders(m, n, PatternSet(tuple(pats))))
            assert got == sorted(got)
            assert sorted(got) == sorted(oracle_avoiders(m, n, pats))

    def test_diamond_counts(self):
        counts = [sum(1 for _ in avoiders(n, n, PatternSet.of(DIAMOND))) for n in (3, 4)]
        assert counts == [480, 38784] and sum(counts) == 39264

    def test_no_containment_search_runs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("avoiders ran a containment search")

        monkeypatch.setattr(matrix_module, "contains", refuse)
        assert sum(1 for _ in avoiders(3, 3, PatternSet.of(DIAMOND))) == 480

    def test_refuses_sizes_above_the_cell_limit(self):
        with pytest.raises(SizeLimitError, match="16-cell"):
            avoiders(4, 5, P22)
        with pytest.raises(SizeLimitError):
            avoiders(17, 1, P22)
        assert len(list(avoiders(1, 16, P22))) == 1 << 16

    def test_refuses_a_fitting_all_zero_pattern(self):
        with pytest.raises(ValueError, match="all-zero"):
            avoiders(2, 2, PatternSet.of(Matrix01.zeros(1, 2)))
        assert len(list(avoiders(2, 2, PatternSet.of(Matrix01.zeros(3, 1))))) == 16


class TestExColumns:
    def test_closed_form_instance(self):
        res = ex_columns(3, 2, P22)
        assert res.exact and res.value == 3
        assert res.witness.cols == 3
        assert avoids_all(res.witness, P22)

    def test_unbounded_below_one_rows(self):
        res = ex_columns(5, 1, P22)
        assert res.unbounded and res.witness is None and res.exact
        # answered without building a host of a trillion rows
        assert ex_columns(10**12, 1, P22).unbounded

    def test_zero_when_k_exceeds_rows(self):
        res = ex_columns(2, 3, P22)
        assert res.value == 0 and res.exact
        assert res.witness.cols == 0

    def test_unbounded_when_the_top_rows_avoid(self):
        # a one in the bottom row of three: the host whose top two rows are
        # ones leaves nothing for it, however many columns it has
        pat = Matrix01.from_ones(3, 1, [(2, 0)])
        assert not contains_oracle(Matrix01(3, 5, (0b11111, 0b11111, 0)), pat)
        res = ex_columns(3, 2, PatternSet.of(pat))
        assert res.unbounded and res.witness is None and res.exact

    def test_band_hosts_bound_the_value_when_none_avoids(self):
        # a one with a row below it, and a one with a row above it: one
        # all-ones row of three holds one of them wherever it lies, so no
        # band host avoids them and each row is in at most w-1 = 0 columns
        pats = PatternSet.of(Matrix01.from_rows([[1], [0]]), Matrix01.from_rows([[0], [1]]))
        res = ex_columns(3, 1, pats)
        assert res.exact and res.value == 0 and res.witness.cols == 0

    def test_band_between_tall_patterns_is_unbounded(self):
        # a one with 199 rows below it, and a one with 199 rows above it: the
        # top and the bottom band hosts of 363 rows hold them, but ones on
        # rows 170 and 180 avoid both, so the query is unbounded
        top = Matrix01(200, 1, (1,) + (0,) * 199)
        pats = PatternSet.of(top, flip_v(top))
        assert avoids_all(Matrix01.from_ones(363, 1, [(170, 0), (180, 0)]), pats)
        res = ex_columns(363, 2, pats)
        assert res.unbounded and res.witness is None and res.exact

    def test_band_test_cut_short_of_k_is_refused(self, monkeypatch):
        # the column walk of the band test sets no one in rows 0..163, where
        # a one has 199 rows below it; stopped there, it cannot say whether
        # two ones fit, so the query is refused, not bounded
        top = Matrix01(200, 1, (1,) + (0,) * 199)
        pats = PatternSet.of(top, flip_v(top))
        monkeypatch.setattr(search_module, "MEMO_LIMIT", 100)
        with pytest.raises(SizeLimitError, match="band"):
            ex_columns(363, 2, pats)

    def test_band_test_runs_within_the_memo_limit(self):
        # a one with 100 rows below it, and one with 100 rows above it: no
        # band host of 250 rows avoids them, and one walk over a 250-row
        # column decides it without testing the C(250, 2) hosts one by one
        top = Matrix01(101, 1, (1,) + (0,) * 100)
        res = ex_columns(250, 2, PatternSet.of(top, flip_v(top)), budget=10)
        assert res.exact and res.value == 0 and res.witness.cols == 0

    def test_unbounded_through_a_split_band(self):
        # a one in the middle row of three: the hosts of all-ones top rows
        # and of all-ones bottom rows both hold it, but ones on rows 0 and 3
        # leave it no row above and below, however many columns there are
        pat = Matrix01.from_ones(3, 1, [(1, 0)])
        assert contains_oracle(Matrix01(4, 5, (31, 31, 0, 0)), pat)
        assert contains_oracle(Matrix01(4, 5, (0, 0, 31, 31)), pat)
        assert not contains_oracle(Matrix01(4, 5, (31, 0, 0, 31)), pat)
        res = ex_columns(4, 2, PatternSet.of(pat))
        assert res.unbounded and res.witness is None and res.exact
        # a million rows: the band test's column is cut to 2 + 3*3 rows
        assert ex_columns(10**6, 2, PatternSet.of(pat)).unbounded

    def test_unbounded_decision_matches_brute_force(self):
        # with no pattern of at most k rows the value is unbounded, or at
        # most (w-1) columns per support of k or more rows, w the widest
        # pattern's width; so a search for one column more than that cap
        # decides it
        rng = random.Random(12)
        seen = {True: 0, False: 0}
        for _ in range(150):
            m = rng.randint(1, 4)
            k = rng.randint(max(1, m - 2), m)
            pats = []
            for _ in range(rng.randint(1, 4)):
                # k+1 rows, one of them zero, so that a k-row band can hold it
                rows, cols, gap = k + 1, rng.randint(1, 2), rng.randrange(k + 1)
                bits = tuple(0 if a == gap else rng.randrange(1, 1 << cols) for a in range(rows))
                pats.append(Matrix01(rows, cols, bits))
            pats = PatternSet(tuple(pats))
            cap = (max(p.cols for p in pats) - 1) * sum(comb(m, j) for j in range(k, m + 1))
            brute = brute_ex_columns(m, k, pats, cap + 1)
            res = ex_columns(m, k, pats)
            assert res.exact and res.unbounded == (brute > cap)
            if not res.unbounded:
                assert res.value == brute
            seen[brute > cap] += 1
        assert min(seen.values()) >= 10

    def test_unbounded_decision_matches_uncut_band_hosts(self):
        # the search walks one column over the patterns' row words, cut to
        # k + (k+1)*h rows, h the tallest pattern's height; here every
        # k-subset host of all m rows is tested as it is, m - k passing
        # (k+1)*(h-1) in some queries
        rng = random.Random(13)
        seen = {True: 0, False: 0}
        tall = 0
        for _ in range(400):
            m, k = rng.randint(1, 16), rng.randint(1, 3)
            if k > m:
                continue
            pats = []
            for _ in range(rng.randint(1, 3)):
                rows, cols = rng.randint(k + 1, k + 3), rng.randint(1, 2)
                bits = tuple(rng.randrange(1 << cols) if rng.random() < 0.6 else 0 for _ in range(rows))
                if any(bits):
                    pats.append(Matrix01(rows, cols, bits))
            if not pats:
                continue
            pats = PatternSet(tuple(pats))
            width = max(p.cols for p in pats)
            full = (1 << width) - 1
            unbounded = any(
                avoids_all(Matrix01(m, width, tuple(full if r in band else 0 for r in range(m))), pats)
                for band in combinations(range(m), k)
            )
            assert ex_columns(m, k, pats).unbounded == unbounded
            seen[unbounded] += 1
            tall += m - k > (k + 1) * (max(p.rows for p in pats) - 1)
        assert min(seen.values()) >= 10 and tall >= 10

    @pytest.mark.parametrize("m,k,c", [(3, 2, 2), (4, 2, 2), (4, 2, 3), (3, 3, 2)])
    def test_formula_grid(self, m, k, c):
        res = ex_columns(m, k, PatternSet.of(pattern_P(k, c)))
        assert res.exact and res.value == (c - 1) * comb(m, k)

    @pytest.mark.parametrize(
        "m,k,pats,max_cols",
        [
            (3, 2, P22, 4),
            (2, 2, P22, 2),
            (3, 3, PatternSet.of(DIAMOND), 3),
            # certificates of two heights, where the smallest cap need not
            # come from the smallest (c-1)*C(m, r); one column past the
            # value decides it, as deleting a column keeps an avoider
            (4, 2, PatternSet.of(pattern_P(1, 3), pattern_P(2, 2)), 5),
            (5, 3, PatternSet.of(pattern_P(1, 3), pattern_P(2, 2)), 3),
            (5, 2, PatternSet.of(pattern_P(1, 2), pattern_P(2, 2)), 3),
            (4, 3, PatternSet.of(pattern_P(1, 3), pattern_P(3, 2)), 3),
            (3, 2, PatternSet.of(pattern_P(1, 4), pattern_P(2, 3)), 5),
            (4, 3, PatternSet.of(pattern_P(2, 3), pattern_P(3, 2)), 5),
            (4, 3, PatternSet.of(pattern_P(1, 4), pattern_P(3, 3)), 5),
            (5, 4, PatternSet.of(pattern_P(1, 4), pattern_P(3, 2)), 2),
            (4, 2, PatternSet.of(Matrix01.from_rows([[1, 0, 1]]), pattern_P(2, 2)), 4),
        ],
    )
    def test_against_unpruned_reference(self, m, k, pats, max_cols):
        res = ex_columns(m, k, pats)
        ref = brute_ex_columns(m, k, pats, max_cols)
        assert res.value == ref

    def test_seeded_differential_against_unpruned_reference(self):
        # one or two random patterns up to 3x3, each with a one in every
        # column, at m <= 4 and every k with a finite value; max_cols is the
        # pigeonhole cap or, with no pattern of at most k rows, the band-host
        # cap (w-1)*C(m, k), either of which bounds the true value
        rng = random.Random(4)
        cases = 0
        for _ in range(40):
            pats = []
            for _ in range(rng.randint(1, 2)):
                rows, cols = rng.randint(1, 3), rng.randint(1, 3)
                while True:
                    bits = tuple(rng.randrange(1 << cols) for _ in range(rows))
                    pat = Matrix01(rows, cols, bits)
                    if all(pat.columns()):
                        break
                pats.append(pat)
            pats = PatternSet(tuple(pats))
            for m in range(1, 5):
                for k in range(1, m + 1):
                    res = ex_columns(m, k, pats)
                    if res.unbounded:
                        continue
                    caps = [(p.cols - 1) * comb(m, p.rows) for p in pats if p.rows <= k]
                    cap = min(caps, default=(max(p.cols for p in pats) - 1) * comb(m, k))
                    assert res.exact
                    assert res.value == brute_ex_columns(m, k, pats, cap)
                    assert res.witness.cols == res.value
                    assert all(bits.bit_count() >= k for bits in res.witness.columns())
                    assert avoids_all(res.witness, pats)
                    cases += 1
        assert cases >= 250

    def test_rows_and_k_must_be_positive(self):
        for m, k in ((0, 2), (3, 0), (-1, -1)):
            with pytest.raises(ValueError, match="at least 1"):
                ex_columns(m, k, P22)

    def test_value_is_invariant_under_reflection(self):
        # reversing the rows or the columns of every pattern and of the host
        # maps avoiders to avoiders, so ex_columns on S, flip_h(S) and
        # flip_v(S) agree, though the automaton states the walk meets differ
        rng = random.Random(27)
        for _ in range(80):
            pats = []
            for _ in range(rng.randint(1, 2)):
                rows, cols = rng.randint(1, 3), rng.randint(1, 3)
                bits = tuple(rng.randrange(1 << cols) for _ in range(rows))
                pats.append(Matrix01(rows, cols, bits) if any(bits) else pattern_P(rows, cols))
            m = rng.randint(1, 5)
            k = rng.randint(1, min(3, m))
            results = [
                ex_columns(m, k, PatternSet(tuple(map(flip, pats))))
                for flip in (lambda p: p, flip_h, flip_v)
            ]
            assert len({(res.value, res.exact) for res in results}) == 1, (pats, m, k)
        # the frontier query reflected top to bottom walks as many states
        res = ex_columns(6, 2, PatternSet(tuple(map(flip_v, B101_011))))
        assert (res.value, res.nodes_explored, res.exact) == (20, 5034, True)

    def test_budget_gives_lower_bound(self):
        res = ex_columns(6, 3, PatternSet.of(pattern_P(3, 3)), budget=10)
        assert not res.exact
        assert res.value <= 2 * comb(6, 3)
        assert avoids_all(res.witness, PatternSet.of(pattern_P(3, 3)))

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3])
    def test_wider_blocks_allow_more_columns(self, m, k):
        if k > m:
            return
        narrow = ex_columns(m, k, PatternSet.of(pattern_P(2, 2)))
        wide = ex_columns(m, k, PatternSet.of(pattern_P(2, 3)))
        assert wide.value >= narrow.value


    def test_oversized_candidate_list_is_refused(self):
        # C(400, 2) = 79,800 candidate columns, refused before any table
        with pytest.raises(SizeLimitError, match="needs more candidate columns than the limit"):
            ex_columns(400, 2, P22)

    def test_cap_past_the_limit_does_not_displace_a_smaller_one(self):
        # 19 candidates: P(6,4) caps at 3*19 // C(13,12) = 4 and P(9,2) at
        # 19 // C(10,9) = 1, though C(19,9) = 92,378 row subsets pass the
        # candidate limit; every cap is (c-1)*C(m,k) // C(m-r,k-r), so none
        # builds C(m, r)
        res = ex_columns(19, 18, PatternSet((pattern_P(9, 2), pattern_P(6, 4))))
        assert res.exact and res.value == 1

    def test_a_cap_past_the_limit_in_row_subsets_is_answered(self):
        # one candidate, and C(20,10) = 184,756 row 10-subsets: the cap is
        # 1 * C(20,20) // C(10,10) = 1, reached by the single column
        res = ex_columns(20, 20, PatternSet.of(pattern_P(10, 2)))
        assert (res.value, res.exact) == (1, True)
        assert res.witness.columns() == [(1 << 20) - 1]

    def test_forty_rows_reach_the_pigeonhole_cap(self):
        # one column per pair of rows: any two columns sharing two rows
        # hold P22, so C(40, 2) is the value
        res = ex_columns(40, 2, P22)
        assert res.exact and res.value == comb(40, 2) == res.witness.cols
        assert len(set(res.witness.columns())) == comb(40, 2)
        assert all(bits.bit_count() == 2 for bits in res.witness.columns())

    def test_witness_columns_hold_exactly_k_ones(self):
        # trimming ones never creates a containment, so the search offers
        # only columns of exactly k ones, budget-cut or not
        for m, k, pats, budget in [
            (4, 2, P22, None),
            (5, 3, PatternSet.of(pattern_P(3, 3)), None),
            (5, 2, B101_011, 300),
            (6, 1, PatternSet.of(pattern_P(1, 3)), None),
            (4, 4, PatternSet.of(pattern_P(4, 2)), None),
        ]:
            res = ex_columns(m, k, pats, budget=budget)
            assert res.value == res.witness.cols >= 1
            assert all(bits.bit_count() == k for bits in res.witness.columns())
            assert not any(contains_oracle(res.witness, p) for p in pats)

    @pytest.mark.parametrize("m,value,states", [(4, 9, 66), (5, 14, 498), (6, 20, 5034), (7, 27, 66162)])
    def test_frontier_value(self, m, value, states):
        # the longest path over the automaton states of {101/011}; each node
        # is one state.  The values fit C(m+1, 2) - 1, an observation only.
        res = ex_columns(m, 2, B101_011)
        assert (res.value, res.nodes_explored, res.exact) == (value, states, True)
        assert res.witness.cols == value == comb(m + 1, 2) - 1
        assert all(bits.bit_count() == 2 for bits in res.witness.columns())
        assert not any(contains_oracle(res.witness, p) for p in B101_011)

    def test_memo_limit_stops_the_walk_as_a_cut(self, monkeypatch):
        # each expanded state holds a memo entry, so the walk stops at the
        # limit whether there is no budget or a larger one
        monkeypatch.setattr(search_module, "MEMO_LIMIT", 50)
        for budget in (None, 10**6):
            res = ex_columns(6, 2, B101_011, budget=budget)
            assert not res.exact and res.nodes_explored <= 51
            assert res.value == res.witness.cols >= 1
            assert all(bits.bit_count() == 2 for bits in res.witness.columns())
            assert not any(contains_oracle(res.witness, p) for p in B101_011)

    def test_tall_pattern_table_is_refused(self):
        # 40 candidate columns, but the 20x2 block's table has 2 levels of
        # C(40, 20) row subsets each, refused by the table rule
        with pytest.raises(SizeLimitError, match="table bits"):
            ex_columns(40, 39, PatternSet.of(pattern_P(20, 2)))


B101_011 = PatternSet.of(Matrix01.from_rows([[1, 0, 1], [0, 1, 1]]))
C110_011 = Matrix01.from_rows([[1, 1, 0], [0, 1, 1]])
T10_01_10 = Matrix01.from_rows([[1, 0], [0, 1], [1, 0]])

# (value, nodes_explored, exact, witness text) recorded before the two
# searches moved onto the explicit-stack driver; a driver or pruning change
# must not move them silently.  The columns entries pin the certificate's
# pigeonhole bound and its automaton alone and beside checked patterns;
# their node counts and witnesses were recorded again when the candidates
# became the k-subsets of rows, and their node counts again when the search
# became a memoized longest path, with every exact value and exact witness
# kept.  The weight entries' node counts were recorded again when ex_weight
# became a memoized walk over row starts, every exact witness kept; the cut
# one node short of exact moved with them, and the 6 x 6 cut rose from 11.
PINNED = [
    ("weight", (4, 4, P22, {}), (9, 1867, True, "1110\n1001\n0101\n0011")),
    ("weight", (4, 4, PatternSet.of(DIAMOND), {}),
     (12, 399, True, "1111\n1111\n1001\n1001")),
    ("weight", (4, 4, PatternSet.of(DIAMOND), {"budget": 398}),
     (12, 399, False, "1111\n1111\n1001\n1001")),
    ("weight", (5, 5, PatternSet.of(DIAMOND), {"budget": 50}),
     (16, 51, False, "11111\n11111\n10001\n10001\n10001")),
    ("weight", (6, 6, P22, {"budget": 2000}),
     (15, 2001, False, "111110\n100001\n010001\n001001\n000101\n000011")),
    ("columns", (6, 2, P22, {}),
     (15, 16, True, "111110000000000\n100001111000000\n010001000111000\n"
      "001000100100110\n000100010010101\n000010001001011")),
    ("columns", (5, 2, B101_011, {"budget": 300}),
     (12, 301, False, "000000011111\n111010011000\n000011100100\n001101000010\n110100100001")),
    ("columns", (5, 3, PatternSet.of(pattern_P(3, 2)), {}),
     (10, 11, True, "1111110000\n1110001110\n1001101101\n0101011011\n0010110111")),
    # one node, cut before its first child: the path it stands on wins
    ("columns", (5, 2, B101_011, {"budget": 1}), (1, 2, False, "1\n1\n0\n0\n0")),
    # an all-ones certificate beside a pattern that is still checked
    ("columns", (5, 2, PatternSet(P22.patterns + B101_011.patterns), {}),
     (10, 3018, True, "1101001000\n0000001111\n0001110100\n0110100010\n1010010001")),
    # an all-ones block that is not the certificate (3 rows > k)
    ("columns", (5, 2, PatternSet.of(pattern_P(2, 2), pattern_P(3, 2)), {}),
     (10, 11, True, "1111000000\n1000111000\n0100100110\n0010010101\n0001001011")),
    # two equal all-ones blocks
    ("columns", (5, 2, PatternSet.of(pattern_P(2, 3), pattern_P(2, 3)), {}),
     (20, 21, True, "11111111000000000000\n11000000111111000000\n00110000110000111100\n"
      "00001100001100110011\n00000011000011001111")),
    # recorded before the slot cover table: a 3x3 certificate, so a row
    # subset's automaton level reaches its last block only on its second
    # covering column, alone and beside a pattern that is still checked
    ("columns", (5, 3, PatternSet.of(pattern_P(3, 3)), {}),
     (20, 21, True, "11111111111100000000\n11111100000011111100\n11000011110011110011\n"
      "00110011001111001111\n00001100111100111111")),
    # {101/011} reflected left to right, {101/110}: the same value from over
    # 20 times as many states as {101/011} itself at m = 5
    ("columns", (5, 2, PatternSet.of(flip_h(B101_011.patterns[0])), {}),
     (14, 10591, True, "11111000000000\n10001111100000\n01000100111100\n00100010010111\n"
      "00010001001011")),
    ("columns", (4, 2, PatternSet.of(pattern_P(2, 3), *B101_011), {}),
     (9, 1529, True, "000001111\n001111100\n111100010\n110010001")),
    # recorded before the column automaton: a checked 3-row pattern beside
    # a 2-row certificate, two checked patterns, and checked patterns of
    # two heights
    ("columns", (5, 2, PatternSet.of(pattern_P(2, 2), T10_01_10), {}),
     (7, 352, True, "1010101\n1100000\n0111000\n0001110\n0000011")),
    ("columns", (4, 2, PatternSet.of(*B101_011, C110_011), {}),
     (6, 157, True, "001111\n101100\n010010\n110001")),
    ("columns", (5, 2, PatternSet.of(*B101_011, C110_011), {}),
     (8, 2532, True, "00011111\n10011000\n01000100\n00100010\n11100001")),
    ("columns", (5, 2, PatternSet.of(pattern_P(2, 3), T10_01_10, *B101_011), {}),
     (11, 6661, True, "00000011111\n00110011000\n01111000100\n11001100010\n10000100001")),
    # a 1-row certificate at k = 2: each column holds C(2, 1) row 1-subsets
    ("columns", (4, 2, PatternSet.of(pattern_P(1, 5)), {}),
     (8, 9, True, "11110000\n11110000\n00001111\n00001111")),
    # certificates of two heights: the smallest cap is taken over all of
    # them, not from the one whose (c-1)*C(m, r) is smallest, so the walk
    # stops at the value (12 and 10 from 27,449 and 33,652 nodes under that
    # one's cap; the 8-row query was a cut at 20,001 nodes)
    ("columns", (6, 2, PatternSet.of(pattern_P(2, 2), pattern_P(1, 5)), {}),
     (12, 76, True, "111100000000\n100011100000\n010010011000\n001001000110\n"
      "000100010101\n000000101011")),
    ("columns", (6, 3, PatternSet.of(pattern_P(2, 3), pattern_P(3, 2)), {}),
     (10, 374, True, "1111100000\n1100011100\n1010010011\n0101001011\n0010101110\n"
      "0001110101")),
    ("columns", (8, 2, PatternSet.of(pattern_P(2, 2), pattern_P(1, 5)), {"budget": 20000}),
     (16, 2352, True, "1111000000000000\n1000111000000000\n0100100110000000\n"
      "0010010001100000\n0001001000011000\n0000000101000110\n0000000010010101\n"
      "0000000000101011")),
]


@pytest.mark.parametrize("kind,args,expected", PINNED)
def test_pinned_values_and_node_counts(kind, args, expected):
    a, b, pats, options = args
    search = ex_weight if kind == "weight" else ex_columns
    res = search(a, b, pats, **options)
    assert (res.value, res.nodes_explored, res.exact, res.witness.to_text()) == expected
    assert not any(contains_oracle(res.witness, p) for p in pats)
    if kind == "columns":
        assert all(bits.bit_count() == b for bits in res.witness.columns())


class TestPinnedCallCounts:
    def test_weight_runs_no_embedding_search_after_its_seeds(self, monkeypatch):
        # the canonical seeds are checked with contains; once the walk
        # starts, the row automaton decides every cell
        calls = []
        walking = []
        real_contains, real_walk = matrix_module.contains, search_module._depth_first

        def contains(*args):
            calls.append(bool(walking))
            return real_contains(*args)

        def walk(*args):
            walking.append(True)
            return real_walk(*args)

        monkeypatch.setattr(matrix_module, "contains", contains)
        monkeypatch.setattr(search_module, "_depth_first", walk)
        assert ex_weight(4, 4, PatternSet.of(DIAMOND)).nodes_explored == 399
        assert walking and calls and not any(calls)

    def test_block_certificate_runs_no_column_check(self, monkeypatch):
        # the automaton tests the all-ones certificate like every other
        # pattern, so no containment search runs at all, alone or beside a
        # checked pattern
        calls = []
        real = matrix_module.contains

        def contains(host, pattern):
            calls.append(pattern)
            return real(host, pattern)

        monkeypatch.setattr(matrix_module, "contains", contains)
        assert ex_columns(6, 2, P22).nodes_explored == 16
        assert ex_columns(5, 2, PatternSet(P22.patterns + B101_011.patterns)).nodes_explored == 3018
        assert calls == []


class TestInequalityReports:
    # ex(m, n, P) <= k * (ex_k(m, P) + n) for a range-overlapping P, with
    # both sides exact: ex_weight_oracle on the left, ex_columns on the right.

    def test_block_instance(self):
        assert ex_weight_oracle(3, 3, P22).value == 6
        assert ex_columns(3, 2, P22).value == 3
        assert 6 <= 2 * (3 + 3)

    def test_diamond_low_k_is_unbounded_rhs(self):
        assert ex_columns(3, 1, PatternSet.of(DIAMOND)).value == UNBOUNDED

    def test_rejects_non_range_overlapping(self, monkeypatch):
        # the claim checks the inequality's hypothesis: a pattern that fails
        # it is a failure even though every case holds
        monkeypatch.setattr(verify_module, "is_range_overlapping", lambda p: p != DIAMOND)
        [res] = verify_module.claim_weight_column_inequality()
        assert not res.passed
        assert res.observed == {"cases": 96, "failures": [("diamond", "not range-overlapping")]}

    def test_random_small_patterns_always_hold(self):
        rng = random.Random(11)
        checked = 0
        while checked < 12:
            m = Matrix01(
                2,
                2,
                tuple(rng.randrange(4) for _ in range(2)),
            )
            if any(not bits for bits in m.columns()):
                continue
            k = rng.randint(1, 3)
            if not is_range_overlapping(m):
                continue
            checked += 1
            single = PatternSet.of(m)
            assert ex_weight_oracle(3, 3, single).value <= k * (ex_columns(3, k, single).value + 3)

    def test_monotone_in_k(self):
        assert [ex_columns(4, k, P22).value for k in range(1, 6)] == [inf, 6, 1, 1, 0]
