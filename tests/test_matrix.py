import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exmat import (
    DegeneratePatternError,
    Matrix01,
    PatternSet,
    avoids_all,
    contains,
    contains_oracle,
    flip_h,
    flip_v,
    format_pattern_set,
    is_range_overlapping,
    parse_matrix,
    parse_pattern_set,
    pattern_L,
    pattern_P,
    transpose,
)
from exmat.patterns import generate_T
from exmat.search import _automaton, _cover_masks

from conftest import matrices, small_patterns

DIAMOND = generate_T(1, 0).patterns[0]
IDENT2 = Matrix01(2, 2, (0b01, 0b10))


def all_hosts_3x3():
    for mask in range(1 << 9):
        yield Matrix01(3, 3, tuple((mask >> (3 * r)) & 0b111 for r in range(3)))


class TestContains:
    def test_pattern_contains_itself(self):
        l1 = pattern_L(1)
        assert contains(l1, l1)

    def test_identity_has_no_row_pair(self):
        ident = Matrix01.from_ones(5, 5, [(i, i) for i in range(5)])
        assert not contains(ident, pattern_P(1, 2))

    def test_all_ones_host_contains_diamond(self):
        host = Matrix01.filled(3, 3)
        assert contains_oracle(host, DIAMOND)
        assert contains(host, DIAMOND)

    def test_oversized_pattern_never_contained(self):
        assert not contains(Matrix01.filled(2, 2), pattern_P(3, 1))
        assert not contains(Matrix01.filled(2, 2), pattern_P(1, 3))

    def test_all_zero_pattern_vacuously_contained_when_it_fits(self):
        zero = Matrix01.zeros(2, 2)
        assert contains(Matrix01.zeros(3, 3), zero)
        assert contains_oracle(Matrix01.zeros(3, 3), zero)
        assert not contains(Matrix01.zeros(1, 3), zero)

    def test_single_cell_cases(self):
        one = pattern_P(1, 1)
        assert not contains_oracle(Matrix01.zeros(1, 1), one)
        assert contains_oracle(Matrix01.filled(1, 1), one)

    def test_exhaustive_3x3_hosts_match_oracle(self):
        pats = [pattern_P(2, 2), DIAMOND, IDENT2, pattern_P(1, 2)]
        for host in all_hosts_3x3():
            for pat in pats:
                assert contains(host, pat) == contains_oracle(host, pat)

    @given(matrices(max_rows=6, max_cols=6), small_patterns())
    def test_matches_oracle_on_random_pairs(self, host, pat):
        assert contains(host, pat) == contains_oracle(host, pat)

    @given(matrices(max_rows=5, max_cols=5), small_patterns(), st.randoms())
    def test_monotone_in_host_ones(self, host, pat, rnd):
        if not contains(host, pat):
            return
        rows = list(host.row_bits)
        r = rnd.randrange(host.rows)
        c = rnd.randrange(host.cols)
        rows[r] |= 1 << c
        bigger = Matrix01(host.rows, host.cols, tuple(rows))
        assert contains(bigger, pat)

    @given(matrices(max_rows=5, max_cols=5), small_patterns(), st.randoms())
    def test_monotone_in_pattern_ones(self, host, pat, rnd):
        if not contains(host, pat):
            return
        ones = list(pat.ones())
        if not ones:
            return
        drop = rnd.choice(ones)
        weaker = Matrix01.from_ones(pat.rows, pat.cols, [o for o in ones if o != drop])
        assert contains(host, weaker)

    @given(matrices(max_rows=5, max_cols=5), small_patterns())
    def test_reflection_symmetry(self, host, pat):
        res = contains(host, pat)
        assert res == contains(flip_h(host), flip_h(pat))
        assert res == contains(flip_v(host), flip_v(pat))

    @given(matrices(max_rows=5, max_cols=5), small_patterns())
    def test_transposition_symmetry(self, host, pat):
        res = contains(host, pat)
        assert res == contains(transpose(host), transpose(pat)) == contains_oracle(host, pat)

    @given(matrices(max_rows=5, max_cols=5), small_patterns())
    def test_containment_needs_room(self, host, pat):
        if contains(host, pat):
            assert pat.rows <= host.rows and pat.cols <= host.cols

    def test_deep_pattern_needs_no_recursion(self):
        # 1,200 pattern rows raised RecursionError while the row assignment
        # recursed once per pattern row
        tall = Matrix01.filled(1200, 1)
        assert contains(tall, tall)

    def test_zero_rows_are_not_retried(self):
        # 19 zero rows above a one: placing each zero row again on every
        # later host row on backtrack took time exponential in their number
        pat = Matrix01(20, 1, (0,) * 19 + (1,))
        assert not contains(Matrix01.zeros(40, 1), pat)
        assert not contains(Matrix01.from_ones(40, 1, [(18, 0)]), pat)
        assert contains(Matrix01.from_ones(40, 1, [(19, 0)]), pat)


def brute_embeddings(host, pat):
    """Every (row selection, column selection) pair that maps pat into host."""
    ones = list(pat.ones())
    for rsel in combinations(range(host.rows), pat.rows):
        for csel in combinations(range(host.cols), pat.cols):
            if all(host.cell(rsel[a], csel[b]) for a, b in ones):
                yield rsel, csel


class TestBruteForceDifferentials:
    def test_contains_matches_brute_force_embeddings(self):
        # hosts up to 6x6 and patterns up to 4x4 stack deeper column masks
        # and backtrack more than the hypothesis cases
        rng = random.Random(6)
        for _ in range(12_500):
            hm, n = rng.randint(1, 6), rng.randint(1, 6)
            host = Matrix01(hm, n, tuple(rng.randrange(1 << n) | rng.randrange(1 << n) for _ in range(hm)))
            p, q = rng.randint(1, 4), rng.randint(1, 4)
            pat = Matrix01(p, q, tuple(rng.randrange(1 << q) for _ in range(p)))
            assert contains(host, pat) == any(brute_embeddings(host, pat))

    @settings(max_examples=300)
    @given(matrices(max_rows=5, max_cols=5), st.lists(small_patterns(), min_size=1, max_size=2))
    def test_column_automaton_matches_brute_force(self, host, pats):
        # the host's columns are the candidates, appended left to right; the
        # automaton refuses column n-1 iff an embedding of a pattern ends on
        # it, and then the walk stops, as ex_columns appends no refused
        # column.  Patterns of two heights share blocks of the larger size.
        hm = host.rows
        pats = [p for p in pats if p.rows <= hm]
        assume(pats)
        columns = [tuple(r for r in range(hm) if bits >> r & 1) for bits in host.columns()]
        block, state, ends, holds = _automaton(hm, [transpose(p) for p in pats], len(columns), "")
        assert block == max(comb(hm, p.rows) for p in pats)
        last, cov = sum(ends), _cover_masks(holds, columns)
        for n in range(1, host.cols + 1):
            prefix = Matrix01(hm, n, tuple(bits & ((1 << n) - 1) for bits in host.row_bits))
            expected = any(
                csel[-1] == n - 1 for p in pats for _, csel in brute_embeddings(prefix, p)
            )
            hit = state & cov[n - 1]
            assert bool(hit & last) == expected
            if expected:
                break
            state = state ^ hit | hit << block

    @settings(max_examples=200)
    @given(st.integers(1, 6), st.lists(small_patterns(), min_size=1, max_size=3))
    def test_automaton_holds_match_definition(self, lines, pats):
        # holds[r] has bit base + j*block + i iff the i-th subset (in
        # combinations order) of the pattern's width holds line r at a
        # position where level j has a one; state and ends mark a pattern's
        # first and last level blocks over its C(lines, cols) subsets
        pats = [p for p in pats if p.cols <= lines]
        assume(pats)
        block, state, ends, holds = _automaton(lines, pats, 1, "")
        want, first, last, base = [0] * lines, 0, [], 0
        for p in pats:
            subsets = list(combinations(range(lines), p.cols))
            for j, row in enumerate(p.row_bits):
                for i, t in enumerate(subsets):
                    for a in range(p.cols):
                        if row >> a & 1:
                            want[t[a]] |= 1 << base + j * block + i
            every = (1 << len(subsets)) - 1
            first |= every << base
            last.append(every << base + (p.rows - 1) * block)
            base += p.rows * block
        assert block == max(comb(lines, p.cols) for p in pats)
        assert (holds, state, ends) == (want, first, last)


class TestAvoidsAll:
    def test_single_column_avoids_multicolumn_pattern(self):
        host = Matrix01.from_ones(6, 1, [(i, 0) for i in range(6)])
        assert avoids_all(host, PatternSet.of(pattern_L(1)))

    def test_one_cell_pattern_dominates(self):
        host = Matrix01.from_ones(3, 3, [(1, 2)])
        assert not avoids_all(host, PatternSet.of(pattern_P(1, 1)))

    def test_set_avoidance_is_every_member(self):
        host = Matrix01.filled(2, 2)
        assert not avoids_all(host, PatternSet.of(pattern_P(3, 3), pattern_P(2, 2)))
        assert avoids_all(host, PatternSet.of(pattern_P(3, 3), pattern_P(1, 5)))


class TestRangeOverlapping:
    def test_all_ones_blocks(self):
        assert is_range_overlapping(pattern_P(3, 4))

    def test_disjoint_ranges(self):
        m = Matrix01.from_ones(3, 2, [(0, 0), (2, 1)])
        assert not is_range_overlapping(m)

    def test_diamond_overlaps_at_middle_row(self):
        assert is_range_overlapping(DIAMOND)

    def test_zero_column_rejected(self):
        m = Matrix01.from_ones(2, 2, [(0, 0)])
        with pytest.raises(DegeneratePatternError):
            is_range_overlapping(m)

    def test_interval_rule_matches_pairwise_definition(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(3000):
            rows, cols = rng.randint(1, 7), rng.randint(1, 6)
            supports = tuple(rng.randint(1, (1 << rows) - 1) for _ in range(cols))
            m = transpose(Matrix01(cols, rows, supports))
            # each column's top and bottom one, read from its mask
            spans = [
                (min(ones), max(ones))
                for ones in ([r for r in range(rows) if bits >> r & 1] for bits in supports)
            ]
            pairwise = all(
                a_top <= b_bottom and b_top <= a_bottom
                for (a_top, a_bottom), (b_top, b_bottom) in combinations(spans, 2)
            )
            assert is_range_overlapping(m) == pairwise
            seen.add(pairwise)
        assert seen == {True, False}

    @given(matrices(max_rows=5, max_cols=5))
    def test_invariant_under_reflection_and_column_permutation(self, m):
        if any(not bits for bits in m.columns()):
            return
        base = is_range_overlapping(m)
        assert base == is_range_overlapping(flip_h(m))
        perm = list(range(m.cols))
        random.Random(m.cols * 31 + m.rows).shuffle(perm)
        cols = m.columns()
        shuffled = Matrix01.from_ones(
            m.rows,
            m.cols,
            [
                (r, j)
                for j, src in enumerate(perm)
                for r in range(m.rows)
                if (cols[src] >> r) & 1
            ],
        )
        assert base == is_range_overlapping(shuffled)


class TestTextFormat:
    def test_round_trip(self):
        text = "0110\n1001\n0100"
        assert parse_matrix(text).to_text() == text

    def test_pattern_set_round_trip(self):
        ps = generate_T(1, 1)
        again = parse_pattern_set(format_pattern_set(ps))
        assert again == ps

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            parse_matrix("01\n011")

    def test_rejects_bad_characters(self):
        with pytest.raises(ValueError):
            parse_matrix("012")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_matrix("  \n ")

    @given(matrices())
    def test_round_trip_random(self, m):
        assert parse_matrix(m.to_text()) == m


class TestMatrixBasics:
    def test_weight_counts_ones(self):
        assert pattern_P(3, 4).weight == 12
        assert Matrix01.zeros(5, 5).weight == 0

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            Matrix01(2, 2, (0b100, 0b01))
        with pytest.raises(ValueError):
            Matrix01(2, 2, (0b01,))

    def test_pattern_set_must_be_nonempty(self):
        with pytest.raises(ValueError):
            PatternSet(())

    def test_pattern_set_rejects_empty_members(self):
        with pytest.raises(ValueError):
            PatternSet.of(Matrix01(0, 0, ()))

    @given(matrices())
    def test_flips_are_involutions(self, m):
        assert flip_h(flip_h(m)) == m
        assert flip_v(flip_v(m)) == m

    @given(matrices(min_rows=0, min_cols=0))
    def test_transpose_is_an_involution_with_columns_as_rows(self, m):
        assert transpose(transpose(m)) == m
        assert transpose(m).row_bits == tuple(m.columns())

    @pytest.mark.parametrize(
        "rows,cols", [(64, 64), (65, 3), (3, 65), (100, 130), (1, 300), (0, 70), (70, 0)]
    )
    def test_transpose_moves_every_cell_of_wide_and_tall_matrices(self, rows, cols):
        # past 64 rows or columns the transposition goes through strings
        rng = random.Random(rows * 1000 + cols)
        for density in (0.02, 0.5, 1.0):
            m = Matrix01(rows, cols, tuple(
                sum((rng.random() < density) << j for j in range(cols)) for _ in range(rows)
            ))
            t = transpose(m)
            assert (t.rows, t.cols) == (cols, rows)
            assert all(t.cell(j, i) == m.cell(i, j) for i in range(rows) for j in range(cols))
            assert transpose(t) == m

    @given(matrices())
    def test_transpose_and_flips_move_every_cell(self, m):
        t, h, v = transpose(m), flip_h(m), flip_v(m)
        for i in range(m.rows):
            for j in range(m.cols):
                assert t.cell(j, i) == m.cell(i, j)
                assert h.cell(i, m.cols - 1 - j) == m.cell(i, j)
                assert v.cell(m.rows - 1 - i, j) == m.cell(i, j)
