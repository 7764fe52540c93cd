import random
from itertools import islice
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exmat import (
    Matrix01,
    PatternSet,
    SizeLimitError,
    avoids_all,
    build_column_graph,
    cluster_split,
    coloring_induction,
    construct_K_prime,
    contains,
    degree_growth_bound,
    greedy_coloring,
    lower_bound_witness,
    pattern_P,
    pigeonhole_witness,
)
from exmat.constructions import (
    INDUCTION_COLUMN_LIMIT,
    INDUCTION_STEP_LIMIT,
    PIGEONHOLE_COLUMN_LIMIT,
)
from exmat.patterns import generate_T
from exmat.verify import random_avoider

from conftest import matrices

DIAMOND = generate_T(1, 0).patterns[0]
IDENT2 = Matrix01(2, 2, (0b01, 0b10))


def max_degree(adj):
    return max(map(len, adj), default=0)


class TestClusterSplit:
    def test_single_column_of_two_clusters(self):
        col = Matrix01.from_ones(6, 1, [(i, 0) for i in range(6)])
        out = cluster_split(col, 3)
        assert out.cols == 2
        assert out.columns() == [0b000111, 0b111000]

    def test_leftover_ones_are_dropped(self):
        col = Matrix01.from_ones(5, 1, [(i, 0) for i in range(5)])
        out = cluster_split(col, 3)
        assert out.cols == 1
        assert out.weight == 3

    def test_all_small_columns_give_empty_matrix(self):
        m = Matrix01.from_ones(4, 3, [(0, 0), (1, 1), (3, 2)])
        out = cluster_split(m, 2)
        assert out.cols == 0 and out.rows == 4

    def test_clusters_stay_adjacent_in_column_order(self):
        m = Matrix01.from_ones(4, 2, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)])
        out = cluster_split(m, 2)
        assert out.columns() == [0b0011, 0b1100, 0b0011]

    @given(matrices(max_rows=6, max_cols=6), st.integers(1, 4))
    def test_every_output_column_has_k_ones_and_weight_accounting(self, m, k):
        out = cluster_split(m, k)
        assert all(bits.bit_count() == k for bits in out.columns())
        assert m.weight <= k * (out.cols + m.cols)
        assert k * out.cols >= m.weight - m.cols * (k - 1)

    @pytest.mark.parametrize("pat", [pattern_P(2, 2), DIAMOND])
    @pytest.mark.parametrize("k", [2, 3])
    def test_preserves_avoidance_of_range_overlapping_patterns(self, pat, k):
        rng = random.Random(hash((pat.rows, pat.cols, k)) & 0xFFFF)
        pset = PatternSet.of(pat)
        for _ in range(120):
            m = random_avoider(rng, rng.randint(1, 8), rng.randint(1, 8), pset)
            out = cluster_split(m, k)
            if out.cols:
                assert not contains(out, pat)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            cluster_split(Matrix01.filled(2, 2), 0)


class TestKPrime:
    def test_frozen_example(self):
        assert construct_K_prime(4, 2) == Matrix01.from_ones(
            4, 2, [(0, 1), (1, 1), (2, 0), (3, 0)]
        )

    @pytest.mark.parametrize("m", range(1, 8))
    def test_shape_and_weight(self, m):
        for k in range(1, m + 1):
            kp = construct_K_prime(m, k)
            assert kp.cols == m // k
            assert kp.weight == k * (m // k)
            assert all(bits.bit_count() == k for bits in kp.columns())

    @pytest.mark.parametrize("m", range(1, 7))
    def test_avoids_identity_and_row_pairs(self, m):
        for k in range(1, m + 1):
            kp = construct_K_prime(m, k)
            assert not contains(kp, IDENT2)
            assert all(bits.bit_count() <= 1 for bits in kp.row_bits)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            construct_K_prime(3, 4)


class TestPigeonholeWitness:
    def test_frozen_example(self):
        wit = pigeonhole_witness(3, 2, 2)
        assert wit.columns() == [0b011, 0b101, 0b110]

    @pytest.mark.parametrize("m,k,c", [(3, 2, 2), (4, 2, 3), (5, 3, 2), (4, 1, 3)])
    def test_column_count_and_avoidance(self, m, k, c):
        wit = pigeonhole_witness(m, k, c)
        assert wit.cols == (c - 1) * comb(m, k)
        assert not contains(wit, pattern_P(k, c))

    def test_repeats_are_adjacent(self):
        wit = pigeonhole_witness(3, 2, 3)
        cols = wit.columns()
        assert cols[0] == cols[1] and cols[2] == cols[3] and cols[4] == cols[5]

    def test_rejects_c_below_two(self):
        with pytest.raises(ValueError):
            pigeonhole_witness(3, 2, 1)

    def test_oversized_witness_is_refused(self):
        with pytest.raises(SizeLimitError):
            pigeonhole_witness(40, 20, 2)

    def test_row_count_is_refused_up_front(self):
        # C(m, m) = 1 column, but m rows.
        assert pigeonhole_witness(PIGEONHOLE_COLUMN_LIMIT, PIGEONHOLE_COLUMN_LIMIT, 2).cols == 1
        for m in (PIGEONHOLE_COLUMN_LIMIT + 1, 10**6):
            with pytest.raises(SizeLimitError):
                pigeonhole_witness(m, m, 2)


class TestColumnGraph:
    def test_identity_matrix_is_edgeless(self):
        ident = Matrix01.from_ones(4, 4, [(i, i) for i in range(4)])
        assert build_column_graph(ident, 2) == [set(), set(), set(), set()]

    def test_pair_witness_forms_triangle(self):
        adj = build_column_graph(pigeonhole_witness(3, 2, 2), 2)
        assert adj == [{1, 2}, {0, 2}, {0, 1}]
        assert max_degree(adj) == 2

    @pytest.mark.parametrize("m,r", [(4, 2), (5, 2), (5, 3), (6, 3)])
    def test_degree_bound_on_exact_r_column_avoiders(self, m, r):
        # distinct r-subset columns avoid the all-ones r x 2 block; their
        # graph degree must stay within r*(m-r)
        rng = random.Random(m * 10 + r)
        subsets = list(range(comb(m, r)))
        base = pigeonhole_witness(m, r, 2)
        cols = base.columns()
        for _ in range(20):
            chosen = rng.sample(subsets, rng.randint(1, len(subsets)))
            rows = [0] * m
            for j, idx in enumerate(sorted(chosen)):
                for rr in range(m):
                    if (cols[idx] >> rr) & 1:
                        rows[rr] |= 1 << j
            mat = Matrix01(m, len(chosen), tuple(rows))
            assert not contains(mat, pattern_P(r, 2))
            assert max_degree(build_column_graph(mat, r)) <= r * (m - r)

    def test_needs_r_at_least_two(self):
        with pytest.raises(ValueError):
            build_column_graph(Matrix01.filled(2, 2), 1)

    def test_rejects_contained_block(self):
        with pytest.raises(ValueError):
            build_column_graph(Matrix01.filled(2, 2), 2)


class TestGreedyColoring:
    @given(st.integers(1, 9), st.data())
    def test_proper_and_within_degree_plus_one(self, n, data):
        adj = [set() for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if data.draw(st.booleans(), label=f"edge{(a, b)}"):
                    adj[a].add(b)
                    adj[b].add(a)
        colors = greedy_coloring(adj)
        for v in range(n):
            for u in adj[v]:
                assert colors[v] != colors[u]
        if colors:
            assert max(colors) + 1 <= max_degree(adj) + 1


class TestInduction:
    def test_base_is_all_r_subsets(self):
        [(base, adj, _)] = lower_bound_witness(3, 2, 2)
        assert base == pigeonhole_witness(3, 2, 2)
        assert all(bits.bit_count() == 2 for bits in base.columns())
        assert base.rows == 3 and max_degree(adj) == 2

    def test_single_step_shape(self):
        base = pigeonhole_witness(3, 2, 2)
        (mat0, adj0, _), (mat1, _, _) = islice(coloring_induction(base, 2), 2)
        assert mat0 == base
        assert mat1.cols == mat0.cols
        assert mat1.rows <= mat0.rows + max_degree(adj0) + 1
        assert all(bits.bit_count() == 3 for bits in mat1.columns())
        assert not contains(mat1, pattern_P(2, 2))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_degree_growth_bound_across_steps(self, m):
        rungs = lower_bound_witness(m, 2, 4)
        for (before, adj, _), (_, next_adj, _) in zip(rungs, rungs[1:]):
            assert degree_growth_bound(before, max_degree(adj), max_degree(next_adj), 2)

    def test_rejects_uneven_columns(self):
        bad = Matrix01.from_ones(3, 2, [(0, 0), (1, 0), (2, 1)])
        with pytest.raises(ValueError):
            next(coloring_induction(bad, 2))

    def test_rejects_contained_block(self):
        bad = Matrix01.filled(2, 2)
        with pytest.raises(ValueError):
            next(coloring_induction(bad, 2))

    def test_zero_step_witness_is_base(self):
        rungs = lower_bound_witness(3, 2, 2)
        assert len(rungs) == 1
        wit = rungs[-1][0]
        assert wit == pigeonhole_witness(3, 2, 2)
        assert wit.cols == 3

    def test_grown_witness(self):
        rungs = lower_bound_witness(4, 2, 3)
        wit = rungs[-1][0]
        base_delta = max_degree(rungs[0][1])
        assert wit.cols == comb(4, 2)
        assert wit.rows <= 4 + base_delta + 1
        assert all(bits.bit_count() == 3 for bits in wit.columns())
        assert not contains(wit, pattern_P(2, 2))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_witness_grid(self, m, k):
        wit = lower_bound_witness(m, 2, k)[-1][0]
        assert wit.cols == comb(m, 2)
        assert all(bits.bit_count() == k for bits in wit.columns())
        assert avoids_all(wit, PatternSet.of(pattern_P(2, 2)))

    def test_requires_k_at_least_r(self):
        with pytest.raises(ValueError):
            lower_bound_witness(4, 3, 2)

    def test_column_and_step_limits(self):
        assert comb(46, 2) > INDUCTION_COLUMN_LIMIT >= comb(45, 2)
        with pytest.raises(SizeLimitError):
            lower_bound_witness(46, 2, 2)
        tall = INDUCTION_COLUMN_LIMIT + 1  # C(m, m) = 1 column, but m rows
        with pytest.raises(SizeLimitError):
            lower_bound_witness(tall, tall, tall)
        with pytest.raises(SizeLimitError):
            lower_bound_witness(4, 2, 3 + INDUCTION_STEP_LIMIT)
        assert lower_bound_witness(4, 2, 2 + INDUCTION_STEP_LIMIT)[-1][0].cols == 6
