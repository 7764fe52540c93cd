from math import factorial

import pytest

from exmat import (
    Matrix01,
    SizeLimitError,
    contains,
    pattern_L,
    pattern_P,
)
from exmat.patterns import generate_T


class TestFixedPatterns:
    def test_l1_cells(self):
        assert pattern_L(1) == Matrix01.from_rows(
            [[0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 0]]
        )

    def test_l2_cells(self):
        assert pattern_L(2) == Matrix01.from_rows(
            [[0, 1, 1, 1, 0], [1, 0, 0, 0, 1], [0, 0, 1, 0, 0]]
        )

    def test_l3_cells(self):
        assert pattern_L(3) == Matrix01.from_rows(
            [[0, 1, 1, 1, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 1, 0, 0]]
        )

    def test_bad_index(self):
        with pytest.raises(ValueError):
            pattern_L(4)

    def test_all_ones_block(self):
        assert pattern_P(1, 1) == Matrix01.filled(1, 1)
        assert pattern_P(2, 2) == Matrix01.from_rows([[1, 1], [1, 1]])

    @pytest.mark.parametrize("r,c", [(1, 1), (2, 3), (4, 2)])
    def test_block_weight(self, r, c):
        assert pattern_P(r, c).weight == r * c

    def test_block_needs_positive_dims(self):
        with pytest.raises(ValueError):
            pattern_P(0, 2)


class TestTFamily:
    def test_r1_s0_is_the_diamond(self):
        fam = generate_T(1, 0)
        assert len(fam) == 1
        assert fam.patterns[0] == Matrix01.from_rows(
            [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        )

    def test_r0_s0_single_member_with_zero_top_row(self):
        fam = generate_T(0, 0)
        assert fam.patterns == (Matrix01.from_rows([[0, 0], [1, 1]]),)

    @pytest.mark.parametrize("r", range(4))
    @pytest.mark.parametrize("s", range(2))
    def test_member_count_and_shape(self, r, s):
        fam = generate_T(r, s)
        expected = factorial(s + 1) ** 2 * factorial(r)
        assert len(fam) == expected
        assert len(set(fam.patterns)) == expected
        for m in fam:
            assert (m.rows, m.cols) == (r + s + 2, r + 2 * s + 2)
            assert m.weight == 2 * r + 2 * s + 2

    def test_deterministic_order(self):
        a = generate_T(2, 1)
        b = generate_T(2, 1)
        assert a == b

    def test_block_recovery(self):
        # restricting a member to its defining blocks recovers the three
        # permutations it was built from
        r, s = 2, 1
        fam = generate_T(r, s).patterns
        side = s + 1
        seen = set()
        for m in fam:
            left = tuple(
                next(j for j in range(side) if m.cell(1 + i, j)) for i in range(side)
            )
            right = tuple(
                next(j for j in range(side) if m.cell(1 + i, r + side + j))
                for i in range(side)
            )
            mid = tuple(
                next(j for j in range(r) if m.cell(side + 1 + i, side + j))
                for i in range(r)
            )
            assert m.cell(0, side) and m.cell(0, side + r - 1)
            seen.add((left, mid, right))
        assert len(seen) == len(fam)

    def test_every_r3_s1_member_contains_l3(self):
        l3 = pattern_L(3)
        fam = generate_T(3, 1)
        assert len(fam) == 24
        assert all(contains(m, l3) for m in fam)

    def test_r4_s1_members_contain_l3_too(self):
        l3 = pattern_L(3)
        fam = generate_T(4, 1)
        assert len(fam) == 96
        assert all(contains(m, l3) for m in fam)

    def test_negative_params_rejected(self):
        for r, s in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="^r and s must be nonnegative$"):
                generate_T(r, s)

    def test_oversized_family_is_refused(self):
        # ((2+1)!)^2 * 6! = 25,920 members
        with pytest.raises(SizeLimitError):
            generate_T(6, 2)

    def test_refused_family_is_not_cached(self):
        # a refusal raises, so the cache keeps nothing for it and a second
        # call is refused again
        for _ in range(2):
            with pytest.raises(SizeLimitError, match="past the 10000-member limit"):
                generate_T(6, 2)
