import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exmat import (
    Bar,
    BarLayout,
    LayoutError,
    Matrix01,
    avoider_weight_bound,
    avoids_all,
    contains,
    contains_oracle,
    format_layout,
    matrix_to_visibility,
    parse_layout,
    sweep_edges,
    sweep_edges_oracle,
    witness_is_exact,
)
from exmat.visibility import VisEdge
from exmat.patterns import generate_T
from exmat.render import _MARGIN, _X_SCALE, layout_svg
from exmat import verify
from exmat.verify import greedy_avoider, random_avoider, random_layout

from conftest import matrices

DIAMOND = generate_T(1, 0).patterns[0]

STACK = (Bar(1, 0, 11), Bar(2, 1, 10), Bar(3, 2, 9))


def edge_map(edges):
    return {e.members: e.multiplicity for e in edges}


def fractional_layout(rng, n, s, base=0, denominators=(1, 2, 3, 4, 5, 7, 12)):
    """n bars with 2n distinct endpoints base + k + p/q, k in -3..2, so
    endpoints share floors and carry mixed denominators."""
    ends = set()
    while len(ends) < 2 * n:
        q = rng.choice(denominators)
        ends.add(base + rng.randint(-3, 2) + Fraction(rng.randrange(q), q))
    ends = list(ends)
    rng.shuffle(ends)
    ys = rng.sample(range(-n, 2 * n), n)
    return BarLayout(
        tuple(Bar(y, *sorted(ends[2 * i : 2 * i + 2])) for i, y in enumerate(ys)), s
    )


def reference_reduction(matrix, r, s):
    """Cell-by-cell statement of the trim-and-anchor rule, as bar triples
    (y_rank, x_left, x_right) and (members, witnesses) pairs in first-seen
    order."""
    row_kept = set()
    for i in range(matrix.rows):
        cols = [j for j in range(matrix.cols) if matrix.cell(i, j)]
        row_kept.update((i, j) for j in cols[s + 1 : len(cols) - (s + 1)])
    kept = set()
    for j in range(matrix.cols):
        rows = [i for i in range(matrix.rows) if (i, j) in row_kept]
        kept.update((i, j) for i in rows[: max(0, len(rows) - r)])
    bar_rows = sorted({i for i, _ in kept})
    span = {i: [j for a, j in sorted(kept) if a == i] for i in bar_rows}
    eps = Fraction(1, 2 * matrix.rows + 2)
    bars = [
        (i + 1, Fraction(span[i][0] + 1) - (i + 1) * eps, Fraction(span[i][-1] + 1) + (i + 1) * eps)
        for i in bar_rows
    ]
    seen = {}
    for j in range(matrix.cols):
        rows = [i for i in range(matrix.rows) if (i, j) in kept]
        for i in rows:
            if sum(1 for a in rows if a > i) < s + 1:
                continue
            below = [a for a in bar_rows if a > i and span[a][0] <= j <= span[a][-1]][: s + 1]
            members = tuple(bar_rows.index(a) for a in [i] + below)
            seen.setdefault(members, []).append(Fraction(j + 1))
    return bars, list(seen.items())


def all_subsets_oracle(layout):
    """Every (s+2)-subset of all bars, with every other bar as a possible
    blocker, tested at the midpoint of every gap between consecutive
    endpoints: the reference that `sweep_edges_oracle` must reproduce,
    members, witnesses and order."""
    size = layout.s + 2
    bars = layout.bars
    n = len(bars)
    if n < size:
        return []
    ends = sorted([b.x_left for b in bars] + [b.x_right for b in bars])
    mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    seen = {}
    prev = set()
    for x in mids:
        covers = [b.covers(x) for b in bars]
        current = set()
        for combo in combinations(range(n), size):
            if not all(covers[i] for i in combo):
                continue
            ys = [bars[i].y_rank for i in combo]
            lo, hi = min(ys), max(ys)
            blocked = any(
                lo < bars[j].y_rank < hi and covers[j]
                for j in range(n)
                if j not in combo
            )
            if blocked:
                continue
            key = frozenset(combo)
            current.add(key)
            if key not in prev:
                seen.setdefault(key, []).append(x)
        prev = current
    return [VisEdge(tuple(sorted(key)), tuple(wit)) for key, wit in seen.items()]


class TestLayoutModel:
    def test_rejects_duplicate_endpoints(self):
        with pytest.raises(LayoutError):
            BarLayout((Bar(1, 0, 5), Bar(2, 5, 9)), 0)

    def test_rejects_duplicate_heights(self):
        with pytest.raises(LayoutError):
            BarLayout((Bar(1, 0, 5), Bar(1, 6, 9)), 0)

    def test_rejects_degenerate_bar(self):
        with pytest.raises(LayoutError):
            Bar(1, 3, 3)

    def test_rejects_negative_s(self):
        with pytest.raises(LayoutError):
            BarLayout(STACK, -1)


class TestSweep:
    def test_three_stacked_bars_s0(self):
        edges = sweep_edges(BarLayout(STACK, 0))
        assert edge_map(edges) == {(0, 1): 1, (1, 2): 1}

    def test_three_stacked_bars_s1(self):
        edges = sweep_edges(BarLayout(STACK, 1))
        assert edge_map(edges) == {(0, 1, 2): 1}

    def test_single_bar_has_no_edges(self):
        assert sweep_edges(BarLayout((Bar(1, 0, 3),), 0)) == []

    def test_disjoint_bars_have_no_edges(self):
        lay = BarLayout((Bar(1, 0, 3), Bar(2, 4, 7)), 0)
        assert sweep_edges(lay) == []
        assert sweep_edges_oracle(lay) == []

    def test_blocking_bar_splits_interval_into_two_witnesses(self):
        lay = BarLayout((Bar(1, 0, 10), Bar(2, 4, 6), Bar(3, 1, 9)), 0)
        edges = edge_map(sweep_edges(lay))
        assert edges[(0, 2)] == 2
        assert edges[(0, 1)] == 1
        assert edges[(1, 2)] == 1

    def test_matches_oracle_on_random_layouts(self):
        rng = random.Random(20260809)
        for _ in range(250):
            n = rng.randint(2, 10)
            s = rng.randint(0, 3)
            lay = random_layout(rng, n, s)
            assert edge_map(sweep_edges(lay)) == edge_map(sweep_edges_oracle(lay))

    def test_matches_oracle_on_fractional_layouts(self):
        # endpoints with equal floors are ordered by comparing Fractions
        rng = random.Random(20261019)
        shared_floors = 0
        for _ in range(200):
            n = rng.randint(2, 10)
            s = rng.randint(0, 3)
            lay = fractional_layout(rng, n, s)
            ends = [b.x_left for b in lay.bars] + [b.x_right for b in lay.bars]
            shared_floors += len(ends) - len({x.numerator // x.denominator for x in ends})
            edges = sweep_edges(lay)
            assert edge_map(edges) == edge_map(sweep_edges_oracle(lay))
            for e in edges:
                for w in e.witnesses:
                    assert witness_is_exact(lay, e.members, w)
        assert shared_floors > 0

    def test_oracle_matches_its_all_subsets_reference(self):
        # the covering-bars oracle gives the same edges, witnesses and order
        rng = random.Random(20261020)
        for _ in range(120):
            n = rng.randint(2, 9)
            s = rng.randint(0, 3)
            for lay in (random_layout(rng, n, s), fractional_layout(rng, n, s)):
                assert sweep_edges_oracle(lay) == all_subsets_oracle(lay)
        for lay in (BarLayout(STACK, 0), BarLayout(STACK, 1)):
            assert sweep_edges_oracle(lay) == all_subsets_oracle(lay)

    def test_edge_count_bound_and_witness_exactness(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(2, 20)
            s = rng.randint(0, 3)
            lay = random_layout(rng, n, s)
            edges = sweep_edges(lay)
            assert len(edges) <= (2 * s + 3) * n
            for e in edges:
                assert len(e.members) == s + 2
                for w in e.witnesses:
                    assert witness_is_exact(lay, e.members, w)

    def test_reflection_preserves_edge_multiset(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(2, 9)
            s = rng.randint(0, 2)
            lay = random_layout(rng, n, s)
            mirrored = BarLayout(
                tuple(Bar(b.y_rank, -b.x_right, -b.x_left) for b in lay.bars), s
            )
            assert edge_map(sweep_edges(lay)) == edge_map(sweep_edges(mirrored))


class TestSvgCoordinates:
    """Every SVG x and width is the float of the exact offset, scaled."""

    @staticmethod
    def check(lay, edges):
        x_min = min(b.x_left for b in lay.bars)

        def sx(x):
            return f"{_MARGIN + float(x - x_min) * _X_SCALE:.3f}"

        svg = layout_svg(lay, edges)
        rects = re.findall(r'<rect x="([^"]*)" y="[^"]*" width="([^"]*)"', svg)
        lines = re.findall(r'<line x1="([^"]*)" y1="[^"]*" x2="([^"]*)"', svg)
        assert rects == [
            (sx(b.x_left), f"{float(b.x_right - b.x_left) * _X_SCALE:.3f}") for b in lay.bars
        ]
        assert lines == [(sx(w), sx(w)) for e in edges for w in e.witnesses]
        return len(lines)

    def test_fractional_layouts(self):
        rng = random.Random(18)
        drawn = 0
        for base, denominators in (
            (0, (1, 2, 3, 4, 5, 7, 12)),
            (-(10**12), (1, 3, 7, 999_983)),
            (10**15, tuple(range(10**6, 10**6 + 50))),
        ):
            for _ in range(40):
                lay = fractional_layout(rng, rng.randint(2, 12), rng.randint(0, 2), base, denominators)
                drawn += self.check(lay, sweep_edges(lay))
        assert drawn

    def test_matrix_layouts(self):
        rng = random.Random(19)
        drawn = 0
        for _ in range(40):
            n = rng.randint(3, 12)
            mat = Matrix01(n, n, tuple(rng.randrange(1 << n) for _ in range(n)))
            lay, edges = matrix_to_visibility(mat, rng.randint(0, 2), rng.randint(0, 1))
            if lay.bars:
                drawn += self.check(lay, edges)
        assert drawn


class TestLayoutFormat:
    def test_round_trip(self):
        lay = BarLayout((Bar(1, Fraction(1, 2), 4), Bar(3, 1, Fraction(9, 2))), 1)
        again = parse_layout(format_layout(lay), 1)
        assert again == lay

    def test_parses_fractions_and_integers(self):
        lay = parse_layout("1 0 7\n2 1/3 19/3\n3 -2 +7/2", 0)
        assert lay.bars[1].x_left == Fraction(1, 3)
        assert lay.bars[2] == Bar(3, -2, Fraction(7, 2))

    @pytest.mark.parametrize(
        "text,bar",
        [
            ("1 +3/4 2", (1, Fraction(3, 4), Fraction(2))),
            ("1 -0/5 2", (1, Fraction(0), Fraction(2))),
            ("1 -6/4 00/7", (1, Fraction(-3, 2), Fraction(0))),
            ("-2 12/8 5", (-2, Fraction(3, 2), Fraction(5))),
        ],
    )
    def test_coordinates_parse_to_their_values(self, text, bar):
        [parsed] = parse_layout(text, 0).bars
        assert (parsed.y_rank, parsed.x_left, parsed.x_right) == bar
        assert type(parsed.x_left) is Fraction and type(parsed.x_right) is Fraction

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1 1/0 3", "bad bar line '1 1/0 3': Fraction(1, 0)"),
            ("1 3 2", "bad bar line '1 3 2': bar needs x_left < x_right, got 3 >= 2"),
            ("a 1/0 3", "bad bar line 'a 1/0 3': invalid literal for int() with base 10: 'a'"),
            (
                "1 0 " + "7" * 5000,
                "Exceeds the limit (4300 digits) for integer string conversion: "
                "value has 5000 digits",
            ),
            (
                "1 -" + "7" * 5000 + "/3 0",
                "Exceeds the limit (4300 digits) for integer string conversion: "
                "value has 5000 digits",
            ),
        ],
    )
    def test_bad_coordinates_name_their_line_and_cause(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_layout(text, 0)
        assert str(info.value).startswith(f"bad bar line {text!r}: ")
        assert message in str(info.value)

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_layout("1 2", 0)
        with pytest.raises(ValueError):
            parse_layout("a b c", 0)

    @pytest.mark.parametrize("x", ["1.5", "1e3", "1E3", "0x10", "1_000", "3/", "/3", "1/-3", "inf"])
    def test_coordinates_are_integers_or_fractions_only(self, x):
        with pytest.raises(ValueError, match="integers or p/q"):
            parse_layout(f"1 0 {x}", 0)


class TestMatrixReduction:
    def test_identity_trims_to_nothing(self):
        ident = Matrix01.from_ones(5, 5, [(i, i) for i in range(5)])
        lay, edges = matrix_to_visibility(ident, 0, 0)
        assert lay.bars == () and edges == []

    def test_full_5x5_hand_simulation(self):
        # rows lose their first and last one, leaving columns 2..4 (1-based);
        # each remaining one except the bottom row's anchors the edge to the
        # next bar down, so consecutive-row pairs carry three witness columns
        lay, edges = matrix_to_visibility(Matrix01.filled(5, 5), 0, 0)
        assert len(lay.bars) == 5
        assert edge_map(edges) == {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3}
        for e in edges:
            assert e.witnesses == (Fraction(2), Fraction(3), Fraction(4))

    def test_column_trim_removes_bottom_ones(self):
        # full 5x5: the row trim leaves three ones per row; trimming the
        # bottom two ones of every surviving column then empties rows 4-5
        full = Matrix01.filled(5, 5)
        lay0, _ = matrix_to_visibility(full, 0, 0)
        lay2, _ = matrix_to_visibility(full, 2, 0)
        assert len(lay0.bars) == 5
        assert len(lay2.bars) == 3

    def test_column_with_fewer_than_r_ones_is_emptied(self):
        # the row trim leaves the middle column with two ones; r = 3 removes both
        lay, edges = matrix_to_visibility(Matrix01.filled(2, 3), 3, 0)
        assert lay.bars == () and edges == []

    @settings(max_examples=300)
    @given(matrices(max_rows=8, max_cols=8), st.integers(0, 4), st.integers(0, 2))
    def test_matches_cell_by_cell_reference(self, mat, r, s):
        lay, edges = matrix_to_visibility(mat, r, s)
        bars = [(b.y_rank, b.x_left, b.x_right) for b in lay.bars]
        assert lay.s == s
        assert (bars, [(e.members, list(e.witnesses)) for e in edges]) == reference_reduction(
            mat, r, s
        )

    def test_matches_reference_on_every_3x3_matrix(self):
        # every 3x3 matrix, many of which keep no bar after trimming
        empty = 0
        for rows in product(range(8), repeat=3):
            mat = Matrix01(3, 3, rows)
            for r, s in ((0, 0), (1, 0), (2, 0), (0, 1)):
                lay, edges = matrix_to_visibility(mat, r, s)
                bars = [(b.y_rank, b.x_left, b.x_right) for b in lay.bars]
                assert lay.s == s
                assert (bars, [(e.members, list(e.witnesses)) for e in edges]) == (
                    reference_reduction(mat, r, s)
                )
                empty += not bars
        assert 0 < empty < 512 * 4

    def test_witness_segments_meet_exactly_their_members(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(2, 9)
            mat = Matrix01(
                n, n, tuple(rng.randrange(1 << n) for _ in range(n))
            )
            r, s = rng.randint(0, 2), rng.randint(0, 1)
            lay, edges = matrix_to_visibility(mat, r, s)
            for e in edges:
                assert len(e.members) == s + 2
                for w in e.witnesses:
                    assert witness_is_exact(lay, e.members, w)

    def test_construction_edges_are_visibility_edges(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(3, 8)
            mat = Matrix01(n, n, tuple(rng.randrange(1 << n) for _ in range(n)))
            lay, edges = matrix_to_visibility(mat, 1, 0)
            swept = {e.members for e in sweep_edges(lay)}
            assert all(e.members in swept for e in edges)

    def test_distinct_endpoints_always(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(1, 10)
            mat = Matrix01(n, n, tuple(rng.randrange(1 << n) for _ in range(n)))
            lay, _ = matrix_to_visibility(mat, 0, 1)
            ends = [b.x_left for b in lay.bars] + [b.x_right for b in lay.bars]
            assert len(set(ends)) == len(ends)

    def test_diamond_avoiders_generate_no_edges(self):
        rng = random.Random(8)
        pset = generate_T(1, 0)
        for _ in range(60):
            n = rng.randint(3, 8)
            mat = random_avoider(rng, n, n, pset)
            _, edges = matrix_to_visibility(mat, 1, 0)
            assert edges == []

    def test_no_edges_claim_names_a_failing_host_by_its_mask(self, monkeypatch):
        # row r of the host is bits 3r..3r+2 of the reported mask
        def reduce(host, r, s):
            lay, edges = matrix_to_visibility(host, r, s)
            if host.row_bits == (0b001, 0b100, 0b000):
                edges = [VisEdge((0, 1), (Fraction(1),))]
            return lay, edges

        monkeypatch.setattr(verify, "matrix_to_visibility", reduce)
        no_edges = verify.claim_kvis(random_trials=1, exhaustive_n=(3,))[0]
        assert no_edges.observed == {"checked": 480, "failures": [(3, 0b000_100_001)]}

    @pytest.mark.parametrize("r,s", [(2, 0), (1, 1), (3, 1)])
    def test_multiplicity_bound_on_avoiders(self, r, s):
        rng = random.Random(100 * r + s)
        fam = generate_T(r, s)
        for _ in range(15):
            n = rng.choice((6, 8, 10))
            mat = greedy_avoider(rng, n, n, fam) if rng.random() < 0.4 else random_avoider(
                rng, n, n, fam
            )
            assert avoids_all(mat, fam)
            _, edges = matrix_to_visibility(mat, r, s)
            assert all(e.multiplicity <= r - 1 for e in edges)


class TestWeightBound:
    def test_identity_passes(self):
        ident = Matrix01.from_ones(6, 6, [(i, i) for i in range(6)])
        assert avoids_all(ident, generate_T(1, 0))
        assert ident.weight <= avoider_weight_bound(6, 1, 0) == 24

    def test_small_hosts_cannot_contain_and_still_fit_bound(self):
        # members do not fit below their own dimensions, and from n = 2 on
        # the formula still dominates the full n^2 weight for (r, s) = (3, 1)
        for n in (2, 3, 4, 5):
            assert Matrix01.filled(n, n).weight <= avoider_weight_bound(n, 3, 1)

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            avoider_weight_bound(3, 0, 0)

    def test_greedy_avoiders_stay_within_bound(self):
        rng = random.Random(55)
        for r, s in ((1, 0), (2, 0), (1, 1)):
            fam = generate_T(r, s)
            for n in (5, 8, 11):
                mat = greedy_avoider(rng, n, n, fam)
                assert avoids_all(mat, fam)
                assert mat.weight <= avoider_weight_bound(n, r, s)


class TestGreedyAvoider:
    @pytest.mark.parametrize("r,s", [(1, 0), (2, 0), (1, 1)])
    def test_result_is_a_maximal_avoider(self, r, s):
        # it avoids every member, and a one on any of its zero cells would
        # complete a member
        rng = random.Random(300 + 10 * r + s)
        fam = generate_T(r, s)
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            mat = greedy_avoider(rng, rows, cols, fam)
            assert not any(contains_oracle(mat, p) for p in fam)
            for i in range(rows):
                for j in range(cols):
                    if not mat.cell(i, j):
                        bits = list(mat.row_bits)
                        bits[i] |= 1 << j
                        grown = Matrix01(rows, cols, tuple(bits))
                        assert any(contains_oracle(grown, p) for p in fam)
