"""Seeded verification suites over the package's finite claims.

Each claim function checks one or more mathematical statements on a fixed
grid or a seeded random sample and returns a list of ClaimResult, all built
and timed by `_claims`: one run of a check yields one result per claim, and
the claims of one run share its time.  SUITES maps each suite name to the
claims it runs; only the counts that `--scale` feeds and the seed are
parameters.  All randomness flows through an explicit seed, so runs are
reproducible, and every claim's description states the checked inequality
or identity.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from math import comb, factorial, isfinite

from .constructions import (
    cluster_split,
    degree_growth_bound,
    lower_bound_witness,
    pigeonhole_witness,
)
from .matrix import (
    Matrix01,
    PatternSet,
    SizeLimitError,
    avoids_all,
    contains,
    is_range_overlapping,
)
from .patterns import generate_T, pattern_L, pattern_P
from .search import (
    UNBOUNDED,
    avoiders,
    ex_columns,
    ex_weight,
    ex_weight_oracle,
)
from .visibility import (
    Bar,
    BarLayout,
    avoider_weight_bound,
    matrix_to_visibility,
    sweep_edges,
    sweep_edges_oracle,
    witness_is_exact,
)

DEFAULT_SEED = 20260809

# A scaled trial count may not exceed this: 100x the largest default count.
VERIFY_COUNT_LIMIT = 100_000

DIAMOND = generate_T(1, 0).patterns[0]


@dataclass
class ClaimResult:
    claim_id: str
    description: str
    params: dict
    passed: bool
    observed: dict
    runtime_s: float


def _claims(check, *specs) -> list[ClaimResult]:
    """Run check() once and time it.  It returns one (passed, observed) pair
    per (claim_id, description, params) spec, in spec order."""
    start = time.perf_counter()
    outcomes = check()
    elapsed = time.perf_counter() - start
    return [
        ClaimResult(*spec, passed, observed, elapsed)
        for spec, (passed, observed) in zip(specs, outcomes, strict=True)
    ]


def _verdict(failures: list, **counts) -> tuple[bool, dict]:
    """The (passed, observed) pair of a claim that holds when nothing failed."""
    return not failures, {**counts, "failures": failures}


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def random_matrix(rng: random.Random, rows: int, cols: int, density: float) -> Matrix01:
    bits = tuple(
        sum((rng.random() < density) << j for j in range(cols)) for _ in range(rows)
    )
    return Matrix01(rows, cols, bits)


def random_avoider(rng: random.Random, rows: int, cols: int, patterns: PatternSet) -> Matrix01:
    """Random matrix avoiding the patterns, by density-decreasing rejection."""
    density = 0.5
    for _ in range(60):
        cand = random_matrix(rng, rows, cols, density)
        if avoids_all(cand, patterns):
            return cand
        density = max(0.02, density * 0.8)
    return Matrix01.zeros(rows, cols)


def greedy_avoider(rng: random.Random, rows: int, cols: int, patterns: PatternSet) -> Matrix01:
    """Maximal avoider: ones added in random order while avoidance survives."""
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    rng.shuffle(cells)
    grid = [0] * rows
    for r, c in cells:
        grid[r] |= 1 << c
        if not avoids_all(Matrix01(rows, cols, tuple(grid)), patterns):
            grid[r] ^= 1 << c
    return Matrix01(rows, cols, tuple(grid))


def random_layout(rng: random.Random, n: int, s: int) -> BarLayout:
    ys = rng.sample(range(3 * n), n)
    coords = rng.sample(range(8 * n), 2 * n)
    rng.shuffle(coords)
    bars = []
    for i in range(n):
        a, b = coords[2 * i], coords[2 * i + 1]
        if a > b:
            a, b = b, a
        bars.append(Bar(ys[i], a, b))
    return BarLayout(tuple(bars), s)


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


def claim_pigeonhole() -> list[ClaimResult]:
    """ex_k(m, all-ones k x c) equals (c-1) * C(m, k), exactly, and the
    repeated-subsets witness has that many columns and avoids the block."""
    m_max, k_max, cs = 6, 3, (2, 3)

    def check():
        failures = []
        witness_failures = []
        cases = 0
        for m in range(1, m_max + 1):
            for k in range(1, min(k_max, m) + 1):
                for c in cs:
                    cases += 1
                    expected = (c - 1) * comb(m, k)
                    res = ex_columns(m, k, PatternSet.of(pattern_P(k, c)))
                    ok = (
                        res.exact
                        and res.value == expected
                        and res.witness.cols == res.value
                        and avoids_all(res.witness, PatternSet.of(pattern_P(k, c)))
                    )
                    if not ok:
                        failures.append((m, k, c, res.value, expected))
                    wit = pigeonhole_witness(m, k, c)
                    if wit.cols != expected or contains(wit, pattern_P(k, c)):
                        witness_failures.append((m, k, c))
        return [_verdict(failures, cases=cases), _verdict(witness_failures)]

    params = {"m_max": m_max, "k_max": k_max, "cs": list(cs)}
    return _claims(
        check,
        ("columns-exact-formula",
         "exact column extremal value of the all-ones k x c pattern is (c-1)*C(m,k)",
         params),
        ("pigeonhole-witness-valid",
         "every k-subset repeated c-1 times gives an avoiding matrix with (c-1)*C(m,k) columns",
         params),
    )


def claim_edge_bounds(trials: int = 1000, seed: int = DEFAULT_SEED) -> list[ClaimResult]:
    """Edge count <= (2s+3)n on random layouts; sweep agrees with the oracle."""
    n_max, oracle_n_max = 50, 12

    def check():
        rng = random.Random(seed)
        bound_failures = []
        agreement_failures = []
        oracle_checked = 0
        witness_failures = []
        for t in range(trials):
            n = rng.randint(2, n_max)
            s = rng.randint(0, 3)
            layout = random_layout(rng, n, s)
            edges = sweep_edges(layout)
            if len(edges) > (2 * s + 3) * n or len(edges) > comb(n, s + 2):
                bound_failures.append((t, n, s, len(edges)))
            for e in edges[:3]:
                if not witness_is_exact(layout, e.members, e.witnesses[0]):
                    witness_failures.append((t, e.members))
            if n <= oracle_n_max:
                oracle_checked += 1
                ref = sweep_edges_oracle(layout)
                got = {e.members: e.multiplicity for e in edges}
                want = {e.members: e.multiplicity for e in ref}
                if got != want:
                    agreement_failures.append((t, n, s))
        bound = {"bound_failures": bound_failures, "witness_failures": witness_failures}
        passed = not bound_failures and not witness_failures
        return [(passed, bound), _verdict(agreement_failures, oracle_checked=oracle_checked)]

    return _claims(
        check,
        ("edge-count-bound",
         "a layout with n bars has at most (2s+3)*n distinct visibility edges",
         {"trials": trials, "n_max": n_max, "seed": seed}),
        ("sweep-oracle-agreement",
         "sweep enumeration equals gap-by-gap subset testing (members and multiplicities)",
         {"trials": trials, "oracle_n_max": oracle_n_max, "seed": seed}),
    )


def claim_weight_column_inequality() -> list[ClaimResult]:
    """ex(m,n,P) <= k*(ex_k(m,P)+n) for the all-ones 2x2 block and the diamond.

    Each side is computed once, exactly.  The inequality needs P
    range-overlapping, so a pattern that is not counts as a failure."""
    mn_max, k_max = 4, 3

    def check():
        failures = []
        cases = 0
        for pat, name in ((pattern_P(2, 2), "P22"), (DIAMOND, "diamond")):
            single = PatternSet.of(pat)
            if not is_range_overlapping(pat):
                failures.append((name, "not range-overlapping"))
            for m in range(1, mn_max + 1):
                columns = [ex_columns(m, k, single).value for k in range(1, k_max + 1)]
                for n in range(1, mn_max + 1):
                    weight = ex_weight_oracle(m, n, single).value
                    for k, col in enumerate(columns, start=1):
                        cases += 1
                        if weight > k * (col + n):
                            failures.append((name, m, n, k))
        return [_verdict(failures, cases=cases)]

    return _claims(
        check,
        ("weight-column-inequality",
         "max weight of an m x n avoider is at most k*(column extremal value + n)",
         {"mn_max": mn_max, "k_max": k_max}),
    )


def claim_cluster_split(count: int = 1000, seed: int = DEFAULT_SEED) -> list[ClaimResult]:
    """Splitting preserves avoidance of range-overlapping patterns and loses
    at most (k-1) ones per original column."""
    size_max, ks = 10, (2, 3)

    def check():
        rng = random.Random(seed)
        preserve_failures = []
        accounting_failures = []
        for pat, name in ((pattern_P(2, 2), "P22"), (DIAMOND, "diamond")):
            pset = PatternSet.of(pat)
            for t in range(count):
                rows = rng.randint(1, size_max)
                cols = rng.randint(1, size_max)
                mat = random_avoider(rng, rows, cols, pset)
                for k in ks:
                    split = cluster_split(mat, k)
                    if split.cols and contains(split, pat):
                        preserve_failures.append((name, t, k))
                    if mat.weight > k * (split.cols + mat.cols):
                        accounting_failures.append((name, t, k))
                    if any(bits.bit_count() != k for bits in split.columns()):
                        accounting_failures.append((name, t, k, "column size"))
        return [_verdict(preserve_failures), _verdict(accounting_failures)]

    params = {"count": count, "size_max": size_max, "ks": list(ks), "seed": seed}
    return _claims(
        check,
        ("cluster-split-preserves",
         "cluster splitting keeps the matrix free of any range-overlapping pattern it avoided",
         params),
        ("cluster-split-weight-accounting",
         "weight(A) <= k * (cols(A') + cols(A)) and every split column has exactly k ones",
         params),
    )


def claim_t_family() -> list[ClaimResult]:
    """Family size ((s+1)!)^2 * r!, fixed dimensions and weight, no duplicates;
    every member for (r,s) = (3,1) contains L3."""
    r_max, s_max = 3, 1
    l3_family = generate_T(3, 1)

    def check():
        gen_failures = []
        for r in range(0, r_max + 1):
            for s in range(0, s_max + 1):
                mats = generate_T(r, s).patterns
                expected = factorial(s + 1) ** 2 * factorial(r)
                ok = (
                    len(mats) == expected
                    and len(set(mats)) == expected
                    and all((m.rows, m.cols) == (r + s + 2, r + 2 * s + 2) for m in mats)
                    and all(m.weight == 2 * r + 2 * s + 2 for m in mats)
                )
                if not ok:
                    gen_failures.append((r, s))
        diamond_fam = generate_T(1, 0)
        if len(diamond_fam) != 1 or diamond_fam.patterns[0] != Matrix01.from_ones(
            3, 3, ((0, 1), (1, 0), (1, 2), (2, 1))
        ):
            gen_failures.append(("diamond",))
        l3 = pattern_L(3)
        l3_failures = [idx for idx, member in enumerate(l3_family) if not contains(member, l3)]
        return [_verdict(gen_failures), _verdict(l3_failures)]

    return _claims(
        check,
        ("t-family-generation",
         "family for (r,s) has ((s+1)!)^2 * r! distinct members of fixed size and weight",
         {"r_max": r_max, "s_max": s_max}),
        ("t-members-contain-l3",
         "every member of the (3,1) family contains the pattern L3",
         {"members": len(l3_family)}),
    )


def claim_kvis(
    random_trials: int = 40, seed: int = DEFAULT_SEED, exhaustive_n=(3, 4)
) -> list[ClaimResult]:
    """Multiplicity below r on avoider-derived hypergraphs, plus the weight bound.

    The exhaustive part enumerates the n x n diamond avoiders with
    `avoiders`, so no containment search runs, and checks every one for no
    edge and weight at most the (1, 0) bound.  A failing host is named by
    its mask, whose bits r*n .. r*n+n-1 are row r; the first five in mask
    order are reported.
    """

    def check_exhaustive():
        no_edge_failures = []
        checked_exhaustive = 0
        for n in exhaustive_n:
            bound = avoider_weight_bound(n, 1, 0)
            masks = []
            for rows in avoiders(n, n, PatternSet.of(DIAMOND)):
                checked_exhaustive += 1
                host = Matrix01(n, n, rows)
                _, edges = matrix_to_visibility(host, 1, 0)
                if edges or host.weight > bound:
                    masks.append(sum(bits << r * n for r, bits in enumerate(rows)))
            no_edge_failures += [(n, mask) for mask in sorted(masks)]
        return [_verdict(no_edge_failures[:5], checked=checked_exhaustive)]

    def check_random():
        rng = random.Random(seed)
        mult_failures = []
        weight_failures = []
        random_checked = 0
        for r, s in ((2, 0), (1, 1), (3, 1)):
            fam = generate_T(r, s)
            for t in range(random_trials):
                n = rng.choice((6, 9, 12))
                if rng.random() < 0.3 and n <= 9:
                    mat = greedy_avoider(rng, n, n, fam)
                else:
                    mat = random_avoider(rng, n, n, fam)
                random_checked += 1
                _, edges = matrix_to_visibility(mat, r, s)
                if any(e.multiplicity > r - 1 for e in edges):
                    mult_failures.append((r, s, t))
                if mat.weight > avoider_weight_bound(n, r, s):
                    weight_failures.append((r, s, t))
        return [
            _verdict(mult_failures, checked=random_checked),
            _verdict(weight_failures, checked=random_checked),
        ]

    no_edges = _claims(
        check_exhaustive,
        ("visibility-no-edges-r1s0",
         "a diamond-avoiding matrix yields a hypergraph with no witnessed edge and weight <= 4n",
         {"exhaustive_n": list(exhaustive_n)}),
    )
    params = {"random_trials": random_trials, "seed": seed}
    return no_edges + _claims(
        check_random,
        ("visibility-multiplicity-bound",
         "avoiding the (r,s) family caps every edge's witness-column multiplicity at r-1",
         params),
        ("avoider-weight-bound",
         "weight of an n x n (r,s)-family avoider is at most (3s+3+r)n + (r-1)(2s+3)(n-r)",
         params),
    )


def claim_induction() -> list[ClaimResult]:
    """Induction witnesses stay valid and the base degree obeys r*(m-r)."""
    m_max, k_max, r = 5, 4, 2

    def check():
        witness_failures = []
        base_failures = []
        p_r2 = pattern_P(r, 2)
        for m in range(r, m_max + 1):
            rungs = lower_bound_witness(m, r, k_max)
            deltas = [max(map(len, adj), default=0) for _, adj, _ in rungs]
            _, adj, colors = rungs[0]
            if deltas[0] > r * (m - r):
                base_failures.append((m, deltas[0]))
            if any(colors[a] == colors[b] for a, nbrs in enumerate(adj) for b in nbrs):
                base_failures.append((m, "improper"))
            if colors and max(colors) + 1 > deltas[0] + 1:
                base_failures.append((m, "too many colors"))
            for k, (wit, _, _) in enumerate(rungs, start=r):
                ok = (
                    wit.cols == comb(m, r)
                    and all(bits.bit_count() == k for bits in wit.columns())
                    and not contains(wit, p_r2)
                )
                if not ok:
                    witness_failures.append((m, k))
            for k, ((before, _, _), delta, next_delta) in enumerate(zip(rungs, deltas, deltas[1:]), start=r):
                if not degree_growth_bound(before, delta, next_delta, r):
                    witness_failures.append((m, k, "degree growth"))
        return [_verdict(witness_failures), _verdict(base_failures)]

    return _claims(
        check,
        ("induction-witness-valid",
         "the grown witness has C(m,r) columns, k ones per column and avoids the all-ones r x 2 block",
         {"m_max": m_max, "k_max": k_max, "r": r}),
        ("induction-base-degree-bound",
         "base column graph degree is at most r*(m-r); greedy coloring is proper with <= degree+1 colors",
         {"m_max": m_max, "r": r}),
    )


def claim_boundary_and_monotone() -> list[ClaimResult]:
    """Boundary semantics of ex_columns and the weight floor ex(n,n,{M}) >= n."""
    n_max = 5
    named = [
        pattern_P(1, 2),
        pattern_P(2, 1),
        pattern_P(2, 2),
        DIAMOND,
        Matrix01(2, 2, (0b01, 0b10)),
        Matrix01(2, 2, (0b10, 0b01)),
        pattern_L(1),
        pattern_L(2),
        pattern_L(3),
        generate_T(0, 0).patterns[0],
    ]

    def check_boundary():
        boundary_failures = []
        p22 = PatternSet.of(pattern_P(2, 2))
        for m in range(1, 5):
            res = ex_columns(m, m + 1, p22)
            if res.value != 0 or not res.exact:
                boundary_failures.append(("k>m", m))
        if ex_columns(5, 1, p22).value != UNBOUNDED:
            boundary_failures.append(("unbounded",))
        for m in range(2, 7):
            for k in (2, 3):
                if k > m:
                    continue
                for c in (2, 3):
                    pk = PatternSet.of(pattern_P(k, c))
                    if ex_columns(m, k, pk).value > (c - 1) * comb(m, k):
                        boundary_failures.append(("cap", m, k, c))
        values = [ex_columns(4, k, p22).value for k in range(1, 6)]
        diamond = [ex_columns(4, k, PatternSet.of(DIAMOND)).value for k in range(1, 5)]
        if any(a < b for seq in (values, diamond) for a, b in zip(seq, seq[1:])):
            boundary_failures.append(("monotone",))
        if values[-1] != 0:
            boundary_failures.append(("k>m tail",))
        observed = {"failures": boundary_failures, "monotone_values": values}
        return [(not boundary_failures, observed)]

    def check_floor():
        floor_failures = []
        for n in range(2, n_max + 1):
            for idx, pat in enumerate(named):
                res = ex_weight(n, n, PatternSet.of(pat), budget=40000)
                if res.value < n:
                    floor_failures.append((n, idx))
                if not avoids_all(res.witness, PatternSet.of(pat)):
                    floor_failures.append((n, idx, "witness"))
                if res.witness.weight != res.value:
                    floor_failures.append((n, idx, "weight"))
        return [_verdict(floor_failures)]

    return _claims(
        check_boundary,
        ("columns-boundary-cases",
         "k > m gives 0, low k gives unbounded, values never exceed the pigeonhole cap, "
         "values never increase with k",
         {}),
    ) + _claims(
        check_floor,
        ("weight-at-least-n",
         "max weight of an n x n avoider of a single pattern with >= 2 ones is at least n",
         {"n_max": n_max, "patterns": len(named)}),
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _scaled(base: int, scale: float) -> int:
    count = base * scale
    if not isfinite(count):
        raise ValueError(f"scale {scale} makes a count of {base} non-finite")
    if count > VERIFY_COUNT_LIMIT:
        raise SizeLimitError(f"scale {scale} makes a count of {base} exceed {VERIFY_COUNT_LIMIT}")
    return max(1, int(round(count)))


# Suite name -> its claims at a (scale, seed); a suite's counts are scaled in
# the order its claims run, so an oversized scale fails at the same claim.
SUITES = {
    "pigeonhole": lambda scale, seed: claim_pigeonhole(),
    "edges": lambda scale, seed: claim_edge_bounds(_scaled(1000, scale), seed),
    "rangeo": lambda scale, seed: (
        claim_weight_column_inequality() + claim_cluster_split(_scaled(1000, scale), seed)
    ),
    "kvis": lambda scale, seed: claim_t_family() + claim_kvis(
        _scaled(40, scale), seed, (3, 4) if scale >= 0.5 else (3,)
    ),
    "induction": lambda scale, seed: claim_induction(),
    "monotone": lambda scale, seed: claim_boundary_and_monotone(),
}

SUITE_NAMES = tuple(SUITES)


def run_suites(names, scale: float = 1.0, seed: int = DEFAULT_SEED) -> list[ClaimResult]:
    if not isfinite(scale) or scale <= 0:
        raise ValueError(f"scale must be finite and positive, got {scale}")
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        results.extend(SUITES[name](scale, seed))
    results.sort(key=lambda r: r.claim_id)
    return results
