"""Acceptance gate: one test per criterion, at full stated scale.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output of a failing run) and asserts with zero tolerance: every
value compared here is an integer identity or inequality.
"""

import random
import time
from math import comb, inf

from exmat import (
    UNBOUNDED,
    Matrix01,
    PatternSet,
    avoids_all,
    contains,
    contains_oracle,
    ex_columns,
    pattern_P,
)
from exmat.patterns import TrsParams, generate_T
from exmat.verify import (
    DEFAULT_SEED,
    claim_boundary_and_monotone,
    claim_cluster_split,
    claim_containment_agreement,
    claim_edge_bounds,
    claim_induction,
    claim_kvis,
    claim_pigeonhole,
    claim_t_family,
    claim_weight_column_inequality,
    random_matrix,
)


def report(criterion: str, passed: bool, detail: str, started: float):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail} ({time.perf_counter() - started:.1f}s)"
    print(line)
    assert passed, line


def test_criterion_1_exact_column_formula():
    start = time.perf_counter()
    res, wit = claim_pigeonhole()
    report(
        "1 exact column formula (c-1)*C(m,k)",
        res.passed and wit.passed,
        f"{res.observed['cases']} cases, failures={res.observed['failures']}",
        start,
    )


def test_criterion_2_edge_bound_and_oracle():
    start = time.perf_counter()
    bound, agree = claim_edge_bounds()
    report(
        "2 edge bound (2s+3)n and sweep/oracle equality",
        bound.passed and agree.passed,
        f"1000 layouts, {agree.observed['oracle_checked']} oracle-checked",
        start,
    )


def test_criterion_3_containment_oracle_equivalence():
    start = time.perf_counter()
    [res] = claim_containment_agreement()
    report(
        "3 containment equals oracle",
        res.passed,
        f"{res.observed['pairs']} random pairs + {res.observed['exhaustive']} exhaustive, "
        f"mismatches={res.observed['mismatches']}",
        start,
    )


def test_criterion_4_weight_column_inequality():
    start = time.perf_counter()
    [res] = claim_weight_column_inequality()
    assert res.observed == {"cases": 96, "failures": []}
    report(
        "4 ex(m,n,P) <= k*(ex_k(m,P)+n)",
        res.passed,
        f"{res.observed['cases']} cases, failures={res.observed['failures']}",
        start,
    )


def test_criterion_5_cluster_split_preservation():
    start = time.perf_counter()
    preserve, accounting = claim_cluster_split()
    report(
        "5 cluster split preserves avoidance and weight accounting",
        preserve.passed and accounting.passed,
        f"1000 avoiders per pattern, k in (2,3)",
        start,
    )


def test_criterion_6_t_family():
    start = time.perf_counter()
    gen, l3 = claim_t_family()
    report(
        "6 T family counts, diamond, and L3 containment",
        gen.passed and l3.passed,
        f"counts up to r=3,s=1; {l3.params['members']} members checked for L3",
        start,
    )


def test_criterion_7_kvis_multiplicity_and_weight():
    start = time.perf_counter()
    no_edges, mult, weight = claim_kvis()
    assert no_edges.observed == {"checked": 39264, "failures": []}
    report(
        "7 multiplicity < r and (3s+3+r)n+(r-1)(2s+3)(n-r) weight bound",
        no_edges.passed and mult.passed and weight.passed,
        f"{no_edges.observed['checked']} exhaustive avoiders at n=3,4; "
        f"{mult.observed['checked']} random avoiders",
        start,
    )


def test_criterion_8_induction_construction():
    start = time.perf_counter()
    wit, base = claim_induction()
    report(
        "8 induction witness C(m,2) cols, k per col, degree bounds",
        wit.passed and base.passed,
        "m <= 5, k <= 4",
        start,
    )


def test_criterion_9_boundary_semantics():
    start = time.perf_counter()
    boundary, floor = claim_boundary_and_monotone()
    assert boundary.observed["monotone_values"] == [inf, 6, 1, 1, 0]
    report(
        "9 boundary semantics and weight floor n",
        boundary.passed and floor.passed,
        f"monotone values {boundary.observed['monotone_values']}; "
        f"{floor.params['patterns']} patterns x n<=5",
        start,
    )


def test_unbounded_and_cap_spot_checks():
    # direct spot checks besides the aggregated criterion 9
    p22 = PatternSet.of(pattern_P(2, 2))
    assert ex_columns(5, 1, p22).value == UNBOUNDED
    assert ex_columns(2, 3, p22).value == 0
    res = ex_columns(4, 2, p22)
    assert res.value <= comb(4, 2)


def test_random_pair_sample_is_well_formed():
    # the criterion-3 distribution really exercises the full size ranges
    rng = random.Random(DEFAULT_SEED)
    sizes = set()
    for _ in range(300):
        hm, hn = rng.randint(1, 8), rng.randint(1, 8)
        pm, pn = rng.randint(1, 3), rng.randint(1, 4)
        sizes.add((hm, hn, pm, pn))
        host = random_matrix(rng, hm, hn, rng.uniform(0.1, 0.9))
        pat = random_matrix(rng, pm, pn, rng.uniform(0.2, 0.9))
        assert contains(host, pat) == contains_oracle(host, pat)
    assert len(sizes) > 100
