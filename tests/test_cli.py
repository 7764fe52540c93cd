import argparse
import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exmat import (
    Matrix01,
    SizeLimitError,
    avoids_all,
    contains_oracle,
    parse_matrix,
    parse_pattern_set,
)
import exmat.search as search_module
from exmat.cli import COMPUTE, GENERATE, TRANSFORM, build_parser, main
from exmat.patterns import T_FAMILY_LIMIT
from exmat.verify import VERIFY_COUNT_LIMIT, _scaled, run_suites

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_refused(capsys, *argv):
    """Run argv, which the argument parser refuses; return the exit code
    and stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err


@pytest.fixture
def p22_file(tmp_path):
    path = tmp_path / "p22.txt"
    path.write_text("11\n11\n")
    return str(path)


def avoids_two_row_block(witness, c):
    """Closed form: a matrix avoids the all-ones 2 x c block iff no two rows
    share c ones."""
    return all((a & b).bit_count() < c for a, b in combinations(witness.row_bits, 2))


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.txt"
    path.write_text("010\n101\n010\n")
    return str(path)


# Outputs of the coloring induction recorded before it was rebuilt on plain
# matrices.  A rung is (ones_per_column, rows, delta, colors_used).
RUNG_KEYS = ("ones_per_column", "rows", "delta", "colors_used")

# `generate lowerP --format json`: (m, r, k) -> (witness, rungs).
LOWER_P_JSON = {
    (4, 2, 3): (
        "111000\n100110\n010101\n001011\n100001\n010010\n001100\n000000\n000000",
        [(2, 4, 4, 3), (3, 9, 5, 6)],
    ),
    (5, 2, 4): (
        "1111000000\n1000111000\n0100100110\n0010010101\n0001001011\n1000000100\n"
        "0100010000\n0010100000\n0001000000\n0000001000\n0000000010\n0000000001\n"
        "1000000010\n0100001000\n0010000000\n0001100000\n0000010000\n0000000100\n"
        "0000000001\n0000000000",
        [(2, 5, 6, 7), (3, 12, 7, 7), (4, 20, 8, 7)],
    ),
}

# `transform induction-step --format json`: (input, r) -> (result, before, after).
INDUCTION_STEP_JSON = {
    ("110\n101\n011\n", 2): ("110\n101\n011\n100\n010\n001", (2, 3, 2, 3), (3, 6, 2, 3)),
    ("110\n101\n011\n", 3): ("110\n101\n011\n111", (2, 3, 0, 1), (3, 4, 2, 3)),
    ("1100\n1010\n0101\n0011\n0000\n", 2): (
        "1100\n1010\n0101\n0011\n0000\n1001\n0110\n0000", (2, 5, 2, 2), (3, 8, 3, 4),
    ),
    ("1100\n1010\n0101\n0011\n0000\n", 3): (
        "1100\n1010\n0101\n0011\n0000\n1111", (2, 5, 0, 1), (3, 6, 2, 2),
    ),
}


# `generate` family -> a small answered argument list; its flags are exactly
# the ones the family reads.
GENERATE_ARGS = {
    "L": ["--i", "1"],
    "P": ["--r", "2", "--c", "2"],
    "T": ["--r", "1", "--s", "0"],
    "Kprime": ["--m", "4", "--k", "2"],
    "pigeonhole": ["--m", "4", "--k", "2", "--c", "2"],
    "lowerP": ["--m", "4", "--r", "2", "--k", "3"],
}


class TestGenerate:
    def test_diamond(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "T", "--r", "1", "--s", "0")
        assert code == 0
        assert out.strip() == "010\n101\n010"

    @pytest.mark.parametrize("r,s", [(1_000_000, 0), (0, 200_000)])
    def test_huge_T_family_is_refused_at_once(self, capsys, r, s):
        # the member count grows one factor at a time and stops past the
        # limit, so no huge factorial is built or printed
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "generate", "T", "--r", str(r), "--s", str(s))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert f"over {T_FAMILY_LIMIT} members" in err and "limit" in err

    def test_all_ones_block(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "P", "--r", "2", "--c", "2")
        assert code == 0
        assert out.strip() == "11\n11"

    def test_k_prime(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "Kprime", "--m", "4", "--k", "2")
        assert code == 0
        assert out.strip() == "01\n01\n10\n10"

    def test_family_file_parses_back(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "T", "--r", "2", "--s", "1")
        assert code == 0
        assert len(parse_pattern_set(out)) == 8

    def test_lower_bound_trace(self, capsys):
        for (m, r, k), (witness, trace) in LOWER_P_JSON.items():
            code, out, _ = run_cli(
                capsys, "generate", "lowerP", "--m", str(m), "--r", str(r), "--k", str(k),
                "--format", "json",
            )
            assert code == 0
            doc = {
                "schema": "1",
                "witness": witness,
                "columns": comb(m, r),
                "rows": trace[-1][1],
                "trace": [dict(zip(RUNG_KEYS, rung)) for rung in trace],
            }
            assert out == json.dumps(doc, indent=2) + "\n"

    def test_missing_param_is_input_error(self, capsys):
        code, err = run_refused(capsys, "generate", "P", "--r", "2")
        assert code == 2
        assert "the following arguments are required: --c" in err

    @pytest.mark.parametrize("family", GENERATE_ARGS)
    def test_each_family_reads_exactly_its_flags(self, capsys, family):
        args = GENERATE_ARGS[family]
        code, out, _ = run_cli(capsys, "generate", family, *args)
        assert code == 0 and out
        flags = args[::2]
        pairs = list(zip(flags, args[1::2]))
        for i, (drop, _) in enumerate(pairs):
            kept = [a for pair in pairs[:i] + pairs[i + 1:] for a in pair]
            code, err = run_refused(capsys, "generate", family, *kept)
            assert code == 2 and f"the following arguments are required: {drop}" in err
        extra = {"--i", "--r", "--s", "--c", "--m", "--k"} - set(flags)
        for flag in sorted(extra):
            code, err = run_refused(capsys, "generate", family, *args, flag, "2")
            assert code == 2 and f"unrecognized arguments: {flag} 2" in err
        if family != "lowerP":
            code, err = run_refused(capsys, "generate", family, *args, "--format", "json")
            assert code == 2 and "unrecognized arguments: --format json" in err

    def test_negative_T_parameter_message(self, capsys):
        code, out, err = run_cli(capsys, "generate", "T", "--r", "-1", "--s", "0")
        assert code == 2 and out == ""
        assert err == "error: r and s must be nonnegative\n"

    @pytest.mark.parametrize("argv", [
        ["T", "--r", "6", "--s", "2"],
        ["pigeonhole", "--m", "40", "--k", "20", "--c", "2"],
    ])
    def test_oversized_family_is_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "generate", *argv)
        assert code == 2
        assert out == "" and "limit" in err


class TestCompute:
    def test_columns_closed_form_instance(self, capsys, p22_file):
        code, out, _ = run_cli(
            capsys, "compute", "columns", "--m", "3", "--k", "2", "--pattern", p22_file
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "1"
        assert doc["value"] == 3 and doc["exact"] is True
        witness = parse_matrix(doc["witness"])
        assert witness.cols == 3
        assert avoids_all(witness, parse_pattern_set(open(p22_file).read()))

    def test_weight_small_pattern_does_not_fit(self, capsys, tmp_path):
        l1 = tmp_path / "l1.txt"
        l1.write_text("0110\n1001\n0100\n")
        code, out, _ = run_cli(
            capsys, "compute", "weight", "--m", "2", "--n", "2", "--pattern", str(l1)
        )
        assert code == 0
        assert json.loads(out)["value"] == 4

    def test_unbounded_columns(self, capsys, p22_file):
        code, out, _ = run_cli(
            capsys, "compute", "columns", "--m", "5", "--k", "1", "--pattern", p22_file
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "unbounded"
        assert doc["witness"] is None

    def test_zero_when_k_exceeds_m(self, capsys, p22_file):
        code, out, _ = run_cli(
            capsys, "compute", "columns", "--m", "2", "--k", "3", "--pattern", p22_file
        )
        assert code == 0
        assert json.loads(out)["value"] == 0

    def test_weight_witness_round_trip(self, capsys, diamond_file):
        code, out, _ = run_cli(
            capsys, "compute", "weight", "--m", "3", "--n", "3", "--pattern", diamond_file
        )
        assert code == 0
        doc = json.loads(out)
        witness = parse_matrix(doc["witness"])
        assert witness.weight == doc["value"]
        assert avoids_all(witness, parse_pattern_set(open(diamond_file).read()))

    def test_no_avoiding_band_host_answers_zero(self, capsys, tmp_path):
        # 1/0 and 0/1 together: every one has a row above or below it, so no
        # band host avoids them and the band-host cap is 0 columns
        odd = tmp_path / "odd.txt"
        odd.write_text("1\n0\n\n0\n1\n")
        code, out, err = run_cli(
            capsys, "compute", "columns", "--m", "3", "--k", "1", "--pattern", str(odd)
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["value"] == 0 and doc["exact"] is True

    def test_band_between_tall_patterns_is_answered(self, capsys, tmp_path):
        # the top and bottom band hosts of 363 rows hold a one with 199 rows
        # below it or one with 199 rows above it; ones on rows 170 and 180
        # avoid both
        path = tmp_path / "far.txt"
        path.write_text("1\n" + "0\n" * 199 + "\n" + "0\n" * 199 + "1\n")
        code, out, err = run_cli(
            capsys, "compute", "columns", "--m", "363", "--k", "2", "--pattern", str(path)
        )
        assert code == 0 and err == ""
        assert json.loads(out)["value"] == "unbounded"

    def test_band_test_cut_short_of_k_is_input_error(self, capsys, tmp_path, monkeypatch):
        # the same query, with the band test's walk stopped in the rows
        # where no one fits
        monkeypatch.setattr(search_module, "MEMO_LIMIT", 100)
        path = tmp_path / "far.txt"
        path.write_text("1\n" + "0\n" * 199 + "\n" + "0\n" * 199 + "1\n")
        code, out, err = run_cli(
            capsys, "compute", "columns", "--m", "363", "--k", "2", "--pattern", str(path)
        )
        assert code == 2 and out == ""
        assert "band" in err

    def test_zero_pattern_rows_stay_within_budget(self, capsys, tmp_path):
        # 14 zero rows above a one: the weight seeds, which the band test
        # runs too, are containment searches that once retried every zero
        # row on every later host row and ran past a minute, whatever the
        # budget
        path = tmp_path / "tall.txt"
        path.write_text("0\n" * 14 + "1\n")
        code, out, _ = run_cli(
            capsys, "compute", "weight", "--m", "30", "--n", "1",
            "--pattern", str(path), "--budget", "10",
        )
        assert code == 3 and json.loads(out)["exact"] is False
        code, out, _ = run_cli(
            capsys, "compute", "columns", "--m", "30", "--k", "2",
            "--pattern", str(path), "--budget", "10",
        )
        assert code == 0 and json.loads(out)["value"] == "unbounded"

    def test_unbounded_through_a_split_band(self, capsys, tmp_path):
        # ones on rows 1 and 4 of any number of columns avoid 0/1/0
        path = tmp_path / "pat.txt"
        path.write_text("0\n1\n0\n")
        code, out, _ = run_cli(
            capsys, "compute", "columns", "--m", "4", "--k", "2", "--pattern", str(path)
        )
        assert code == 0
        assert json.loads(out)["value"] == "unbounded"

    @pytest.mark.parametrize(
        "text", ["0\n1\n", "1\n0\n", "0\n0\n0\n0\n"], ids=["0/1", "1/0", "zero-4x1"]
    )
    def test_unbounded_through_zero_pattern_rows(self, capsys, tmp_path, text):
        # ones in the top row only, or in the bottom row only, of any number
        # of columns avoid each of these patterns
        path = tmp_path / "pat.txt"
        path.write_text(text)
        pat = parse_matrix(text)
        assert not all(contains_oracle(Matrix01(3, 1, bits), pat) for bits in ((1, 0, 0), (0, 0, 1)))
        code, out, _ = run_cli(
            capsys, "compute", "columns", "--m", "3", "--k", "1", "--pattern", str(path)
        )
        assert code == 0
        assert json.loads(out)["value"] == "unbounded"

    def test_budget_exhaustion_exit_code(self, capsys, diamond_file):
        code, out, _ = run_cli(
            capsys, "compute", "weight", "--m", "5", "--n", "5",
            "--pattern", diamond_file, "--budget", "50",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["exact"] is False
        assert doc["value"] >= 5

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("01\n012\n")
        code, _, err = run_cli(
            capsys, "compute", "weight", "--m", "2", "--n", "2", "--pattern", str(bad)
        )
        assert code == 2

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run_cli(
            capsys, "compute", "weight", "--m", "2", "--n", "2",
            "--pattern", "/nonexistent/x.txt",
        )
        assert code == 2

    def test_csv_sweep(self, capsys, p22_file):
        code, out, _ = run_cli(
            capsys, "compute", "columns", "--m", "4", "--k", "2",
            "--pattern", p22_file, "--sweep", "k:2:5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,value,exact,nodes_explored"
        values = [ln.split(",")[1] for ln in lines[1:]]
        assert values == ["6", "1", "1", "0"]

    def test_csv_needs_a_sweep(self, capsys, p22_file):
        code, out, err = run_cli(
            capsys, "compute", "columns", "--m", "3", "--k", "2",
            "--pattern", p22_file, "--format", "csv",
        )
        assert code == 2 and out == ""
        assert "--sweep" in err

    def test_bad_sweep_spec(self, capsys, p22_file):
        code, _, _ = run_cli(
            capsys, "compute", "columns", "--m", "4", "--k", "2",
            "--pattern", p22_file, "--sweep", "q:1:2",
        )
        assert code == 2

    def test_reversed_sweep_range_is_input_error(self, capsys, p22_file):
        # an empty range used to print no results and exit 0
        code, out, err = run_cli(
            capsys, "compute", "weight", "--n", "3", "--pattern", p22_file,
            "--sweep", "m:5:3",
        )
        assert code == 2
        assert out == "" and "LO <= HI" in err

    def test_sweep_holds_at_most_the_point_limit(self, capsys, p22_file):
        argv = ("compute", "columns", "--m", "3", "--k", "2", "--pattern", p22_file,
                "--format", "csv", "--sweep")
        code, out, err = run_cli(capsys, *argv, "k:1:1025")
        assert code == 2
        assert out == "" and "1025 points, more than the limit 1024" in err
        code, out, _ = run_cli(capsys, *argv, "k:1:1024")
        assert code == 0
        assert len(out.splitlines()) == 1 + 1024

    @pytest.mark.parametrize(
        "kind,fixed,ignored", [("columns", ("--k", "2"), "n"), ("weight", ("--n", "3"), "k")]
    )
    def test_sweep_of_an_ignored_variable_is_input_error(
        self, capsys, p22_file, kind, fixed, ignored
    ):
        code, out, err = run_cli(
            capsys, "compute", kind, "--m", "3", *fixed, "--pattern", p22_file,
            "--sweep", f"{ignored}:1:3", "--format", "csv",
        )
        assert code == 2
        assert out == "" and f"ignore {ignored}" in err

    @pytest.mark.parametrize(
        "kind,sizes,unread",
        [("weight", ("--m", "3", "--n", "3"), "--k"), ("columns", ("--m", "3", "--k", "2"), "--n")],
    )
    def test_unread_size_flag_is_refused(self, capsys, p22_file, kind, sizes, unread):
        code, err = run_refused(capsys, "compute", kind, *sizes, "--pattern", p22_file, unread, "9")
        assert code == 2 and f"unrecognized arguments: {unread} 9" in err

    def test_negative_budget_is_input_error(self, capsys, p22_file):
        code, out, err = run_cli(
            capsys, "compute", "columns", "--m", "3", "--k", "2",
            "--pattern", p22_file, "--budget", "-5",
        )
        assert code == 2
        assert out == "" and "--budget" in err

    def test_zero_budget_means_no_budget(self, capsys, p22_file):
        code, out, _ = run_cli(
            capsys, "compute", "weight", "--m", "4", "--n", "4",
            "--pattern", p22_file, "--budget", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["value"], doc["exact"], doc["nodes_explored"]) == (9, True, 1867)

    def test_deep_weight_search_is_budget_cut(self, capsys, p22_file):
        # 1,601 levels deep: crashed with RecursionError before the searches
        # used an explicit stack
        code, out, _ = run_cli(
            capsys, "compute", "weight", "--m", "40", "--n", "40",
            "--pattern", p22_file, "--budget", "5000",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["exact"] is False and doc["nodes_explored"] == 5001
        witness = parse_matrix(doc["witness"])
        assert (witness.rows, witness.cols) == (40, 40)
        assert witness.weight == doc["value"] <= 270  # Reiman bound z(40;2)
        assert avoids_two_row_block(witness, 2)

    def test_deep_pattern_is_budget_cut(self, capsys, tmp_path):
        # a 1,200-row pattern raised RecursionError while containment
        # recursed once per pattern row
        tall = tmp_path / "tall.txt"
        tall.write_text("1\n" * 1200)
        code, out, _ = run_cli(
            capsys, "compute", "weight", "--m", "1200", "--n", "1",
            "--pattern", str(tall), "--budget", "2",
        )
        assert code == 3
        doc = json.loads(out)
        witness = parse_matrix(doc["witness"])
        assert (witness.rows, witness.cols) == (1200, 1)
        assert witness.weight == doc["value"] == 1
        assert avoids_all(witness, parse_pattern_set(tall.read_text()))

    def test_deep_column_search_is_budget_cut(self, capsys, tmp_path):
        # the greedy path reaches the 39 * C(8, 2) = 1,092 columns that end
        # the search; a budget of 1,000 cuts it 1,000 columns deep
        wide = tmp_path / "p2x40.txt"
        wide.write_text("1" * 40 + "\n" + "1" * 40 + "\n")
        code, out, _ = run_cli(
            capsys, "compute", "columns", "--m", "8", "--k", "2",
            "--pattern", str(wide), "--budget", "1000",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["exact"] is False and doc["nodes_explored"] == 1001
        witness = parse_matrix(doc["witness"])
        assert witness.rows == 8 and witness.cols == doc["value"] <= 39 * 28
        assert all(bits.bit_count() >= 2 for bits in witness.columns())
        assert avoids_two_row_block(witness, 40)

    def test_widest_admitted_block_at_m12_is_answered(self, capsys, tmp_path):
        # 66 candidates x 3851 x 66 table bits fit; the 2x3852 block is refused
        wide = tmp_path / "p2x3851.txt"
        wide.write_text(("1" * 3851 + "\n") * 2)
        code, out, _ = run_cli(
            capsys, "compute", "columns", "--m", "12", "--k", "2",
            "--pattern", str(wide), "--budget", "10",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["exact"] is False and doc["nodes_explored"] == 11
        witness = parse_matrix(doc["witness"])
        assert witness.rows == 12 and witness.cols == doc["value"] >= 1
        assert avoids_two_row_block(witness, 3851)

    def test_block_of_63_columns_at_m12_meets_its_cap(self, capsys, tmp_path):
        # each pair of rows shares at most 62 columns, so 62 * C(12, 2)
        wide = tmp_path / "p2x63.txt"
        wide.write_text(("1" * 63 + "\n") * 2)
        code, out, _ = run_cli(
            capsys, "compute", "columns", "--m", "12", "--k", "2", "--pattern", str(wide),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is True and doc["value"] == 62 * 66 == 4092
        witness = parse_matrix(doc["witness"])
        assert witness.rows == 12 and witness.cols == 4092
        assert all(bits.bit_count() == 2 for bits in witness.columns())
        assert avoids_two_row_block(witness, 63)

    def test_oversized_column_query_is_input_error(self, capsys, p22_file):
        # C(400, 2) = 79,800 candidate columns
        code, out, err = run_cli(
            capsys, "compute", "columns", "--m", "400", "--k", "2", "--pattern", p22_file
        )
        assert code == 2
        assert out == "" and "limit" in err


@st.composite
def pattern_text(draw):
    """A pattern file of at most 3x3, all-zero patterns included."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return "".join(draw(st.text("01", min_size=cols, max_size=cols)) + "\n" for _ in range(rows))


@st.composite
def compute_argv(draw):
    """Small `compute` argument lists; pattern texts come back separately."""
    kind = draw(st.sampled_from(["weight", "columns"]))
    budget = draw(st.integers(0, 50))
    # --budget 0 means no budget, so keep those queries small enough to finish
    top = 6 if budget else 3
    argv = ["compute", kind, "--budget", str(budget)]
    for flag in ("m", "n", "k"):
        value = draw(st.none() | st.integers(0, top))
        if value is not None:
            argv += [f"--{flag}", str(value)]
    if draw(st.booleans()):
        var = draw(st.sampled_from(["m", "n", "k", "q"]))
        lo, hi = draw(st.integers(-1, top)), draw(st.integers(-1, top))
        argv += ["--sweep", f"{var}:{lo}:{hi}"]
        argv += draw(st.sampled_from([[], ["--format", "csv"]]))
    patterns = draw(st.lists(pattern_text(), min_size=1, max_size=2))
    return argv, patterns


def test_compute_never_raises(tmp_path):
    @given(compute_argv())
    def check(case):
        argv, patterns = case
        for i, text in enumerate(patterns):
            path = tmp_path / f"pattern{i}.txt"
            path.write_text(text)
            argv = argv + ["--pattern", str(path)]
        # the parser refuses, with exit 2, exactly the size flag the kind does
        # not read; every other input reaches the command
        unread = {"weight": "--k", "columns": "--n"}[argv[1]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2 and out.getvalue() == ""
                assert f"unrecognized arguments: {unread} " in err.getvalue()
                return
        assert unread not in argv
        assert code in (0, 2, 3)
        if code == 3:
            # exit 3 means only a spent budget: a result with a cut row
            assert err.getvalue() == ""
            text = out.getvalue()
            if text.startswith("{"):
                doc = json.loads(text)
                assert any(not r["exact"] for r in doc.get("results", [doc]))
            else:
                assert "False" in [line.split(",")[2] for line in text.splitlines()[1:]]

    check()


# `verify all --scale 0.02` at the default seed: id -> (params, observed).
# Every value is deterministic; only runtime_s is left out.
RECORDED_CLAIMS_AT_SCALE_002 = {
    "avoider-weight-bound": (
        {"random_trials": 1, "seed": 20260809}, {"checked": 3, "failures": []}),
    "cluster-split-preserves": (
        {"count": 20, "size_max": 10, "ks": [2, 3], "seed": 20260809}, {"failures": []}),
    "cluster-split-weight-accounting": (
        {"count": 20, "size_max": 10, "ks": [2, 3], "seed": 20260809}, {"failures": []}),
    "columns-boundary-cases": (
        {}, {"failures": [], "monotone_values": [float("inf"), 6, 1, 1, 0]}),
    "columns-exact-formula": (
        {"m_max": 6, "k_max": 3, "cs": [2, 3]}, {"cases": 30, "failures": []}),
    "edge-count-bound": (
        {"trials": 20, "n_max": 50, "seed": 20260809},
        {"bound_failures": [], "witness_failures": []}),
    "induction-base-degree-bound": ({"m_max": 5, "r": 2}, {"failures": []}),
    "induction-witness-valid": ({"m_max": 5, "k_max": 4, "r": 2}, {"failures": []}),
    "pigeonhole-witness-valid": ({"m_max": 6, "k_max": 3, "cs": [2, 3]}, {"failures": []}),
    "sweep-oracle-agreement": (
        {"trials": 20, "oracle_n_max": 12, "seed": 20260809},
        {"oracle_checked": 5, "failures": []}),
    "t-family-generation": ({"r_max": 3, "s_max": 1}, {"failures": []}),
    "t-members-contain-l3": ({"members": 24}, {"failures": []}),
    "visibility-multiplicity-bound": (
        {"random_trials": 1, "seed": 20260809}, {"checked": 3, "failures": []}),
    "visibility-no-edges-r1s0": ({"exhaustive_n": [3]}, {"checked": 480, "failures": []}),
    "weight-at-least-n": ({"n_max": 5, "patterns": 10}, {"failures": []}),
    "weight-column-inequality": ({"mn_max": 4, "k_max": 3}, {"cases": 96, "failures": []}),
}


class TestVerify:
    def test_pigeonhole_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "pigeonhole")
        assert code == 0
        assert "columns-exact-formula" in out and "pass" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "induction", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "1"
        assert all(c["passed"] for c in doc["claims"])
        ids = [c["claim_id"] for c in doc["claims"]]
        assert len(ids) == len(set(ids))

    def test_scaled_edges_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "edges", "--scale", "0.05", "--seed", "3"
        )
        assert code == 0

    @pytest.mark.parametrize("scale", ["inf", "nan", "1e308"])
    def test_non_finite_scale_is_input_error(self, capsys, scale):
        code, _, err = run_cli(capsys, "verify", "edges", "--scale", scale)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("scale", ["0", "-3"])
    def test_non_positive_scale_is_input_error(self, capsys, scale):
        code, out, err = run_cli(capsys, "verify", "edges", "--scale", scale)
        assert code == 2
        assert out == "" and "positive" in err
        with pytest.raises(ValueError):
            run_suites(("pigeonhole",), scale=float(scale))

    def test_huge_scale_is_size_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "edges", "--scale", "1e300")
        assert code == 2
        assert str(VERIFY_COUNT_LIMIT) in err

    def test_scaled_count_is_bounded(self):
        assert _scaled(1000, 100) == VERIFY_COUNT_LIMIT
        with pytest.raises(SizeLimitError):
            _scaled(1000, 1e300)

    def test_all_suites_have_unique_documented_claims(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "all", "--scale", "0.02", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        ids = [c["claim_id"] for c in doc["claims"]]
        assert len(ids) == len(set(ids))
        assert all(c["description"] for c in doc["claims"])
        got = {c["claim_id"]: (c["params"], c["observed"]) for c in doc["claims"]}
        assert got == RECORDED_CLAIMS_AT_SCALE_002

    def test_sweep_does_not_require_the_swept_flag(self, capsys, p22_file):
        code, out, _ = run_cli(
            capsys, "compute", "columns", "--m", "3",
            "--pattern", p22_file, "--sweep", "k:2:3", "--format", "csv",
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "2,3,True,4"


class TestRender:
    def test_layout_rendering_is_deterministic(self, capsys, tmp_path):
        lay = tmp_path / "bars.txt"
        lay.write_text("1 0 11\n2 1 10\n3 2 9\n")
        code1, out1, _ = run_cli(capsys, "render", str(lay), "--s", "0")
        code2, out2, _ = run_cli(capsys, "render", str(lay), "--s", "0")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("<svg")
        assert out1.count("<rect") == 3
        assert out1.count("<line") == 2

    def test_witnesses_can_be_disabled(self, capsys, tmp_path):
        lay = tmp_path / "bars.txt"
        lay.write_text("1 0 11\n2 1 10\n3 2 9\n")
        _, out, _ = run_cli(capsys, "render", str(lay), "--s", "0", "--no-witnesses")
        assert "<line" not in out

    def test_r_needs_from_matrix(self, capsys, tmp_path):
        lay = tmp_path / "bars.txt"
        lay.write_text("1 0 11\n2 1 10\n3 2 9\n")
        code, out, err = run_cli(capsys, "render", str(lay), "--s", "0", "--r", "5")
        assert code == 2 and out == ""
        assert err == "error: --r needs --from-matrix; a layout has no r\n"

    def test_matrix_input_runs_reduction(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("11111\n" * 5)
        code, out, _ = run_cli(
            capsys, "render", str(mat), "--from-matrix", "--r", "0", "--s", "0"
        )
        assert code == 0
        assert out.count("<rect") == 5
        assert out.count("<line") == 12

    @pytest.mark.parametrize(
        "x", ["1e400", "1e20000000", "1" + "0" * 400], ids=["exponent", "long-exponent", "400-digits"]
    )
    def test_coordinates_beyond_float_range_are_refused(self, capsys, tmp_path, x):
        # an exponent is not layout syntax; a 400-digit integer is, but the
        # span it gives does not fit the float SVG coordinates
        lay = tmp_path / "bars.txt"
        lay.write_text(f"1 0 {x}\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "render", str(lay), "--s", "0")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and "Traceback" not in err

    def test_duplicate_endpoints_rejected(self, capsys, tmp_path):
        lay = tmp_path / "bars.txt"
        lay.write_text("1 0 5\n2 5 9\n")
        code, _, err = run_cli(capsys, "render", str(lay), "--s", "0")
        assert code == 2


class TestTransform:
    def test_cluster_split(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("1\n1\n1\n1\n")
        code, out, _ = run_cli(
            capsys, "transform", "cluster-split", str(mat), "--k", "2"
        )
        assert code == 0
        assert out.strip() == "10\n10\n01\n01"

    def test_cluster_split_empty_result(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("1\n0\n0\n")
        code, out, _ = run_cli(
            capsys, "transform", "cluster-split", str(mat), "--k", "2"
        )
        assert code == 0
        assert json.loads(out)["empty"] is True

    def test_induction_step(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        for (text, r), (result, before, after) in INDUCTION_STEP_JSON.items():
            mat.write_text(text)
            code, out, _ = run_cli(
                capsys, "transform", "induction-step", str(mat), "--r", str(r),
                "--format", "json",
            )
            assert code == 0
            doc = {
                "schema": "1",
                "result": result,
                "before": dict(zip(RUNG_KEYS, before)),
                "after": dict(zip(RUNG_KEYS, after)),
            }
            assert out == json.dumps(doc, indent=2) + "\n"
            code, out, _ = run_cli(capsys, "transform", "induction-step", str(mat), "--r", str(r))
            assert code == 0 and out == result + "\n"

    def test_induction_step_rejects_uneven_columns(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("10\n10\n01\n")
        code, _, err = run_cli(
            capsys, "transform", "induction-step", str(mat), "--r", "2"
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["cluster-split", "--k", "2", "--format", "json"],
        ["cluster-split", "--k", "2", "--r", "2"],
        ["induction-step", "--r", "2", "--k", "2"],
    ])
    def test_unread_flag_is_refused(self, capsys, tmp_path, argv):
        mat = tmp_path / "m.txt"
        mat.write_text("1\n1\n1\n1\n")
        code, err = run_refused(capsys, "transform", argv[0], str(mat), *argv[1:])
        assert code == 2 and "unrecognized arguments" in err

    @pytest.mark.parametrize("operation,flag", [("cluster-split", "--k"), ("induction-step", "--r")])
    def test_missing_flag_is_refused(self, capsys, tmp_path, operation, flag):
        mat = tmp_path / "m.txt"
        mat.write_text("1\n1\n1\n1\n")
        code, err = run_refused(capsys, "transform", operation, str(mat))
        assert code == 2 and f"the following arguments are required: {flag}" in err

    @pytest.mark.parametrize("text,r", [("11\n11\n", 2), ("110\n101\n011\n", 1)])
    def test_induction_step_rejects_contained_block_and_small_r(self, capsys, tmp_path, text, r):
        mat = tmp_path / "m.txt"
        mat.write_text(text)
        for fmt in ("text", "json"):
            code, out, _ = run_cli(
                capsys, "transform", "induction-step", str(mat), "--r", str(r), "--format", fmt
            )
            assert code == 2 and out == ""


def run_python(*args, **kwargs):
    """Run a fresh interpreter that imports exmat from this checkout's src;
    kwargs go to subprocess.run."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kwargs)


def _cap_address_space():
    limit = 400 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_module_entry_point_runs():
    proc = run_python("-m", "exmat", "generate", "P", "--r", "1", "--c", "2")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "11"


def test_parser_is_built_once_and_not_at_import():
    code = (
        "import contextlib, io, exmat.cli as cli\n"
        "assert cli.build_parser.cache_info().currsize == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for _ in range(3):\n"
        "        cli.main(['generate', 'P', '--r', '1', '--c', '2'])\n"
        "print(cli.build_parser.cache_info().misses)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"



def subcommands(parser):
    """The subparsers of parser by name, in the order they were added."""
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_parsers_match_the_command_tables():
    # each compute kind, generate family and transform operation parses
    # exactly the arguments of its table row, in order, so the parser
    # cannot drift from the code that answers it
    commands = subcommands(build_parser())
    assert list(commands) == ["compute", "generate", "verify", "render", "transform"]
    names = {
        "compute": (COMPUTE, ["weight", "columns"]),
        "generate": (GENERATE, ["L", "P", "T", "Kprime", "pigeonhole", "lowerP"]),
        "transform": (TRANSFORM, ["cluster-split", "induction-step"]),
    }
    for command, (table, order) in names.items():
        parsers = subcommands(commands[command])
        assert list(parsers) == list(table) == order
        for name, parser in parsers.items():
            reads = table[name][0]
            if command == "compute":
                want = ["--pattern", *(f"--{f}" for f in reads), "--budget", "--sweep", "--format"]
                required = ["--pattern"]
            else:
                want = [arg if arg == "input" else f"--{arg}" for arg in reads]
                required = [arg for arg in want if arg != "--format"]
            actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
            got = [a.option_strings[0] if a.option_strings else a.dest for a in actions]
            assert got == want, (command, name)
            assert [arg for arg, a in zip(got, actions) if a.required] == required, (command, name)


HUGE_ARGUMENTS = [
    (["compute", "columns", "--m", "100000", "--k", "2"], "limit"),
    (["generate", "pigeonhole", "--m", "1000000", "--k", "500000", "--c", "2"], "limit"),
    (["generate", "pigeonhole", "--m", "1000000", "--k", "1000000", "--c", "2"], "limit"),
    (["generate", "Kprime", "--m", "100000", "--k", "1"], "limit"),
    (["generate", "P", "--r", "30000", "--c", "30000"], "limit"),
    (["compute", "weight", "--m", "100000", "--n", "100000", "--budget", "10"], "limit"),
    (["generate", "lowerP", "--m", "300", "--r", "2", "--k", "3"], "limit"),
    (["generate", "lowerP", "--m", "5", "--r", "2", "--k", "100000"], "limit"),
    # 12,870 candidates x 2 certificate columns x 12,870 row subsets
    (["compute", "columns", "--m", "16", "--k", "8", "--pattern", "11\n" * 8],
     "m=16, k=8: 12870 candidate columns x 25740 table bits exceed the 16777216-cell limit"),
    # 44,850 candidates x 40 certificate columns x 300 row subsets
    (["compute", "columns", "--m", "300", "--k", "2", "--pattern", "1" + "0" * 38 + "1\n"],
     "m=300, k=2: 44850 candidate columns x 12000 table bits exceed the 16777216-cell limit"),
    # 257 columns x 2 levels x C(257, 2) column pairs in the row automaton
    (["compute", "weight", "--m", "257", "--n", "257"],
     "m=257, n=257: 257 columns x 65792 table bits exceed the 16777216-cell limit"),
    # 66 candidates x 3,852 certificate columns x 66 row pairs; 2x3851 fits
    (["compute", "columns", "--m", "12", "--k", "2", "--pattern", ("1" * 3852 + "\n") * 2],
     "m=12, k=2: 66 candidate columns x 254232 table bits exceed the 16777216-cell limit"),
    # a 2 x 2^18 all-ones pattern is transposed, in time linear in its cells,
    # before the table rule refuses it
    (["compute", "columns", "--m", "10", "--k", "2", "--pattern", ("1" * (1 << 18) + "\n") * 2],
     "m=10, k=2: 45 candidate columns x 11796480 table bits exceed the 16777216-cell limit"),
    # k = m leaves one candidate, but the search keeps a mask per row: 1,000
    # masks x 4 levels x C(1000, 2) row pairs of the 2x2 block, a block past
    # 2^24 // 1000 bits that is reported as that bound
    (["compute", "columns", "--m", "1000", "--k", "1000", "--budget", "1",
      "--pattern", "11\n" * 1000 + "\n" + "11\n11\n"],
     "m=1000, k=1000: 1000 row masks x over 16777 table bits exceed the 16777216-cell limit"),
    # every k > m answers at once, but the sweep's rows would grow without end
    (["compute", "columns", "--m", "3", "--k", "2", "--sweep", "k:1:1000000000000"],
     "sweep k:1:1000000000000 has 1000000000000 points, more than the limit 1024"),
    # the 500,000 x 2 block's cap is refused without building C(10^6, 5*10^5)
    (["compute", "columns", "--m", "1000000", "--k", "500000", "--pattern", "11\n" * 500000],
     "m=1000000, k=500000 needs more candidate columns than the limit 65536"),
    # 4,096 columns would make a column graph of about 8.4M pairs
    (["transform", "induction-step", "1" * 4096 + "\n", "--r", "2"],
     "4096 columns exceed the induction limit 1024"),
]


def run_capped(argv, tmp_path):
    # The child runs with a 400 MiB address space and a 5 s timeout, so an
    # oversized build fails the test instead of exhausting the machine.  A
    # compute command gives its pattern's text after --pattern, P22 if none;
    # a render command gives its layout's text, and a transform command its
    # matrix's text, in place of the file.
    if argv[0] == "render":
        path = tmp_path / "layout.txt"
        path.write_text(argv[1])
        argv = ["render", str(path), *argv[2:]]
    if argv[0] == "transform":
        path = tmp_path / "matrix.txt"
        path.write_text(argv[2])
        argv = [*argv[:2], str(path), *argv[3:]]
    if argv[0] == "compute":
        if "--pattern" not in argv:
            argv = argv + ["--pattern", "11\n11\n"]
        at = argv.index("--pattern") + 1
        path = tmp_path / "pattern.txt"
        path.write_text(argv[at])
        argv = argv[:at] + [str(path)] + argv[at + 1:]
    return run_python("-m", "exmat", *argv, timeout=5, preexec_fn=_cap_address_space)


@pytest.mark.parametrize(
    "argv,message", HUGE_ARGUMENTS, ids=[f"argv{i}" for i in range(len(HUGE_ARGUMENTS))]
)
def test_huge_integer_arguments_are_refused_at_once(argv, message, tmp_path):
    proc = run_capped(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert message in proc.stderr and proc.stdout == ""


WIDE_ANSWERS = [
    # a row of 2^20 cells printed, and one parsed, in linear time
    (["generate", "P", "--r", "1", "--c", str(1 << 20)], 0),
    (["compute", "weight", "--m", "1", "--n", "4", "--pattern", "10" * (1 << 19) + "\n"], 0),
    # the 20-row table is built in one pass over its C(20, 9) subsets
    (["compute", "columns", "--m", "20", "--k", "20", "--budget", "1",
      "--pattern", "11\n" * 20 + "\n" + "11\n" * 9], 3),
]


@pytest.mark.parametrize(
    "argv,code", WIDE_ANSWERS, ids=[f"argv{i}" for i in range(len(WIDE_ANSWERS))]
)
def test_wide_inputs_are_answered_at_once(argv, code, tmp_path):
    proc = run_capped(argv, tmp_path)
    assert proc.returncode == code, proc.stderr[-500:]
    assert proc.stdout


def test_layout_with_distinct_denominators_renders_at_once(tmp_path):
    # 16,000 bars whose 32,000 endpoints have pairwise distinct denominators
    # in [10^6, 2*10^6): a common denominator of the whole layout would take
    # time and memory quadratic in the input.  On a 2-CPU x86_64 host this
    # renders in about 1.5 s, while an SVG built on the common denominator
    # takes about 19 s, or runs out of the 400 MiB if it keeps the scaled
    # endpoints.
    rng = random.Random(18)
    n = 16000
    ends = []
    for q in rng.sample(range(10**6, 2 * 10**6), 2 * n):
        p = rng.randrange(1, q)
        while gcd(p, q) != 1:
            p = rng.randrange(1, q)
        ends.append(Fraction(rng.randrange(4 * n) * q + p, q))
    ys = rng.sample(range(3 * n), n)
    text = "\n".join(
        f"{y} {min(ends[2 * i : 2 * i + 2])} {max(ends[2 * i : 2 * i + 2])}" for i, y in enumerate(ys)
    )
    proc = run_capped(["render", text, "--s", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.startswith("<svg") and proc.stdout.count("<rect") == n


def test_visibility_experiment_runs_at_tiny_sizes():
    proc = run_python(
        str(ROOT / "scripts" / "visibility_experiment.py"), "--trials", "5", "--max-n", "5"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # every section prints rows under its header
    for head in ("== edge counts vs (2s+3)n ==", "== greedy avoider weight vs closed-form bound =="):
        assert lines.index(head) + 1 < len(lines)
