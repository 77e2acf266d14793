"""Tests for the command line front end."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from radchar.census import MAX_DEGREE, MAX_DIGITS, check_degree
from radchar import cli
from radchar.cli import main
from radchar.falinalg import DEFAULT_ENUM_BUDGET
from radchar.gf import BudgetExceeded
from radchar.orbitmethod import RadicalParams, d_range
from radchar.qpoly import QPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--no-timing")
    return code, json.loads(out)


def test_census_extraspecial_json(capsys):
    code, record = run_json(capsys, "census", "--type", "C", "--n", "2", "--d", "1", "--q", "3")
    assert code == 0
    assert record["params"] == {"type": "C", "n": 2, "d": 1, "q": 3}
    assert [(r["e"], r["count_at_q"]) for r in record["rows"]] == [(0, 9), (1, 2)]
    assert record["sum_of_squares_ok"] is True


def test_census_abelian_single_row(capsys):
    code, record = run_json(capsys, "census", "--type", "C", "--n", "2", "--d", "2")
    assert code == 0
    assert len(record["rows"]) == 1
    assert record["rows"][0]["e"] == 0
    assert record["rows"][0]["count"] == ["0", "0", "0", "1"]


def test_census_printed_oracle_mismatch(capsys):
    code, record = run_json(
        capsys,
        "census", "--type", "U", "--n", "2", "--d", "1",
        "--variant", "printed", "--q", "3", "--oracle",
    )
    assert code == 1
    assert record["sum_of_squares_ok"] is False
    assert record["oracle"]["match"] is False
    assert record["oracle"]["class_count"] == 83


def test_census_corrected_oracle_match(capsys):
    code, record = run_json(
        capsys,
        "census", "--type", "U", "--n", "2", "--d", "1", "--q", "3", "--oracle",
    )
    assert code == 0
    oracle = record["oracle"]
    assert oracle["match"] is True
    assert oracle["rows_match"] is True
    assert oracle["class_count_match"] is True


def test_census_oracle_builds_the_census_table_once(capsys, monkeypatch):
    # the oracle checks the table the census has already built
    calls, census_table = [], cli.census_table
    monkeypatch.setattr(cli, "census_table", lambda *args: calls.append(args) or census_table(*args))
    code, record = run_json(capsys, "census", "--type", "C", "--n", "3", "--d", "2", "--q", "3", "--oracle")
    assert code == 0 and record["oracle"]["match"] is True
    assert len(calls) == 1


def test_census_oracle_requires_q(capsys):
    code, _, err = run_cli(capsys, "census", "--type", "C", "--n", "2", "--d", "1", "--oracle")
    assert code == 2
    assert "--oracle requires --q" in err


def test_census_rejects_even_q(capsys):
    code, _, err = run_cli(capsys, "census", "--type", "C", "--n", "2", "--d", "1", "--q", "2")
    assert code == 2
    assert "odd prime power required" in err


def test_census_rejects_bad_d(capsys):
    code, _, err = run_cli(capsys, "census", "--type", "U", "--n", "2", "--d", "2")
    assert code == 2
    assert err.startswith("error:")


def test_census_oracle_budget_refusal(capsys):
    code, _, err = run_cli(
        capsys, "census", "--type", "D", "--n", "4", "--d", "2", "--q", "3", "--oracle"
    )
    assert code == 2
    assert "19683" in err and "budget" in err


def test_budget_ceiling_enforced(capsys):
    code, _, err = run_cli(
        capsys,
        "census", "--type", "C", "--n", "2", "--d", "1", "--q", "3",
        "--oracle", "--budget", str(10 ** 9),
    )
    assert code == 2
    assert "ceiling" in err


def test_census_csv_column_order(capsys):
    code, out, _ = run_cli(
        capsys,
        "census", "--type", "C", "--n", "3", "--d", "2", "--q", "3",
        "--format", "csv", "--no-timing",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "type,n,d,r,e,degree,count_poly,count_at_q"
    assert lines[1] == "C,3,2,0,0,1,q^4,81"
    assert lines[3] == "C,3,2,2,2,q^2,q^3 - q^2,18"


def test_census_qminus1_basis_rendering(capsys):
    code, out, _ = run_cli(
        capsys,
        "census", "--type", "C", "--n", "2", "--d", "1",
        "--basis", "qminus1", "--format", "csv", "--no-timing",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].endswith("1 + 2*(q-1) + (q-1)^2,")
    assert lines[2].endswith("(q-1),")


def test_json_is_byte_identical_without_timing(capsys):
    args = ("verify", "--suite", "positivity", "--max-n", "4")
    _, first = run_json(capsys, *args)
    code, out, _ = run_cli(capsys, *args, "--format", "json", "--no-timing")
    assert code == 0
    assert json.loads(out) == first
    _, out2, _ = run_cli(capsys, *args, "--format", "json", "--no-timing")
    assert out == out2


def test_json_timing_field_toggle(capsys):
    code, out, _ = run_cli(capsys, "census", "--type", "C", "--n", "2", "--d", "2", "--format", "json")
    assert code == 0
    assert "timing_seconds" in json.loads(out)
    code, out, _ = run_cli(
        capsys, "census", "--type", "C", "--n", "2", "--d", "2", "--format", "json", "--no-timing"
    )
    assert "timing_seconds" not in json.loads(out)


def test_ranks_sym_brute(capsys):
    code, record = run_json(capsys, "ranks", "--class", "sym", "--n", "2", "--q", "3", "--brute")
    assert code == 0
    assert record["brute"]["histogram"] == {"0": 1, "1": 8, "2": 18}
    assert record["brute"]["match"] is True


def test_ranks_skew_odd_rank_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "ranks", "--class", "skew", "--n", "2", "--r", "1")
    assert code == 2
    assert "skew-symmetric rank must be even" in err


@pytest.mark.parametrize("brute", [[], ["--q", "3", "--brute"]])
def test_ranks_rejects_negative_n(capsys, brute):
    code, out, err = run_cli(capsys, "ranks", "--class", "sym", "--n", "-1", *brute)
    assert code == 2
    assert out == ""
    assert "--n must be nonnegative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("max_n", ["-2", "0"])
def test_verify_rejects_max_n_below_one(capsys, max_n):
    code, out, err = run_cli(capsys, "verify", "--suite", "classes", "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert "--max-n must be at least 1" in err
    assert "Traceback" not in err


def test_ranks_herm_flags_printed_variant(capsys):
    code, record = run_json(capsys, "ranks", "--class", "herm", "--n", "1", "--q", "3", "--brute")
    assert code == 0
    assert record["brute"]["match"] is True
    assert record["brute"]["printed_matches"] is False


def test_ranks_skew_lists_even_ranks_only(capsys):
    code, record = run_json(capsys, "ranks", "--class", "skew", "--n", "4")
    assert code == 0
    assert [row["r"] for row in record["rows"]] == [0, 2, 4]


def test_verify_rejects_q_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "ranks", "--q", "2")
    assert code == 2
    assert "odd prime power required" in err


def test_verify_orbits_default_instances(capsys):
    code, record = run_json(capsys, "verify", "--suite", "orbits")
    assert code == 0
    assert record["ok"] is True
    names = [c["name"] for c in record["checks"]]
    assert names == sorted(names)
    assert "D n=4 d=2 q=3" in names
    assert "C n=2 d=1 q=5" in names
    assert len(names) == 7


def test_verify_classes_suite(capsys):
    code, record = run_json(capsys, "verify", "--suite", "classes")
    assert code == 0
    assert record["failures"] == []
    assert len(record["checks"]) == 7


def test_verify_pairings_and_positivity(capsys):
    code, record = run_json(capsys, "verify", "--suite", "pairings", "--max-n", "3")
    assert code == 0 and record["ok"] is True
    code, record = run_json(capsys, "verify", "--suite", "positivity", "--max-n", "6")
    assert code == 0 and record["ok"] is True


def test_batched_positivity_names_the_negative_row(capsys, monkeypatch):
    # one row of U(10,4), whose d share one expansion with d = 0 .. 8, counts q - 2 = (q-1) - 1
    target = RadicalParams("U", 10, 4)
    table = cli.census_table(target)
    bad = table.rows[2]
    patched = table._replace(rows=tuple(row._replace(count=QPoly([-2, 1])) if row is bad else row for row in table.rows))
    assert QPoly([-2, 1]).to_qminus1_basis() == [-1, 1]
    real = cli.census_table
    monkeypatch.setattr(cli, "census_table", lambda params, *args: patched if params == target else real(params, *args))
    code, record = run_json(capsys, "verify", "--suite", "positivity")
    assert code == 1 and record["failures"] == ["U n=10"]
    details = {c["name"]: c["detail"] for c in record["checks"] if not c["ok"]}
    assert details == {"U n=10": f"negative (q-1) coefficients at (d, e) in [(4, {bad.e})]"}
    assert len(record["checks"]) == 30


def test_verify_md_has_per_check_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "ranks", "--max-n", "2", "--no-timing")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) >= 6
    assert all("[ranks]" in l for l in lines)


def test_console_entry_point_runs():
    # the subprocess finds radchar in src/, as from a fresh checkout
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "radchar.cli", "census", "--type", "C", "--n", "2", "--d", "1",
         "--q", "3", "--format", "json", "--no-timing"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert [r["count_at_q"] for r in record["rows"]] == [9, 2]


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2


def test_budget_validated_for_every_command(capsys):
    for argv in (
        ("census", "--type", "C", "--n", "2", "--d", "1", "--budget", "0"),
        ("ranks", "--class", "sym", "--n", "2", "--budget", "0"),
        ("verify", "--suite", "positivity", "--max-n", "2", "--budget", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: budget must be positive\n"


@pytest.mark.parametrize(
    "argv, degree",
    [
        (("census", "--type", "C", "--n", "400", "--d", "200"), 100100),
        (("census", "--type", "C", "--n", "60", "--d", "30", "--basis", "qminus1"), 2265),
        (("ranks", "--class", "sym", "--n", "63"), 2016),
        (("ranks", "--class", "herm", "--n", "45", "--r", "0"), 2025),
        (("verify", "--suite", "positivity", "--max-n", "39"), 2001),
    ],
)
def test_symbolic_requests_over_the_degree_cap_exit_two(capsys, argv, degree):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: polynomial degree {degree} exceeds the cap {MAX_DEGREE}\n"


def test_degree_cap_admits_its_own_degree():
    # U(40,20) has group order q^2000, exactly the cap
    assert RadicalParams("U", 40, 20).order_exponent == MAX_DEGREE
    check_degree(MAX_DEGREE)
    with pytest.raises(BudgetExceeded, match="exceeds the cap"):
        check_degree(MAX_DEGREE + 1)


def test_q_27_is_a_prime_power_without_a_field(capsys):
    # the symbolic census takes any odd prime power; the oracles need F_27,
    # which is not built (only degrees 1 and 2 are)
    code, _, err = run_cli(capsys, "verify", "--suite", "orbits", "--q", "27")
    assert code == 2 and "unsupported extension degree" in err
    code, _, err = run_cli(capsys, "census", "--type", "C", "--n", "3", "--d", "1", "--q", "27", "--oracle")
    assert code == 2 and "unsupported extension degree" in err
    code, record = run_json(capsys, "census", "--type", "C", "--n", "3", "--d", "1", "--q", "27")
    assert code == 0 and record["params"]["q"] == 27


def test_field_cap_exits_two_before_building_tables(capsys):
    # both commands need F_(101^2), whose tables would take gigabytes
    for argv in (
        ("census", "--type", "U", "--n", "1", "--d", "0", "--q", "101", "--oracle"),
        ("ranks", "--class", "herm", "--n", "1", "--q", "101", "--brute"),
    ):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, ""), argv
        assert err == "error: field order 10201 exceeds the cap 1024\n"
        assert peak < 2_000_000


def test_oracle_budget_refusal_names_the_class_count_first(capsys):
    # with one --budget for both oracles the class count, which has at least
    # as many points as the orbit census, is the one that refuses
    code, _, err = run_cli(
        capsys, "census", "--type", "C", "--n", "3", "--d", "2", "--q", "3", "--oracle", "--budget", "100"
    )
    assert code == 2
    assert err == "error: enumeration too large: group order 2187 exceeds budget 100\n"
    for argv in (
        ("verify", "--suite", "orbits", "--budget", "10"),
        ("verify", "--suite", "classes", "--budget", "10"),
        ("ranks", "--class", "sym", "--n", "3", "--q", "3", "--brute", "--budget", "10"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error: enumeration too large"), argv


def test_default_enum_budget_refuses_a_minutes_long_brute_run(capsys):
    # 463^3 symmetric 2-by-2 matrices would take minutes to rank; the
    # default class-matrix budget refuses them before any is enumerated
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "ranks", "--class", "sym", "--n", "2", "--q", "463", "--brute")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: enumeration too large: {463 ** 3} matrices exceeds budget {DEFAULT_ENUM_BUDGET}\n"


@pytest.mark.parametrize(
    "argv, points, side",
    [
        # the trivial group U(100000, 0): one point of 200000x200000 codes
        (("census", "--type", "U", "--n", "100000", "--d", "0", "--q", "3", "--oracle"), 1, 200000),
        # C(3,2) over F_13 has 13^7 elements, inside a budget of 10^8
        (("census", "--type", "C", "--n", "3", "--d", "2", "--q", "13", "--oracle", "--budget", "100000000"), 13 ** 7, 6),
    ],
)
def test_walks_past_the_stack_cap_exit_two_before_allocating(capsys, argv, points, side):
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    # the class walk's bytes (orbitmethod._check_walk): 2^17 fixed, one chunk's ambient codes
    # and, per element, its digits four times and 8 bytes per generator and work array (7);
    # C(3,2) reads generators, so its frame's probes (12 digits, 32 sample points) count too
    chunk = min(points, 4096) * side * side * 2
    size = {1: 2 ** 17 + chunk + 8 * 7, 13 ** 7: 2 ** 17 + chunk + 4 * (12 + 32) * side * side * 2 + points * (4 * 12 + 8 * (7 + 7))}[points]
    assert err == f"error: enumeration too large: the walk over group order {points} holds {size} bytes, over the cap {2 ** 30}\n"
    assert peak < 5_000_000


def test_the_orbit_refusal_comes_before_the_class_walk(capsys):
    # C(3,3) over F_11: H is trivial, so the orbit partition's 11^6 records, one per dual, pass the walk cap;
    # the class walk over its 11^6 elements is under the cap, but both routes refuse before either walks
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "census", "--type", "C", "--n", "3", "--d", "3", "--q", "11", "--oracle", "--budget", "100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: enumeration too large: the walk over 1771561 duals holds 1166784866 bytes, over the cap 1073741824\n"
    assert peak < 5_000_000


def test_a_walk_under_the_stack_cap_takes_at_most_three_stacks(capsys):
    # the trivial group U(300, 0) has one element and one dual, each a
    # 600x600 point: its walks make no array per ambient entry beyond a
    # few copies of that stack, so the cap bounds them near 2^30 as well
    stack = 600 * 600 * 2
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "census", "--type", "U", "--n", "300", "--d", "0", "--q", "3", "--oracle")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "class count PASS (1 conjugacy classes)" in out
    assert peak < 3 * stack


@pytest.mark.parametrize("suite, qs", [("pairings", ["3"]), ("all", ["3", "5"])])
def test_verify_checks_a_repeated_q_once(capsys, suite, qs):
    argv = ("verify", "--suite", suite, "--max-n", "1", "--no-timing", "--q")
    once = run_cli(capsys, *argv, *qs)
    repeated = run_cli(capsys, *argv, *qs, *qs)
    assert once == repeated
    assert once[0] == 0


def test_huge_prime_q_is_checked_quickly(capsys):
    # a prime near 10^18 needs no field for the symbolic census; checking
    # it must not trial-divide up to its square root
    start = time.perf_counter()
    code, record = run_json(capsys, "census", "--type", "C", "--n", "2", "--d", "1", "--q", "1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and record["params"]["q"] == 10 ** 18 + 3
    code, out, err = run_cli(capsys, "census", "--type", "C", "--n", "2", "--d", "1", "--q", str(10 ** 30 + 3))
    assert (code, out) == (2, "") and err.startswith("error: cannot decide whether")


@pytest.mark.parametrize(
    "argv",
    [
        ("ranks", "--class", "sym", "--n", "40", "--q", "1000003"),
        ("census", "--type", "U", "--n", "40", "--d", "20", "--q", "146063"),
        ("census", "--type", "C", "--n", "2", "--d", "1", "--q", str(3 ** 9000)),
        ("census", "--type", "U", "--n", "40", "--d", "20", "--q", str(3 ** 9000)),
    ],
)
@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_a_value_at_q_too_long_to_print_is_refused(capsys, argv, fmt):
    # values of 4,921 digits (sym n = 40 at q = 1000003) and more: refused
    # with exit 2 before they are evaluated, not a traceback or minutes of arithmetic
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.endswith(f"error: a value at q would have more than {MAX_DIGITS} digits, the cap on printed values\n")


def test_the_longest_printable_values_at_q_are_printed(capsys):
    # sym n = 40 at q = 100003 has counts of 4,101 digits: below the cap, printed as before it
    code, out, _ = run_cli(capsys, "ranks", "--class", "sym", "--n", "40", "--q", "100003", "--format", "json", "--no-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "b4ee64f0e7d2f7bc269fee2b3cb4fda0cd9eacfea11185ca60c84ac4fdafdea4"
    assert max(len(str(row["count_at_q"])) for row in json.loads(out)["rows"]) == 4101


def _golden_commands():
    """argv lists covering every command, format, basis and refusal path."""
    commands = []
    for x, ds in (("C", range(1, 5)), ("D", range(1, 5)), ("U", range(0, 4))):
        for d in ds:
            for fmt in ("md", "json", "csv"):
                for basis in ("q", "qminus1"):
                    for q in ((), ("--q", "3")):
                        commands.append(["census", "--type", x, "--n", "4", "--d", str(d), *q, "--basis", basis, "--format", fmt])
    for d in range(3):
        for fmt in ("md", "json"):
            commands.append(["census", "--type", "U", "--n", "3", "--d", str(d), "--q", "5", "--variant", "printed", "--basis", "qminus1", "--format", fmt])
    for x, n, d in (("C", 2, 1), ("C", 3, 1), ("U", 2, 1)):
        for variant in ("corrected", "printed"):
            for fmt in ("md", "json", "csv"):
                commands.append(["census", "--type", x, "--n", str(n), "--d", str(d), "--q", "3", "--oracle", "--variant", variant, "--format", fmt])
    for cls, r in (("sym", "1"), ("skew", "2"), ("herm", "1")):
        for fmt in ("md", "json", "csv"):
            commands.append(["ranks", "--class", cls, "--n", "3", "--format", fmt])
            commands.append(["ranks", "--class", cls, "--n", "2", "--q", "3", "--brute", "--format", fmt])
        commands.append(["ranks", "--class", cls, "--n", "3", "--r", r, "--q", "5"])
        commands.append(["ranks", "--class", cls, "--n", "0", "--format", "json"])
        commands.append(["ranks", "--class", cls, "--n", "0", "--q", "3", "--brute"])
    commands.append(["ranks", "--class", "skew", "--n", "3", "--q", "3", "--brute", "--format", "json"])
    commands.append(["ranks", "--class", "herm", "--n", "2", "--r", "2", "--q", "3", "--brute", "--format", "json"])
    for suite in ("classes", "orbits", "pairings", "positivity", "ranks", "all"):
        commands.append(["verify", "--suite", suite, "--format", "json"])
        commands.append(["verify", "--suite", suite, "--max-n", "2", "--q", "3", "5"])
        commands.append(["verify", "--suite", suite, "--max-n", "3", "--format", "csv"])
    commands += [
        ["census", "--type", "U", "--n", "2", "--d", "2"],
        ["census", "--type", "C", "--n", "2", "--d", "0"],
        ["census", "--type", "D", "--n", "0", "--d", "0"],
        ["census", "--type", "C", "--n", "2", "--d", "1", "--q", "9"],
        ["census", "--type", "C", "--n", "2", "--d", "1", "--q", "2"],
        ["census", "--type", "C", "--n", "2", "--d", "1", "--oracle"],
        ["census", "--type", "C", "--n", "2", "--d", "1", "--budget", "0"],
        ["census", "--type", "C", "--n", "2", "--d", "1", "--q", "3", "--oracle", "--budget", str(10 ** 9)],
        ["census", "--type", "D", "--n", "4", "--d", "2", "--q", "3", "--oracle"],
        ["census", "--type", "U", "--n", "1", "--d", "0", "--q", "101", "--oracle"],
        ["census", "--type", "C", "--n", "60", "--d", "30"],
        ["ranks", "--class", "skew", "--n", "2", "--r", "1"],
        ["ranks", "--class", "sym", "--n", "2", "--r", "3"],
        ["ranks", "--class", "herm", "--n", "2", "--r", "-1"],
        ["ranks", "--class", "sym", "--n", "-1"],
        ["ranks", "--class", "sym", "--n", "2", "--brute"],
        ["ranks", "--class", "sym", "--n", "3", "--q", "3", "--brute", "--budget", "10"],
        ["ranks", "--class", "herm", "--n", "1", "--q", "101", "--brute"],
        ["ranks", "--class", "sym", "--n", "63"],
        ["verify", "--suite", "classes", "--max-n", "0"],
        ["verify", "--suite", "ranks", "--q", "2"],
        ["verify", "--suite", "orbits", "--q", "27"],
        ["verify", "--suite", "positivity", "--max-n", "39"],
    ]
    return [argv + ["--no-timing"] for argv in commands]


def _digest(capsys, commands) -> str:
    """sha256 over (argv, exit code, stdout, stderr) of every command, in order."""
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for argv in commands:
            code, out, err = run_cli(capsys, *argv)
            digest.update(json.dumps([argv, code, out, err]).encode())
    return digest.hexdigest()


def test_cli_output_is_pinned(capsys):
    # computed before the CLI's checks were shared between commands and
    # suites: any change in bytes, verdicts or messages shows here
    assert _digest(capsys, _golden_commands()) == "4c5318fc96035fe7de7db442e949c1f760d052bf3ef5d5b70747431865acc295"


def _large_golden_commands():
    """(q-1)-basis JSON of every census at n = 14, and the positivity suite to n = 12."""
    commands = []
    for x in ("C", "D", "U"):
        for d in d_range(x, 14):
            for variant in ("corrected", "printed") if x == "U" else ("corrected",):
                commands.append(["census", "--type", x, "--n", "14", "--d", str(d), "--variant", variant, "--basis", "qminus1", "--format", "json"])
    commands.append(["verify", "--suite", "positivity", "--max-n", "12", "--format", "json"])
    return [argv + ["--no-timing"] for argv in commands]


def test_large_cli_output_is_pinned(capsys):
    # computed before the (q-1) expansion packed a table's rows into one
    # int: large coefficients and long rows show here, not at n = 4
    assert _digest(capsys, _large_golden_commands()) == "dc858ebcf9733d03ce26df85dca08ffb0c07e81c79a1346683ff64fe487cf0d5"


def _records():
    """The record of every pinned command that builds one."""
    for argv in _golden_commands() + _large_golden_commands():
        args = cli._parser().parse_args(argv)
        try:
            yield cli.COMMANDS[args.command](args)[0]
        except (cli.UsageError, BudgetExceeded):
            continue


def test_render_json_writes_the_bytes_of_json_dumps():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = list(_records())
    assert len(records) > 200
    odd = {
        "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]]]},
        "flags": [True, False, None, 0, -1, 10 ** 40],
        "text": ["", "q^2 - 1", "ä☃\n\t\"quoted\""],
        "mixed": ["a", 1, {"b": ["c"]}],
        "tuple": (1, ("a", None)),
    }
    for record in records + [odd]:
        for timing in (None, 0.0, 1.25, 0.000123):
            expected = dict(record)
            if timing is not None:
                expected["timing_seconds"] = timing
            assert cli.render_json(record, timing) == json.dumps(expected, indent=2, sort_keys=True) + "\n"
