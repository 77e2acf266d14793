"""The three benchmark workloads and the correctness gate for every op.

Each op is one public entry point of radchar: ``radchar.cli.main`` called
in-process, or the library call ``orbit_partition``.  Ops run in a closed
loop from one thread.  The gate of each op recomputes an identity from the
op's output with the benchmark's own arithmetic (group orders, dual counts,
row counts, pinned character totals); a raised exception, a nonzero exit
code, a false verdict flag or a broken identity all fail the op.

Why these workloads:

- verify_all: ``radchar verify`` over all five suites, the command users
  run to trust the package; ~120 tiny instances, so per-call overhead and
  repeated field builds show.  The seed sets the suite order.
- oracle_large: the largest instances inside the default budgets, where
  the class walk and the orbit walk (matrix products) do almost all the
  work.  U(2,1) q=5 and U(3,2) q=3 use the non-prime tables F_25 and F_9.
  Every run covers the whole class pool and orbit pool, so a run's work
  does not depend on the seed; the seed sets the order.
- symbolic_sweep: the symbolic census for every valid (X, n, d), n <= 14,
  with no enumeration and no field tables.  It is the workload on which an
  oracle-kernel change should predict no change, and the only one where
  qpoly and cli rendering cost is visible.  The seed draws q per command
  and sets the command order.
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("verify_all", "oracle_large", "symbolic_sweep")

CLASS_POOL = (("C", 3, 2, 3), ("C", 4, 1, 3), ("C", 3, 1, 5), ("U", 2, 1, 5))
ORBIT_POOL = (("C", 4, 2, 3), ("D", 5, 2, 3), ("U", 3, 2, 3))
SWEEP_MAX_N = 14
SWEEP_QS = (3, 5, 7, 9, 11, 13)
WARMUP = ("C", 3, 1, 3)  # a small oracle instance run once, untimed, first

# Number of irreducible characters (= conjugacy classes) of R_u(x, n, d)
# over F_q.  Closed form, orbit partition and class count all gave these
# values when this table was written.
CHARACTER_TOTALS = {
    ("C", 2, 1, 3): 11,
    ("C", 2, 1, 5): 29,
    ("C", 3, 1, 3): 83,
    ("C", 3, 2, 3): 171,
    ("C", 3, 1, 5): 629,
    ("C", 4, 1, 3): 731,
    ("C", 4, 2, 3): 7227,
    ("D", 3, 2, 3): 83,
    ("D", 4, 1, 3): 729,
    ("D", 5, 2, 3): 531443,
    ("U", 2, 1, 3): 83,
    ("U", 2, 1, 5): 629,
    ("U", 3, 2, 3): 8241,
}

# the instance grids of ``radchar verify``, restated so that the gate can
# require exactly these checks
_VERIFY_CLASS_TRIPLES = (("C", 2, 1), ("C", 3, 1), ("C", 3, 2), ("D", 3, 2), ("D", 4, 1), ("U", 2, 1))
_VERIFY_ORBIT_TRIPLES = (("C", 2, 1), ("C", 3, 1), ("C", 3, 2), ("D", 4, 1), ("D", 4, 2), ("U", 2, 1))


def _d_range(x: str, n: int) -> range:
    return range(0, n) if x == "U" else range(1, n + 1)


def a_exponent(x: str, n: int, d: int) -> int:
    """log_q of the number of duals (= |A|)."""
    if x == "C":
        return d * (d + 1) // 2 + d * (n - d)
    if x == "D":
        return d * (d - 1) // 2 + d * (n - d)
    return d * d + 2 * d * (n - d)


def order_exponent(x: str, n: int, d: int) -> int:
    """log_q of the group order |A| * |H|."""
    return a_exponent(x, n, d) + d * (n - d) * (2 if x == "U" else 1)


def census_row_count(x: str, n: int, d: int) -> int:
    if d == n:
        return 1
    return d // 2 + 1 if x == "D" else d + 1


def _verify_radical_instances(triples) -> list[tuple]:
    return sorted({(x, n, d, 3) for x, n, d in triples} | {("C", 2, 1, 5)})


def _rank_grid() -> list[tuple]:
    grid = [("sym", n, q) for n in (1, 2, 3) for q in (3, 5)]
    grid += [("skew", n, 3) for n in (1, 2, 3, 4)]
    grid += [("herm", n, q) for n in (1, 2) for q in (3, 5)] + [("herm", 3, 3)]
    return sorted(grid)


def _rank_class_size(kind: str, n: int, q: int) -> int:
    if kind == "sym":
        return q ** (n * (n + 1) // 2)
    if kind == "skew":
        return q ** (n * (n - 1) // 2)
    return q ** (n * n)


def _name(x, n, d, q) -> str:
    return f"{x} n={n} d={d} q={q}"


def verify_expectations(suite: str) -> tuple[list[str], dict[str, int]]:
    """Check names the suite must report, and the work it enumerates."""
    if suite == "classes":
        inst = _verify_radical_instances(_VERIFY_CLASS_TRIPLES)
        return [_name(*t) for t in inst], {"elements": sum(q ** order_exponent(x, n, d) for x, n, d, q in inst)}
    if suite == "orbits":
        inst = _verify_radical_instances(_VERIFY_ORBIT_TRIPLES)
        return [_name(*t) for t in inst], {"duals": sum(q ** a_exponent(x, n, d) for x, n, d, q in inst)}
    if suite == "pairings":
        inst = sorted((x, n, d, q) for x in "CDU" for n in range(1, 5) for d in _d_range(x, n) for q in (3, 5))
        return [_name(*t) for t in inst], {}
    if suite == "positivity":
        names = [f"{x} n={n}" for x in "CDU" for n in range(1, 11)]
        rows = sum(census_row_count(x, n, d) for x in "CDU" for n in range(1, 11) for d in _d_range(x, n))
        return names, {"rows": rows}
    if suite == "ranks":
        grid = _rank_grid()
        return [f"{k} n={n} q={q}" for k, n, q in grid], {"matrices": sum(_rank_class_size(*t) for t in grid)}
    raise ValueError(f"unknown suite {suite}")


@dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` is not."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    work: dict[str, int] = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``radchar.cli.main`` in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = sys.modules["radchar.cli"].main(argv)
    return code, out.getvalue()


class OpFailed(Exception):
    """The op failed before any identity could be checked."""


def _cli_record(result) -> dict:
    code, text = result
    if code != 0:
        raise OpFailed(f"exit code {code}")
    return json.loads(text)


def census_problems(record: dict, x: str, n: int, d: int, q: int) -> list[str]:
    """Identities every census row set must satisfy at q."""
    problems = []
    rows = record["rows"]
    if len(rows) != census_row_count(x, n, d):
        problems.append(f"{len(rows)} rows, expected {census_row_count(x, n, d)}")
    squares = sum(row["count_at_q"] * row["degree_at_q"] ** 2 for row in rows)
    if squares != q ** order_exponent(x, n, d):
        problems.append(f"sum count*degree^2 = {squares}, group order {q ** order_exponent(x, n, d)}")
    for row in rows:
        value = sum(int(c) * (q - 1) ** k for k, c in enumerate(row["count_qminus1"]))
        if value != row["count_at_q"]:
            problems.append(f"(q-1)-basis count {value} != count_at_q {row['count_at_q']} at e={row['e']}")
    if record["sum_of_squares_ok"] is not True:
        problems.append("sum_of_squares_ok is false")
    return problems


def census_op(x: str, n: int, d: int, q: int) -> Op:
    argv = ["census", "--type", x, "--n", str(n), "--d", str(d), "--q", str(q),
            "--basis", "qminus1", "--format", "json", "--no-timing"]

    def check(result):
        return census_problems(_cli_record(result), x, n, d, q)

    return Op(f"census {_name(x, n, d, q)}", lambda: run_cli(argv), check, {"rows": census_row_count(x, n, d)})


def oracle_problems(record: dict, x: str, n: int, d: int, q: int, expected_total: int) -> list[str]:
    problems = census_problems(record, x, n, d, q)
    oracle = record["oracle"]
    rows_total = sum(row["count_at_q"] for row in record["rows"])
    if oracle["class_count"] != rows_total:
        problems.append(f"class_count {oracle['class_count']} != sum of count_at_q {rows_total}")
    if oracle["class_count"] != expected_total:
        problems.append(f"class_count {oracle['class_count']}, expected {expected_total}")
    orbit_squares = sum(r["char_count"] * r["degree"] ** 2 for r in oracle["orbit_rows"])
    if orbit_squares != q ** order_exponent(x, n, d):
        problems.append(f"orbit rows give sum char_count*degree^2 = {orbit_squares}")
    if oracle["match"] is not True:
        problems.append("oracle match is false")
    return problems


def oracle_op(x: str, n: int, d: int, q: int, expected_total: int | None = None) -> Op:
    argv = ["census", "--type", x, "--n", str(n), "--d", str(d), "--q", str(q),
            "--oracle", "--format", "json", "--no-timing"]
    expected = CHARACTER_TOTALS[(x, n, d, q)] if expected_total is None else expected_total

    def check(result):
        return oracle_problems(_cli_record(result), x, n, d, q, expected)

    return Op(f"census --oracle {_name(x, n, d, q)}", lambda: run_cli(argv), check,
              {"elements": q ** order_exponent(x, n, d)})


def partition_problems(records, x: str, n: int, d: int, q: int, expected_total: int) -> list[str]:
    problems = []
    duals = q ** a_exponent(x, n, d)
    covered = sum(r.size for r in records)
    if covered != duals:
        problems.append(f"orbit sizes sum to {covered}, expected {duals} duals")
    characters = sum(r.stabilizer_order for r in records)
    if characters != expected_total:
        problems.append(f"stabilizer orders sum to {characters}, expected {expected_total} characters")
    return problems


def orbit_op(x: str, n: int, d: int, q: int, expected_total: int | None = None) -> Op:
    expected = CHARACTER_TOTALS[(x, n, d, q)] if expected_total is None else expected_total

    def call():
        om = sys.modules["radchar.orbitmethod"]
        return om.orbit_partition(om.RadicalContext(om.RadicalParams(x, n, d), q))

    return Op(f"orbit_partition {_name(x, n, d, q)}", call,
              lambda records: partition_problems(records, x, n, d, q, expected),
              {"duals": q ** a_exponent(x, n, d)})


_CLASS_DETAIL = re.compile(r"^(\d+) conjugacy classes")


def verify_op(suite: str) -> Op:
    argv = ["verify", "--suite", suite, "--format", "json", "--no-timing"]
    names, work = verify_expectations(suite)
    class_totals = {_name(*t): CHARACTER_TOTALS[t] for t in _verify_radical_instances(_VERIFY_CLASS_TRIPLES)}

    def check(result):
        record = _cli_record(result)
        problems = []
        got = [c["name"] for c in record["checks"]]
        if got != names:
            problems.append(f"checks {got}, expected {names}")
        for c in record["checks"]:
            if c["ok"] is not True:
                problems.append(f"check {c['name']} failed: {c['detail']}")
            if suite == "classes" and c["name"] in class_totals:
                match = _CLASS_DETAIL.match(c["detail"])
                if match is None or int(match.group(1)) != class_totals[c["name"]]:
                    problems.append(f"{c['name']}: {c['detail']!r}, expected {class_totals[c['name']]} classes")
        if record["ok"] is not True or record["failures"]:
            problems.append(f"verify reports failures {record['failures']}")
        return problems

    return Op(f"verify --suite {suite}", lambda: run_cli(argv), check, work)


def build(workload: str, seed: int) -> list[Op]:
    """The ops of one pass of a workload; every pass of a run repeats them."""
    rng = random.Random(seed)
    if workload == "verify_all":
        suites = ["classes", "orbits", "pairings", "positivity", "ranks"]
        rng.shuffle(suites)
        return [verify_op(s) for s in suites]
    if workload == "oracle_large":
        ops = [oracle_op(*t) for t in CLASS_POOL] + [orbit_op(*t) for t in ORBIT_POOL]
        rng.shuffle(ops)
        return ops
    if workload == "symbolic_sweep":
        ops = [
            census_op(x, n, d, rng.choice(SWEEP_QS))
            for x in "CDU" for n in range(1, SWEEP_MAX_N + 1) for d in _d_range(x, n)
        ]
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload}")
