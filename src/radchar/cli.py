"""Command line front end: census tables, rank censuses, verification suites.

Three subcommands:

    census  - character degree census of one radical, optionally checked
              against the orbit and conjugacy-class oracles (--oracle)
    ranks   - rank census polynomials for one symmetry class, optionally
              checked against brute-force enumeration (--brute)
    verify  - named invariant suites over small parameter grids

census --oracle and the orbits and classes suites share one orbit-layer
and one class-count check; ranks --brute and the ranks suite share one
brute histogram (over F_{q^2} for herm) and its comparison with the
closed forms.  Class names and attainable ranks come from census.
The oracle modules (gf, falinalg, orbitmethod, and numpy with them) are
imported inside the functions that run an oracle, so the symbolic
commands load none of them.

Exit codes: 0 all verdicts pass, 1 at least one mathematical verdict
failed, 2 usage or parameter error, including every request over an
enumeration budget, the field-order cap (gf.MAX_FIELD_ORDER) or the
polynomial-degree cap of the symbolic layer (census.MAX_DEGREE).  Output
formats: md (default, human), json (schema-stable, byte-identical across
reruns once --no-timing is passed), csv (fixed column order).  Polynomial coefficients in JSON
are decimal strings, constant term first.  The JSON text is exactly
json.dumps(record, indent=2, sort_keys=True) and a newline; render_json
writes those bytes with joins and json's C string encoder, since json's
indenting encoder is pure Python.

All configuration is by flags; enumeration sizes are guarded by --budget
with a hard ceiling of 10^8, and each command checks the degree of the
largest polynomial it would build before it builds anything.  The
library raises BudgetExceeded for an oversized request, and main()
alone maps it to exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time

from .census import CLASSES, MAX_DIGITS, VARIANTS, attainable_ranks, brute_rank_census, census_polynomial, check_degree, rank_censuses
from .charcensus import DegreeCensus, census_table
from .params import DEFAULT_ENUM_BUDGET, BudgetExceeded, RadicalParams, class_dimension, d_range, odd_prime_power
from .qpoly import PACK_BYTES, PACK_MIN, QPoly, format_terms, qminus1_expansions

__all__ = ["main", "build_parser"]

HARD_BUDGET_CEILING = 10 ** 8

# instance grids for the verification suites, kept small enough that the
# brute-force oracles stay inside the default budgets
ORBIT_TRIPLES = (("C", 2, 1), ("C", 3, 1), ("C", 3, 2), ("D", 4, 1), ("D", 4, 2), ("U", 2, 1))
CLASS_TRIPLES = (("C", 2, 1), ("C", 3, 1), ("C", 3, 2), ("D", 3, 2), ("D", 4, 1), ("U", 2, 1))


class UsageError(Exception):
    """Parameter or flag problem; maps to exit code 2."""


def _checked_q(q: int, degree: int = 0) -> int:
    """q itself if it is an odd prime power at which census values of this degree in q can print; no field is built."""
    # first, as primality takes seconds on a q of thousands of digits: such a value is >= q^degree / 3, log10 q > 0.3 (bits - 1)
    if 3 * degree * (q.bit_length() - 1) >= 10 * MAX_DIGITS + 5:
        raise BudgetExceeded(f"a value at q would have more than {MAX_DIGITS} digits, the cap on printed values")
    if odd_prime_power(q) is None:
        raise UsageError("odd prime power required")
    return q


def _at_q(poly: QPoly, q: int) -> int:
    """poly at q; BudgetExceeded if it has more than MAX_DIGITS digits, which no value of at most 3 MAX_DIGITS bits has."""
    value = poly.eval_at(q)
    if value.bit_length() > 3 * MAX_DIGITS and abs(value) >= 10 ** MAX_DIGITS:
        raise BudgetExceeded(f"a value at q would have more than {MAX_DIGITS} digits, the cap on printed values")
    return value


def _field_for(q: int):
    from .gf import field_for_order

    try:
        return field_for_order(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_budget(budget) -> None:
    if budget is None:
        return
    if budget < 1:
        raise UsageError("budget must be positive")
    if budget > HARD_BUDGET_CEILING:
        raise UsageError(f"budget exceeds the hard ceiling {HARD_BUDGET_CEILING}")


def resolve_budget(args, default: int) -> int:
    return default if args.budget is None else args.budget


def _params(args) -> RadicalParams:
    try:
        return RadicalParams(args.x, args.n, args.d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _count_str(row: dict, basis: str) -> str:
    if basis == "qminus1":
        return format_terms(enumerate(int(s) for s in row["count_qminus1"]), "(q-1)")
    return str(QPoly.from_json(row["count"]))


# -- census -----------------------------------------------------------------


def _orbit_check(table: DegreeCensus, ctx, args):
    """(rows, ok, detail): the orbit census over ctx, a RadicalContext, checked against the table's layers."""
    from .orbitmethod import DEFAULT_ORBIT_BUDGET, orbit_census

    orbits = orbit_census(table.params, ctx, budget=resolve_budget(args, DEFAULT_ORBIT_BUDGET))
    symbolic = table.counts_at(ctx.q)
    orbital = {r.e: (r.degree, r.char_count) for r in orbits.rows}
    ok = symbolic == orbital
    detail = "census table equals orbit census" if ok else f"table {symbolic}, orbits {orbital}"
    return orbits.rows, ok, detail


def _class_check(table: DegreeCensus, ctx, args):
    """(classes, ok, detail): the conjugacy class count over ctx, a RadicalContext, checked against the table's total."""
    from .orbitmethod import DEFAULT_CLASS_BUDGET, class_count_brute

    classes = class_count_brute(table.params, ctx, budget=resolve_budget(args, DEFAULT_CLASS_BUDGET))
    total = table.total_poly().eval_at(ctx.q)
    ok = classes == total
    detail = (
        f"{classes} conjugacy classes, census total agrees"
        if ok
        else f"{classes} conjugacy classes but census total {total}"
    )
    return classes, ok, detail


def _census_oracle(table: DegreeCensus, q: int, args) -> dict:
    from .orbitmethod import DEFAULT_CLASS_BUDGET, DEFAULT_ORBIT_BUDGET, RadicalContext, _class_count_check, _orbit_partition_check

    ctx = RadicalContext(table.params, _field_for(q))
    # both routes refuse before either walks, the class route first: there are never more duals than group
    # elements and the orbit budget is never below the class budget, so a budget refusal is the class route's;
    # the orbit partition's records can still pass the walk cap, at once when H is trivial (a record per dual)
    _class_count_check(ctx, resolve_budget(args, DEFAULT_CLASS_BUDGET))
    _orbit_partition_check(ctx, resolve_budget(args, DEFAULT_ORBIT_BUDGET))
    classes, class_match, _ = _class_check(table, ctx, args)
    rows, rows_match, _ = _orbit_check(table, ctx, args)
    return {
        "q": q,
        "orbit_rows": [r._asdict() for r in rows],
        "class_count": classes,
        "rows_match": rows_match,
        "class_count_match": class_match,
        "match": rows_match and class_match,
    }


def cmd_census(args):
    params = _params(args)
    check_degree(params.order_exponent)
    census = census_table(params, args.variant)
    q = _checked_q(args.q, max(p.degree for row in census.rows for p in (row.degree, row.count))) if args.q is not None else None
    if args.oracle and q is None:
        raise UsageError("--oracle requires --q")
    # only json output and the (q-1) basis read the expansion
    expand = args.fmt == "json" or args.basis == "qminus1"
    expansions = qminus1_expansions([row.count for row in census.rows]) if expand else [None] * len(census.rows)
    rows = []
    for row, qminus1 in zip(census.rows, expansions):
        entry = {
            "r": row.r,
            "e": row.e,
            "degree": row.degree.to_json(),
            "count": row.count.to_json(),
        }
        if expand:
            entry["count_qminus1"] = list(map(str, qminus1))
        if q is not None:
            entry["degree_at_q"] = _at_q(row.degree, q)
            entry["count_at_q"] = _at_q(row.count, q)
        rows.append(entry)
    order = census.order_poly()
    sos_ok = census.sum_of_squares() == order
    record = {
        "command": "census",
        "params": {"type": params.x, "n": params.n, "d": params.d, "q": q},
        "variant": args.variant,
        "basis": args.basis,
        "order": order.to_json(),
        "rows": rows,
        "sum_of_squares_ok": sos_ok,
    }
    code = 0 if sos_ok else 1
    if args.oracle:
        oracle = _census_oracle(census, q, args)
        record["oracle"] = oracle
        if not oracle["match"]:
            code = 1
    return record, code


# -- ranks ------------------------------------------------------------------


def _brute_histogram(kind: str, n: int, base, args) -> dict[int, int]:
    """Rank histogram of the class by enumeration, over the field base (its quadratic extension for herm)."""
    from .gf import quadratic_extension

    field = quadratic_extension(base) if kind == "herm" else base
    return brute_rank_census(n, CLASSES[kind], field, budget=resolve_budget(args, DEFAULT_ENUM_BUDGET))


def _histogram_agrees(hist: dict, kind: str, n: int, counts: dict) -> bool:
    """hist has counts[r] matrices of each rank r in counts and none of an unattainable rank."""
    return all(hist.get(r, 0) == c for r, c in counts.items()) and set(hist) <= set(attainable_ranks(kind, n))


def cmd_ranks(args):
    kind = args.cls
    n = args.n
    if n < 0:
        raise UsageError("--n must be nonnegative")
    check_degree(class_dimension(n, CLASSES[kind]))

    def counts(variant):
        return rank_censuses(kind, n, variant) if args.r is None else {args.r: census_polynomial(kind, n, args.r, variant)}
    try:
        polys = counts("corrected")
        printed = counts("printed") if kind == "herm" else {}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    q = _checked_q(args.q, max(p.degree for p in polys.values())) if args.q is not None else None
    if args.brute and q is None:
        raise UsageError("--brute requires --q")
    rows = []
    for r, count in polys.items():
        entry = {"r": r, "count": count.to_json()}
        if kind == "herm":
            entry["count_printed"] = printed[r].to_json()
        if q is not None:
            entry["count_at_q"] = _at_q(count, q)
        rows.append(entry)
    record = {"command": "ranks", "class": kind, "n": n, "q": q, "rows": rows}
    code = 0
    if args.brute:
        hist = _brute_histogram(kind, n, _field_for(q), args)
        match = _histogram_agrees(hist, kind, n, {r: p.eval_at(q) for r, p in polys.items()})
        record["brute"] = {
            "histogram": {str(k): v for k, v in hist.items()},
            "match": match,
        }
        if kind == "herm":
            record["brute"]["printed_matches"] = _histogram_agrees(
                hist, kind, n, {r: p.eval_at(q) for r, p in printed.items()}
            )
        if not match:
            code = 1
    return record, code


# -- verify -----------------------------------------------------------------


def _capped(limit: int, max_n) -> int:
    return limit if max_n is None else min(limit, max_n)


def _suite_ranks(args, qs):
    grid = [
        (kind, n, q)
        for kind, top, default_qs in (("sym", 3, (3, 5)), ("skew", 4, (3,)), ("herm", 2, (3, 5)))
        for n in range(1, _capped(top, args.max_n) + 1)
        for q in qs or default_qs
    ]
    if _capped(3, args.max_n) >= 3 and 3 in (qs or (3, 5)):
        grid.append(("herm", 3, 3))
    # each field built once per suite (extensions are cached on their base); not process-wide,
    # where it could hold every order up to gf.MAX_FIELD_ORDER
    field = functools.cache(_field_for)
    for kind, n, q in sorted(set(grid)):
        hist = _brute_histogram(kind, n, field(q), args)
        expected = {r: p.eval_at(q) for r, p in rank_censuses(kind, n).items()}
        ok = _histogram_agrees(hist, kind, n, expected)
        detail = (
            "closed form equals brute histogram"
            if ok
            else f"expected {expected}, brute gave {hist}"
        )
        yield f"{kind} n={n} q={q}", ok, detail


def _oracle_suite(triples, check, args, qs):
    """One check per radical instance: check(census table, context, args), as census --oracle runs it."""
    from .orbitmethod import RadicalContext

    instances = {(x, n, d, q) for x, n, d in triples for q in qs or (3,)}
    if qs is None:
        instances.add(("C", 2, 1, 5))
    field = functools.cache(_field_for)
    for x, n, d, q in sorted(instances):
        if args.max_n is not None and n > args.max_n:
            continue
        params = RadicalParams(x, n, d)
        _, ok, detail = check(census_table(params), RadicalContext(params, field(q)), args)
        yield f"{x} n={n} d={d} q={q}", ok, detail


def _suite_pairings(args, qs):
    """Every instance of the grid in one stacked check (orbitmethod._pairing_checks)."""
    from .orbitmethod import _pairing_checks

    grid = sorted(
        (x, n, d, q)
        for x in ("C", "D", "U")
        for n in range(1, _capped(4, args.max_n) + 1)
        for d in d_range(x, n)
        for q in qs or (3, 5)
    )
    field = functools.cache(_field_for)
    verdicts = _pairing_checks([(RadicalParams(x, n, d), field(q)) for x, n, d, q in grid])
    for (x, n, d, q), ok in zip(grid, verdicts):
        detail = "trace pairing Gram matrix invertible" if ok else "degenerate trace pairing"
        yield f"{x} n={n} d={d} q={q}", ok, detail


def _lane_bytes(poly: QPoly) -> int:
    """The bytes of poly's lane in a packed (q-1) expansion (qminus1_expansions), 0 for a row expanded alone."""
    cs = poly.coeffs
    return (len(cs) + sum(map(abs, cs)).bit_length() + 7) // 8 if len(cs) >= PACK_MIN else 0


def _table_runs(x: str, n: int):
    """The rows of the census tables of (x, n, d), d ascending, as runs of (d, row) pairs to expand in one call.

    The rows of consecutive d share one qminus1_expansions call, and so its
    packed running sums, while their long rows fit in one pack: a table that
    would pass PACK_BYTES starts a new run, which bounds the rows held at once.
    """
    run, used = [], 0
    for d in d_range(x, n):
        table = [(d, row) for row in census_table(RadicalParams(x, n, d)).rows]
        width = sum(_lane_bytes(row.count) for _, row in table)
        if run and used + width > PACK_BYTES:
            yield run
            run, used = [], 0
        run += table
        used += width
    yield run


def _suite_positivity(args, qs):
    max_n = args.max_n if args.max_n is not None else 10
    # refuse up front: the largest census of the suite has n = max_n
    for x in ("C", "D", "U"):
        for d in d_range(x, max_n):
            check_degree(RadicalParams(x, max_n, d).order_exponent)
    for x in ("C", "D", "U"):
        for n in range(1, max_n + 1):
            bad = [
                (d, row.e)
                for run in _table_runs(x, n)
                for (d, row), coeffs in zip(run, qminus1_expansions([row.count for _, row in run]))
                if min(coeffs, default=0) < 0
            ]
            ok = not bad
            detail = (
                "all counts have nonnegative (q-1) coefficients"
                if ok
                else f"negative (q-1) coefficients at (d, e) in {bad}"
            )
            yield f"{x} n={n}", ok, detail


# each suite yields (check name, ok, detail) per check; cmd_verify files them under the suite's key
SUITES = {
    "classes": functools.partial(_oracle_suite, CLASS_TRIPLES, _class_check),
    "orbits": functools.partial(_oracle_suite, ORBIT_TRIPLES, _orbit_check),
    "pairings": _suite_pairings,
    "positivity": _suite_positivity,
    "ranks": _suite_ranks,
}


def cmd_verify(args):
    if args.max_n is not None and args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    qs = tuple(dict.fromkeys(_checked_q(v) for v in args.q)) if args.q else None
    names = tuple(sorted(SUITES)) if args.suite == "all" else (args.suite,)
    checks = [
        {"suite": name, "name": check, "ok": ok, "detail": detail}
        for name in names
        for check, ok, detail in SUITES[name](args, qs)
    ]
    ok = all(c["ok"] for c in checks)
    record = {
        "command": "verify",
        "suite": args.suite,
        "checks": checks,
        "failures": [c["name"] for c in checks if not c["ok"]],
        "ok": ok,
    }
    return record, 0 if ok else 1


# -- rendering ----------------------------------------------------------------


def _verdict(flag: bool) -> str:
    return "PASS" if flag else "FAIL"


def _md_table(header: list[str], rows) -> list[str]:
    """The lines of a markdown table: the header, its rule, one line per row of cells."""
    lines = ["| " + " | ".join(cells) + " |" for cells in [header, *rows]]
    return [lines[0], "|" + "---|" * len(header), *lines[1:]]


# the C string encoder json.dumps uses with its default ensure_ascii
_quoted = json.encoder.encode_basestring_ascii


def _json(value, pad: str, out: list) -> None:
    """Append to out the text json.dumps(value, indent=2, sort_keys=True) gives, nested at pad.

    Dict keys are strings, as in every record.  A list of strings is
    quoted and joined in one pass of C calls; the chunks are joined once,
    by the caller.
    """
    if isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in sorted(value.items()):
            out.append(sep + _quoted(key) + ": ")
            _json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        try:
            out.append(sep.join(map(_quoted, value)))
        except TypeError:  # not all strings: one element at a time
            _json(value[0], inner, out)
            for item in value[1:]:
                out.append(sep)
                _json(item, inner, out)
        out.append("\n" + pad + "]")
    elif isinstance(value, str):
        out.append(_quoted(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        out.append(int.__repr__(value))
    else:
        out.append(json.dumps(value))  # {}, [], null, true, false, floats; json's TypeError for the rest


def render_json(record: dict, timing) -> str:
    out = dict(record)
    if timing is not None:
        out["timing_seconds"] = timing
    chunks = []
    _json(out, "", chunks)
    return "".join(chunks) + "\n"


def render_csv(record: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if record["command"] == "census":
        writer.writerow(["type", "n", "d", "r", "e", "degree", "count_poly", "count_at_q"])
        p = record["params"]
        for row in record["rows"]:
            writer.writerow(
                [
                    p["type"],
                    p["n"],
                    p["d"],
                    row["r"],
                    row["e"],
                    str(QPoly.from_json(row["degree"])),
                    _count_str(row, record["basis"]),
                    row.get("count_at_q", ""),
                ]
            )
    elif record["command"] == "ranks":
        writer.writerow(["class", "n", "r", "count_poly", "count_at_q", "brute_count"])
        hist = record.get("brute", {}).get("histogram", {})
        for row in record["rows"]:
            writer.writerow(
                [
                    record["class"],
                    record["n"],
                    row["r"],
                    str(QPoly.from_json(row["count"])),
                    row.get("count_at_q", ""),
                    hist.get(str(row["r"]), ""),
                ]
            )
    else:
        writer.writerow(["suite", "check", "verdict", "detail"])
        for c in record["checks"]:
            writer.writerow([c["suite"], c["name"], _verdict(c["ok"]), c["detail"]])
    return buf.getvalue()


def render_md(record: dict, timing) -> str:
    lines = []
    if record["command"] == "census":
        p = record["params"]
        lines.append(f"# census {p['type']} n={p['n']} d={p['d']} (variant {record['variant']})")
        lines.append("")
        header = ["r", "e", "degree", "count"]
        if p["q"] is not None:
            header += [f"degree(q={p['q']})", f"count(q={p['q']})"]
        rows = []
        for row in record["rows"]:
            cells = [
                str(row["r"]),
                str(row["e"]),
                str(QPoly.from_json(row["degree"])),
                _count_str(row, record["basis"]),
            ]
            if p["q"] is not None:
                cells += [str(row["degree_at_q"]), str(row["count_at_q"])]
            rows.append(cells)
        lines += _md_table(header, rows)
        lines.append("")
        lines.append(f"group order: {QPoly.from_json(record['order'])}")
        lines.append(f"sum of squared degrees identity: {_verdict(record['sum_of_squares_ok'])}")
        oracle = record.get("oracle")
        if oracle:
            lines.append(
                f"oracle at q={oracle['q']}: degree layers {_verdict(oracle['rows_match'])}, "
                f"class count {_verdict(oracle['class_count_match'])} "
                f"({oracle['class_count']} conjugacy classes)"
            )
    elif record["command"] == "ranks":
        lines.append(f"# ranks {record['class']} n={record['n']}")
        lines.append("")
        brute = record.get("brute")
        hist = brute["histogram"] if brute else {}
        header = ["r", "count"]
        if record["class"] == "herm":
            header.append("count (printed variant)")
        if record["q"] is not None:
            header.append(f"count(q={record['q']})")
        if brute:
            header.append("brute")
        rows = []
        for row in record["rows"]:
            cells = [str(row["r"]), str(QPoly.from_json(row["count"]))]
            if record["class"] == "herm":
                cells.append(str(QPoly.from_json(row["count_printed"])))
            if record["q"] is not None:
                cells.append(str(row["count_at_q"]))
            if brute:
                cells.append(str(hist.get(str(row["r"]), 0)))
            rows.append(cells)
        lines += _md_table(header, rows)
        if brute:
            lines.append("")
            lines.append(f"brute-force check: {_verdict(brute['match'])}")
            if "printed_matches" in brute:
                note = "also matches" if brute["printed_matches"] else "flagged, disagrees with enumeration"
                lines.append(f"printed variant: {note}")
    else:
        lines.append(f"# verify suite={record['suite']}")
        lines.append("")
        for c in record["checks"]:
            lines.append(f"{_verdict(c['ok'])} [{c['suite']}] {c['name']} : {c['detail']}")
        lines.append("")
        failed = len(record["failures"])
        lines.append(f"{len(record['checks'])} checks, {failed} failure{'s' if failed != 1 else ''}")
    if timing is not None:
        lines.append(f"elapsed {timing}s")
    return "\n".join(lines) + "\n"


def render(record: dict, args, elapsed: float) -> str:
    timing = None if args.no_timing else round(elapsed, 6)
    if args.fmt == "json":
        return render_json(record, timing)
    if args.fmt == "csv":
        return render_csv(record)
    return render_md(record, timing)


# -- parser -------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--format", dest="fmt", choices=("json", "csv", "md"), default="md")
    parser.add_argument("--budget", type=int, default=None, help=f"enumeration cap, ceiling {HARD_BUDGET_CEILING}")
    parser.add_argument("--no-timing", dest="no_timing", action="store_true", help="omit the timing field for byte-identical output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radchar",
        description="Character degree censuses for unipotent radicals of maximal parabolics, with brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("census", help="character degree census of one radical")
    pc.add_argument("--type", dest="x", required=True, choices=("C", "D", "U"))
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--q", type=int, default=None)
    pc.add_argument("--variant", choices=VARIANTS, default="corrected")
    pc.add_argument("--basis", choices=("q", "qminus1"), default="q")
    pc.add_argument("--oracle", action="store_true", help="cross-check against orbit and class oracles (needs --q)")
    _add_common(pc)

    pr = sub.add_parser("ranks", help="rank census polynomials for a symmetry class")
    pr.add_argument("--class", dest="cls", required=True, choices=tuple(CLASSES))
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--r", type=int, default=None)
    pr.add_argument("--q", type=int, default=None)
    pr.add_argument("--brute", action="store_true", help="compare with exhaustive enumeration (needs --q)")
    _add_common(pr)

    pv = sub.add_parser("verify", help="run named invariant suites")
    pv.add_argument("--suite", required=True, choices=tuple(SUITES) + ("all",))
    pv.add_argument("--max-n", dest="max_n", type=int, default=None)
    pv.add_argument("--q", type=int, nargs="+", default=None)
    _add_common(pv)
    return parser


# built on first use, then reused: no argument has a mutable default
_parser = functools.cache(build_parser)


COMMANDS = {"census": cmd_census, "ranks": cmd_ranks, "verify": cmd_verify}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        _check_budget(args.budget)
        record, code = COMMANDS[args.command](args)
    except (UsageError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render(record, args, time.perf_counter() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())
