"""Self-test of the benchmark's correctness gate.

Runs small ops through the same gate the benchmark applies, each once as
is and once with a deliberately corrupted expectation, and exits 1 unless
every intact op passes and every corrupted one is counted as failed.  It
also checks the pinned character totals against radchar's closed form, and
that BENCHMARK.json names the workloads and metrics the benchmark reports.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import warnings

import run
import speed
import tracing
import workloads


def _raises():
    raise RuntimeError("deliberate failure")


def main() -> int:
    sys.path.insert(0, run.SRC)
    import radchar.cli  # noqa: F401

    warnings.filterwarnings("ignore", message=".*outside the standard Dynkin range.*", category=UserWarning)
    # (label, intact op or None, corrupted op)
    cases = [
        ("oracle class count", workloads.oracle_op("C", 3, 1, 3),
         workloads.oracle_op("C", 3, 1, 3, expected_total=workloads.CHARACTER_TOTALS[("C", 3, 1, 3)] + 1)),
        ("orbit partition character total", workloads.orbit_op("C", 2, 1, 3),
         workloads.orbit_op("C", 2, 1, 3, expected_total=workloads.CHARACTER_TOTALS[("C", 2, 1, 3)] - 1)),
        ("census exit code", workloads.census_op("C", 3, 1, 7), workloads.census_op("C", 3, 5, 7)),
        ("op that raises", None, workloads.Op("raises", _raises, lambda result: [])),
    ]
    bad = 0
    sampler = speed.Sampler()
    for label, intact, corrupted in cases:
        if intact is not None:
            record = run.run_pass([intact], sampler)
            if record.failed:
                bad += 1
                print(f"FAIL {label}: intact op failed: {record.problems}")
        record = run.run_pass([corrupted], sampler)
        if record.failed != 1:
            bad += 1
            print(f"FAIL {label}: corrupted op was not counted as failed")
        else:
            print(f"ok   {label}: corrupted op counted as failed ({record.problems[0]})")

    from radchar import RadicalParams, census_table

    for (x, n, d, q), total in sorted(workloads.CHARACTER_TOTALS.items()):
        closed = census_table(RadicalParams(x, n, d)).total_poly().eval_at(q)
        if closed != total:
            bad += 1
            print(f"FAIL pinned total {x}({n},{d}) q={q}: {total}, closed form {closed}")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = (
        [w["name"] for w in spec["workloads"]],
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )
    if declared != (list(workloads.WORKLOADS), list(run.END_TO_END), list(tracing.PER_LAYER)):
        bad += 1
        print("FAIL BENCHMARK.json workloads or metrics differ from the ones the benchmark reports")
    print(f"{'ok' if not bad else 'FAIL'}: {bad} problems", file=sys.stderr if bad else sys.stdout)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
