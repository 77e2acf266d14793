"""The benchmark's span tracer still finds the library names it patches.

perfbench/tracing.py rebinds radchar functions and methods by name; a
renamed or reworked entry point would leave its spans silent and the
traced benchmark run would report zeros.  The module is imported from
its file, unmodified.
"""

import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import radchar.cli
from radchar.orbitmethod import RadicalContext, RadicalParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_census_oracle_fires_the_orbit_spans():
    tracing = _load_tracing()
    generators = RadicalContext.generators
    argv = ["census", "--type", "C", "--n", "3", "--d", "2", "--q", "3", "--oracle", "--format", "json", "--no-timing"]
    with tracing.installed(tracing.Tracer()) as tracer, redirect_stdout(io.StringIO()):
        assert radchar.cli.main(argv) == 0
    for span in (
        "orbitmethod.generators",
        "orbitmethod.class_count",
        "orbitmethod.orbit_census",
        "orbitmethod.orbit_partition",
    ):
        assert tracer.calls[span] > 0, span
    # orbit_census folds orbit_partition, whose walk applies every
    # H-generator to each of the 3**5 duals
    ctx = RadicalContext(RadicalParams("C", 3, 2), 3)
    applications = 3 ** 7 * len(ctx.generators()) + 3 ** 5 * len(ctx.h_generators())
    assert tracer.counts["orbitmethod.generator_applications"] == applications
    assert RadicalContext.generators is generators


def _traced_main(tracing, argv):
    with tracing.installed(tracing.Tracer()) as tracer, redirect_stdout(io.StringIO()) as out:
        assert radchar.cli.main(argv + ["--format", "json", "--no-timing"]) == 0
    return tracer, json.loads(out.getvalue())


@pytest.mark.parametrize("x, n, d, rows", [("C", 4, 2, 3), ("D", 6, 5, 3), ("U", 4, 3, 4)])
def test_traced_symbolic_census_counts_one_closed_form_per_row(x, n, d, rows):
    tracing = _load_tracing()
    tracer, record = _traced_main(tracing, ["census", "--type", x, "--n", str(n), "--d", str(d), "--basis", "qminus1"])
    assert len(record["rows"]) == rows
    assert tracer.calls["census.closed_form"] == rows
    assert tracer.metrics()["census.closed_form_calls"] == rows


@pytest.mark.parametrize("cls, n, size", [("sym", 3, 3 ** 6), ("skew", 4, 3 ** 6), ("herm", 2, 9 ** 2)])
def test_traced_brute_ranks_count_the_whole_class(cls, n, size):
    tracing = _load_tracing()
    tracer, record = _traced_main(tracing, ["ranks", "--class", cls, "--n", str(n), "--q", "3", "--brute"])
    assert record["brute"]["match"] is True
    assert tracer.calls["census.brute_rank_census"] == 1
    assert tracer.metrics()["census.brute_matrices"] == size
