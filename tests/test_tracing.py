"""The benchmark's span tracer still finds the library names it patches.

perfbench/tracing.py rebinds radchar functions and methods by name; a
renamed or reworked entry point would leave its spans silent and the
traced benchmark run would report zeros.  The module is imported from
its file, unmodified.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

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
