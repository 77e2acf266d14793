"""Span tracer that wraps radchar's public functions from outside.

The library has no instrumentation of its own, so the traced run rebinds
each public function named in WRAPPED at every module that imports it
(``rank`` is bound in ``radchar.falinalg``, ``radchar.census`` and
``radchar.orbitmethod``; the oracle entry points again in ``radchar.cli``)
and patches the class attributes of methods.  ``installed`` restores every
binding on exit, so untraced passes run the unmodified library.

Spans nest on one stack (the benchmark is single threaded).  When a span
ends, its duration is added to its name's inclusive time and to the open
parent's child time; self time is duration minus child time.  A call that
re-enters the span already on top of the stack (``generators`` calling
``h_generators``) stays inside that span instead of opening a new one.
Generators are wrapped so that the time spent inside each ``next`` is a
span of its own and the items yielded are counted.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("gf", "qpoly", "falinalg", "census", "orbitmethod", "charcensus", "cli")

# (module, attribute, span name, kind); kind "iter" also times each next().
# Dotted attributes are methods patched on their class.
WRAPPED = (
    ("gf", "FieldCtx.__init__", "gf.field_build", "call"),
    ("qpoly", "QPoly.exact_div", "qpoly.exact_div", "call"),
    ("qpoly", "QPoly.to_qminus1_basis", "qpoly.qminus1", "call"),
    ("census", "sym_rank_census", "census.closed_form", "call"),
    ("census", "skew_rank_census", "census.closed_form", "call"),
    ("census", "skewherm_rank_census", "census.closed_form", "call"),
    ("census", "brute_rank_census", "census.brute_rank_census", "call"),
    ("falinalg", "enumerate_class", "falinalg.enumerate_class", "iter"),
    ("falinalg", "rank", "falinalg.rank", "call"),
    ("orbitmethod", "RadicalContext.elements", "orbitmethod.elements", "iter"),
    ("orbitmethod", "RadicalContext.duals", "orbitmethod.duals", "iter"),
    ("orbitmethod", "RadicalContext.generators", "orbitmethod.generators", "call"),
    ("orbitmethod", "RadicalContext.h_generators", "orbitmethod.generators", "call"),
    ("orbitmethod", "class_count_brute", "orbitmethod.class_count", "call"),
    ("orbitmethod", "orbit_partition", "orbitmethod.orbit_partition", "call"),
    ("orbitmethod", "orbit_census", "orbitmethod.orbit_census", "call"),
    ("charcensus", "census_table", "charcensus.census_table", "call"),
    ("charcensus", "qminus1_report", "charcensus.qminus1_report", "call"),
    ("cli", "build_parser", "cli.parse", "call"),
    ("cli", "render", "cli.render", "call"),
)

# per-layer metrics of one traced pass: (name, unit); times are in seconds
PER_LAYER = (
    ("gf.field_build_s", "s"),
    ("gf.field_builds", "count"),
    ("gf.table_bytes", "bytes"),
    ("qpoly.exact_div_s", "s"),
    ("qpoly.exact_div_calls", "count"),
    ("qpoly.qminus1_s", "s"),
    ("qpoly.qminus1_calls", "count"),
    ("census.closed_form_s", "s"),
    ("census.closed_form_calls", "count"),
    ("census.brute_rank_census_s", "s"),
    ("census.brute_matrices", "count"),
    ("falinalg.enumerate_class_s", "s"),
    ("falinalg.enumerate_class_items", "count"),
    ("falinalg.rank_s", "s"),
    ("falinalg.rank_calls", "count"),
    ("orbitmethod.elements_s", "s"),
    ("orbitmethod.elements_items", "count"),
    ("orbitmethod.generators_s", "s"),
    ("orbitmethod.class_count_s", "s"),
    ("orbitmethod.class_walk_self_s", "s"),
    ("orbitmethod.duals_s", "s"),
    ("orbitmethod.duals_items", "count"),
    ("orbitmethod.orbit_partition_s", "s"),
    ("orbitmethod.orbit_walk_self_s", "s"),
    ("orbitmethod.orbit_census_s", "s"),
    ("orbitmethod.generator_applications", "count"),
    ("orbitmethod.mm_lookups", "count"),
    ("charcensus.census_table_s", "s"),
    ("charcensus.census_table_calls", "count"),
    ("charcensus.qminus1_report_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.command_s", "s"),
    ("cli.render_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS + ("bench",)) + (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("bench.calibration_s", "s"),
)

# Which end-to-end metric, on which workload, each layer metric should move.
# Later changes cite these by metric name.
PREDICTIONS = {
    "gf": "wall_s on verify_all (fields are rebuilt per check) and peak_rss_mb",
    "qpoly": "rows_per_s and op_p90_ms on symbolic_sweep",
    "census.closed_form": "rows_per_s on symbolic_sweep",
    "census.brute_rank_census": "matrices_per_s on verify_all",
    "falinalg": "matrices_per_s on verify_all",
    "orbitmethod.elements/generators/class_count": "elements_per_s on oracle_large, then on verify_all",
    "orbitmethod.duals/orbit_partition/orbit_census": "duals_per_s on oracle_large",
    "orbitmethod.generator_applications/mm_lookups": "elements_per_s and duals_per_s",
    "charcensus": "rows_per_s on symbolic_sweep and wall_s on verify_all",
    "cli": "op_p50_ms on symbolic_sweep",
}


def _field_table_bytes(q: int, extension: bool) -> int:
    # computed from q: add, sub, mul are q*q int16 tables; neg, inv (and
    # frob for an extension) are length-q int16 vectors
    return 2 * (3 * q * q + (3 if extension else 2) * q)


class Tracer:
    """Spans aggregated per name, plus work counters, for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.last_generators = 0

    def span(self, name, fn, *args, **kwargs):
        stack = self.stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            stack.pop()
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += elapsed

    def after(self, name, args, result) -> None:
        """Work counters derived from a finished call's arguments and result."""
        if name == "gf.field_build":
            field = args[0]
            self.counts["gf.table_bytes"] += _field_table_bytes(field.q, field.base is not None)
        elif name == "census.brute_rank_census":
            self.counts["census.brute_matrices"] += sum(result.values())
        elif name == "orbitmethod.generators":
            self.last_generators = len(result)
        elif name == "orbitmethod.class_count":
            # the class BFS pops every group element once and applies every
            # generator to it
            params, q = args[0], args[1]
            order = getattr(q, "q", q) ** params.order_exponent
            self._applications(order * self.last_generators, params.n)
        elif name == "orbitmethod.orbit_partition":
            # the orbit BFS pops every dual once and applies every H-generator
            ctx = args[0]
            self._applications(ctx.dual_count() * self.last_generators, ctx.n)

    def _applications(self, count: int, n: int) -> None:
        self.counts["orbitmethod.generator_applications"] += count
        # computed: g X g^-1 is two (2n)^3 table-lookup products, each entry
        # update one MUL and one ADD lookup
        self.counts["orbitmethod.mm_lookups"] += count * 4 * (2 * n) ** 3

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this pass, keyed as in PER_LAYER."""
        t, c = self.total_s, self.calls
        out = {
            "gf.field_build_s": t["gf.field_build"],
            "gf.field_builds": c["gf.field_build"],
            "gf.table_bytes": self.counts["gf.table_bytes"],
            "qpoly.exact_div_s": t["qpoly.exact_div"],
            "qpoly.exact_div_calls": c["qpoly.exact_div"],
            "qpoly.qminus1_s": t["qpoly.qminus1"],
            "qpoly.qminus1_calls": c["qpoly.qminus1"],
            "census.closed_form_s": t["census.closed_form"],
            "census.closed_form_calls": c["census.closed_form"],
            "census.brute_rank_census_s": t["census.brute_rank_census"],
            "census.brute_matrices": self.counts["census.brute_matrices"],
            "falinalg.enumerate_class_s": t["falinalg.enumerate_class"],
            "falinalg.enumerate_class_items": self.counts["falinalg.enumerate_class_items"],
            "falinalg.rank_s": t["falinalg.rank"],
            "falinalg.rank_calls": c["falinalg.rank"],
            "orbitmethod.elements_s": t["orbitmethod.elements"],
            "orbitmethod.elements_items": self.counts["orbitmethod.elements_items"],
            "orbitmethod.generators_s": t["orbitmethod.generators"],
            "orbitmethod.class_count_s": t["orbitmethod.class_count"],
            "orbitmethod.class_walk_self_s": self.self_s["orbitmethod.class_count"],
            "orbitmethod.duals_s": t["orbitmethod.duals"],
            "orbitmethod.duals_items": self.counts["orbitmethod.duals_items"],
            "orbitmethod.orbit_partition_s": t["orbitmethod.orbit_partition"],
            "orbitmethod.orbit_walk_self_s": self.self_s["orbitmethod.orbit_partition"],
            "orbitmethod.orbit_census_s": t["orbitmethod.orbit_census"],
            "orbitmethod.generator_applications": self.counts["orbitmethod.generator_applications"],
            "orbitmethod.mm_lookups": self.counts["orbitmethod.mm_lookups"],
            "charcensus.census_table_s": t["charcensus.census_table"],
            "charcensus.census_table_calls": c["charcensus.census_table"],
            "charcensus.qminus1_report_s": t["charcensus.qminus1_report"],
            "cli.parse_s": t["cli.parse"],
            "cli.command_s": t["cli.command"],
            "cli.render_s": t["cli.render"],
        }
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = sum(
                s for name, s in self.self_s.items() if name.split(".", 1)[0] == layer
            )
        return out


class _TimedIter:
    def __init__(self, tracer: Tracer, name: str, it):
        self.tracer, self.name, self.it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        item = self.tracer.span(self.name, next, self.it)
        self.tracer.counts[self.name + "_items"] += 1
        return item


def _wrapper(tracer: Tracer, name: str, kind: str, fn):
    def traced(*args, **kwargs):
        result = tracer.span(name, fn, *args, **kwargs)
        if kind == "iter":
            return _TimedIter(tracer, name, result)
        tracer.after(name, args, result)
        return result

    return traced


def _parser_wrapper(tracer: Tracer, fn):
    # parse time is building the parser plus parse_args on it
    def traced(*args, **kwargs):
        parser = tracer.span("cli.parse", fn, *args, **kwargs)
        parse_args = parser.parse_args
        parser.parse_args = lambda *a, **kw: tracer.span("cli.parse", parse_args, *a, **kw)
        return parser

    return traced


def _radchar_modules():
    return [m for name, m in list(sys.modules.items()) if name == "radchar" or name.startswith("radchar.")]


@contextmanager
def installed(tracer: Tracer):
    """Route radchar's public functions through ``tracer`` inside the block."""
    commands = sys.modules["radchar.cli"].COMMANDS
    saved_commands = dict(commands)
    restore = []
    try:
        for module_name, attr, name, kind in WRAPPED:
            module = sys.modules[f"radchar.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                restore.append((cls, method, original))
                setattr(cls, method, _wrapper(tracer, name, kind, original))
                continue
            original = getattr(module, attr)
            if attr == "build_parser":
                wrapped = _parser_wrapper(tracer, original)
            else:
                wrapped = _wrapper(tracer, name, kind, original)
            for site in _radchar_modules():
                for bound_name, value in list(vars(site).items()):
                    if value is original:
                        restore.append((site, bound_name, original))
                        setattr(site, bound_name, wrapped)
        for key, fn in saved_commands.items():
            commands[key] = _wrapper(tracer, "cli.command", "call", fn)
        yield tracer
    finally:
        commands.update(saved_commands)
        for target, attr, original in reversed(restore):
            setattr(target, attr, original)
