"""radchar benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py.  A run imports radchar from
``src/``, runs one untimed warm-up op, then repeats passes over the
workload's ops (each op starts after the previous one ends, one thread)
while another pass fits in ``--seconds``, at least one pass.  Every op goes
through the correctness gate.  One oracle_large pass takes 9-20 s of wall
clock on a 2-vCPU Xeon, so at 20 s that workload mostly measures a single
pass of seven ops.

Timings of ops and traced spans are scaled to a reference machine speed
(see speed.py): each op's time, and the time of every span inside it, is
multiplied by the machine's speed while the op ran, sampled from a timer
signal, so that a shared CPU changing speed moves the numbers far less.
An op too short to hold MIN_CHUNK_SAMPLES speed samples shares the speed
of the consecutive ops around it.  The raw wall-clock pass time is printed
beside them.  The benchmark's metrics are:

- setup_s: median over SETUP_SAMPLES fresh interpreters of the time to
  import radchar and radchar.cli, each scaled by the speed its own
  interpreter sampled during the import;
- wall_s: median over the run's passes of the summed op times of a pass;
- ops_per_s: ops per second of summed op time;
- op_p50_ms, op_p90_ms: percentiles of all op times of the run;
- peak_rss_mb: peak resident memory of the benchmark process.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate, at least one of
each, so a traced run takes over twice ``--seconds`` when one pass is most
of it, and the last line reports the per-layer metrics of the traced
passes (see tracing.py).  Lines before it, each starting with ``#``, give
the environment, the seed, the calibration kernel's timing, op sample
counts, the failed ratio and the workload's work rates (elements_per_s,
matrices_per_s, duals_per_s, rows_per_s).

Exits 2 without a result when ``src/radchar`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 9
# The interpreter samples its own speed every SETUP_PERIOD_S with the
# pure-Python kernel while it imports, and prints the import's seconds and
# that speed.  sample() after the import makes sure of one sample.
SETUP_PERIOD_S = 0.005
SETUP_CODE = f"""\
import speed
sampler = speed.Sampler(kernels=(speed.RATIONAL,), period_s={SETUP_PERIOD_S})
sampler.start()
start = sampler.clock()
import radchar, radchar.cli
elapsed = sampler.clock() - start
sampler.stop()
sampler.sample()
print(elapsed, sampler.speed(sampler.durations))
"""
# numpy's BLAS pool (radchar does no BLAS work) starts helper threads on
# import that spin; whether the other CPU was free for them moved import
# time by about 1.5x, so the interpreters timing the import get one thread.
SETUP_ENV = {"PYTHONPATH": os.pathsep.join((SRC, HERE)), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# (name, unit); each is reported on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# work rates: work key of an op -> rate name
RATES = {"elements": "elements_per_s", "matrices": "matrices_per_s", "duals": "duals_per_s", "rows": "rows_per_s"}

# ops are scaled in runs of consecutive ops that hold at least this many
# speed samples; an op that holds that many alone is scaled by its own.
# Against one speed per pass, this cut the seed-to-seed spread of op_p50_ms
# on every workload (0.04-0.07 of the median against 0.09-0.12, five seeds
# each on a 2-vCPU Xeon) and left wall_s unchanged.
MIN_CHUNK_SAMPLES = 5


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import radchar and its CLI."""
    env = dict(os.environ, **SETUP_ENV)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, factor = map(float, done.stdout.split())
        samples.append(elapsed * factor)
    return statistics.median(samples)


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


class Pass:
    """Op timings, speed samples, work and failures of one pass over a workload."""

    def __init__(self, speed_of):
        self.speed_of = speed_of  # kernel timings -> relative machine speed
        self.raw: list[float] = []  # op seconds by the sampler's clock
        self.samples: list[list[tuple]] = []  # speed samples taken during each op
        self.layers: list[dict] = []  # traced: the tracer's totals after each op
        self.works: list[dict] = []
        self.problems: list[str] = []
        self.failed = 0

    def factors(self) -> list[float]:
        """Each op's speed relative to the reference."""
        out: list[float] = []
        ops = 0
        samples: list[tuple] = []
        for s in self.samples:
            ops += 1
            samples.extend(s)
            if len(samples) >= MIN_CHUNK_SAMPLES:
                out += [self.speed_of(samples)] * ops
                ops, samples = 0, []
        # the last ops hold too few samples of their own
        return out + [self.speed_of([d for op in self.samples for d in op])] * ops

    def latencies(self) -> list[float]:
        """Op seconds at the reference speed."""
        return [t * f for t, f in zip(self.raw, self.factors())]

    def wall(self) -> float:
        return sum(self.latencies())


def run_op(op, record: Pass, sampler, tracer=None) -> None:
    first_sample = len(sampler.durations)
    start = sampler.clock()
    problems = []
    try:
        result = tracer.span("bench.op", op.call) if tracer else op.call()
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        problems = [f"raised {type(exc).__name__}: {exc}"]
        traceback.print_exc(file=sys.stderr)
    elapsed = sampler.clock() - start
    samples = sampler.durations[first_sample:]
    if not problems:
        try:
            problems = op.check(result)
        except (workloads.OpFailed, KeyError, TypeError, ValueError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
    record.raw.append(elapsed)
    record.samples.append(samples)
    if tracer:
        record.layers.append(tracer.metrics())
    record.works.append(op.work)
    if problems:
        record.failed += 1
        record.problems.extend(f"{op.label}: {p}" for p in problems)


def run_pass(ops, sampler, tracer=None) -> Pass:
    record = Pass(sampler.speed)
    for op in ops:
        run_op(op, record, sampler, tracer)
    return record


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    latencies = [t for p in passes for t in p.latencies()]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall() for p in passes),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def work_rates(passes: list[Pass]) -> dict[str, float]:
    amount: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for p in passes:
        for t, work in zip(p.latencies(), p.works):
            for key, value in work.items():
                amount[key] = amount.get(key, 0) + value
                seconds[key] = seconds.get(key, 0.0) + t
    return {RATES[key]: amount[key] / seconds[key] for key in amount}


def scaled_layers(record: Pass) -> dict[str, float]:
    """A traced pass's per-layer values, each op's span times scaled as the op."""
    units = dict(tracing.PER_LAYER)
    factors = record.factors()
    out = dict(record.layers[-1])  # counts are the pass totals
    for name in out:
        if units[name] == "s":
            before = [0.0] + [layer[name] for layer in record.layers]
            out[name] = sum((b - a) * f for a, b, f in zip(before, before[1:], factors))
    return out


def per_layer(untraced: list[Pass], traced: list[Pass], kernel_s: float) -> dict[str, float]:
    scaled = [scaled_layers(p) for p in traced]
    out = {name: statistics.median(s[name] for s in scaled) for name in scaled[0]}
    out["trace.wall_s"] = statistics.median(p.wall() for p in traced)
    out["trace.untraced_wall_s"] = statistics.median(p.wall() for p in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["bench.calibration_s"] = kernel_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="radchar benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "radchar", "__init__.py")):
        print(f"error: no radchar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import radchar.cli  # noqa: F401  (the ops look the package up in sys.modules)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    # the matrix model of small C and D radicals warns on every construction
    warnings.filterwarnings("ignore", message=".*outside the standard Dynkin range.*", category=UserWarning)

    env = environment()
    ops = workloads.build(args.workload, args.seed)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# ops " + json.dumps([op.label for op in ops]))
    if not args.trace:
        setup_s = setup_seconds()

    sampler = speed.Sampler()
    sampler.start()
    try:
        warm = run_pass([workloads.oracle_op(*workloads.WARMUP)], sampler)
        untraced: list[Pass] = []
        traced: list[Pass] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            untraced.append(run_pass(ops, sampler))
            if args.trace:
                tracer = tracing.Tracer(sampler.clock)
                with tracing.installed(tracer):
                    traced.append(run_pass(ops, sampler, tracer))
            # stop unless another round of passes fits before the deadline
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
    finally:
        sampler.stop()

    all_passes = [warm] + untraced + traced
    attempted = sum(len(p.raw) for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    for problem in [x for p in all_passes for x in p.problems][:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    kernel_s = statistics.median(sum(s) for s in sampler.durations)
    reference_s = sum(reference for _kernel, reference in sampler.kernels)
    print(f"# calibration kernels median {kernel_s:.6g} s over {len(sampler.durations)} samples "
          f"(reference {reference_s:g} s); mean speed {sampler.speed(sampler.durations):.4f}")
    if args.trace:
        metrics = per_layer(untraced, traced, kernel_s)
        units = dict(tracing.PER_LAYER)
        print("# predictions " + json.dumps(tracing.PREDICTIONS, sort_keys=True))
    else:
        metrics = end_to_end(untraced, setup_s)
        units = dict(END_TO_END)
        print(f"# raw wall-clock wall_s {statistics.median(sum(p.raw) for p in untraced):.6g} s")
    samples = sum(len(p.raw) for p in untraced)
    print(f"# passes {len(untraced)} untraced, {len(traced)} traced; {samples} op samples untraced")
    print(f"# failed_ratio {failed / attempted} ({failed}/{attempted})")
    for name, value in work_rates(untraced).items():
        print(f"# {name} {value:.6g} 1/s")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
