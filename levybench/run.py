"""Run one levyhedge benchmark workload for one seed.

    python3 levybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a levyhedge checkout; the package is imported from
``src/`` of that checkout.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Times are rescaled to a fixed machine speed (see
``Clock``).  The line before it records the machine, and the full
result (with every failure message) is written to
``.levybench/results/``.  See ``levybench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".levybench"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# Speed sampling; see ``Clock``.
SAMPLE_PERIOD_S = 0.1
# Time of one sampling step on this machine in its fast state: reported
# times are seconds at that speed.
STEP_NOMINAL_S = {"python": 0.002, "numpy": 0.0015}


def python_step(_state=None) -> None:
    """Fixed interpreter-bound work: float arithmetic and dict stores."""
    acc, table = 0.0, {}
    for i in range(10_000):
        x = (i % 97) * 1.0001
        acc += x * x - acc * 1e-9
        table[i & 1023] = acc


def numpy_step(array) -> None:
    """Fixed array work of the kind Monte Carlo pricing does."""
    import numpy

    for _ in range(20):
        numpy.maximum(array * 1.01 - 0.5, 0.0).mean()


class Clock:
    """Times calls in seconds of a machine of fixed speed.

    A shared machine's speed swings by up to a factor of two for stretches
    of seconds to minutes, and wall times swing with it.  While a call
    runs, a timer signal runs a fixed sampling step every
    ``SAMPLE_PERIOD_S``; the call's wall time less the sampling time is
    multiplied by ``STEP_NOMINAL_S`` over the median step time.  The step
    is interpreter-bound (``python``) or array-bound (``numpy``), after the
    work that dominates the workload, because the two slow down by
    different factors.  Nothing of levyhedge runs in a step.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.step = python_step if kind == "python" else numpy_step
        self.state = None
        if kind == "numpy":
            import numpy

            self.state = numpy.random.default_rng(0).random(50_000)
        self.wall: list[float] = []
        self.step_s: list[float] = []

    def _step_time(self) -> float:
        start = time.perf_counter()
        self.step(self.state)
        return time.perf_counter() - start

    @contextlib.contextmanager
    def timing(self):
        """Time the body.  On exit ``.seconds`` holds its rescaled time,
        ``.scale`` the factor that rescales wall time and ``.sampled`` the
        time spent sampling inside it."""
        result = types.SimpleNamespace(seconds=None, scale=None, sampled=None)
        samples: list[float] = []

        def sample(_signum, _frame):
            samples.append(self._step_time())

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - start   # after the last sample that can fire
            signal.signal(signal.SIGALRM, previous)
            result.sampled = sum(samples)
            net = wall - result.sampled
            samples.append(self._step_time())   # a body shorter than a period still gets one
            speed = statistics.median(samples)
            result.scale = STEP_NOMINAL_S[self.kind] / speed
            result.seconds = net * result.scale
            self.wall.append(net)
            self.step_s.append(speed)


def cap_threads() -> int:
    """Limit numeric-library thread pools to the usable cores; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import the package, generate inputs, print the time and exit")
    return parser.parse_args(argv)


def setup_probe(args) -> int:
    """Child side of a set-up probe: import levyhedge and generate the
    inputs, sampling this process's speed with the interpreter-bound step
    (importing is interpreter work).  Prints when it is ready, the scale
    and the time spent sampling."""
    clock = Clock("python")
    with clock.timing() as timing:
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, OUT / "work")
        workload.next_round()
    print(f"READY {time.time()!r} {timing.scale!r} {timing.sampled!r}", flush=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter until it has imported
    levyhedge and generated the workload's inputs, once per probe:
    rescaled as in ``Clock`` by the speed the probe sampled, and raw."""
    times, walls = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        spawned = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("setup probe timed out") from None
        ready = [ln for ln in out.splitlines() if ln.startswith("READY ")]
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        ready_at, scale, sampled = (float(v) for v in ready[-1].split()[1:])
        walls.append(ready_at - spawned)
        times.append((ready_at - spawned - sampled) * scale)
    return times, walls


def machine_details(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Runner:
    """Runs whole rounds of a workload's operations and keeps the tallies."""

    def __init__(self, workload, check_cls, clock: Clock):
        self.workload = workload
        self.clock = clock
        self.check_cls = check_cls
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.failures: dict[str, int] = {}
        self.rows = 0
        self.unchecked = 0
        self.op_time = 0.0
        self.durations: dict[str, list[float]] = {}

    def run_rounds(self, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Run rounds until ``seconds`` have passed; returns the time per
        operation of each untraced round and of each traced round.

        Without a tracer every round is untraced.  With one, rounds
        alternate untraced and traced, at least one of each, so that slow
        swings in the machine's speed fall on both sides alike."""
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while True:
            tracing = tracer is not None and len(untraced) > len(traced)
            if tracing:
                tracer.install()
            try:
                ops = self.workload.next_round()
                elapsed = sum(self._run_op(op, tracer if tracing else None) for op in ops)
            finally:
                if tracing:
                    tracer.uninstall()
            (traced if tracing else untraced).append(elapsed / len(ops))
            if time.perf_counter() >= deadline and (tracer is None or traced):
                return untraced, traced

    def _run_op(self, op, tracer) -> float:
        chk = self.check_cls()
        op.prepare()
        returned = None
        if tracer is not None:
            tracer.begin_op()
        with self.clock.timing() as timing:
            try:
                returned = op.run()
            except Exception:  # a failing operation is counted, the run goes on
                chk.require(False, "raised", traceback.format_exc(limit=4).strip())
        if tracer is not None:
            tracer.end_op()
        elapsed = timing.seconds
        self.attempted += 1
        self.op_time += elapsed
        if not chk.failures:
            try:
                self.rows += op.check(returned, chk)
            except Exception:  # an output the checks cannot read is a failure
                chk.require(False, "check_raised", traceback.format_exc(limit=4).strip())
            self.unchecked += op.unchecked
        if chk.failures:
            self.failed += 1
            for name, message in chk.failures:
                key = f"{op.kind}: {name}"
                if self.failures.get(key, 0) == 0:
                    print(f"FAILED {key}: {message}", file=sys.stderr)
                self.failures[key] = self.failures.get(key, 0) + 1
            if {name for name, _ in chk.failures} != {op.known_fault}:
                self.unexpected.extend(f"{op.kind}: {m}" for _, m in chk.failures)
        self.durations.setdefault(op.kind, []).append(elapsed)
        return elapsed


def run(args, nproc: int) -> dict:
    import oracles
    import workloads

    setup_times, setup_walls = measure_setup(args)

    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    clock = Clock(workload.clock)
    runner = Runner(workload, workloads.Check, clock)
    checks: dict[str, object] = {}

    # op_s is the median over rounds of a round's time per operation, so a
    # round mixing fast and slow kinds of operation counts as one sample.
    if not args.trace:
        per_op, _ = runner.run_rounds(args.seconds)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_s": {"value": statistics.median(per_op), "unit": "s"},
            "rows_per_s": {"value": runner.rows / runner.op_time, "unit": "rows/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        import tracer as tracing

        tracer = tracing.Tracer()
        untraced, traced = runner.run_rounds(args.seconds, tracer)
        metrics = tracer.layer_metrics()
        metrics["trace.op_s"] = {"value": statistics.median(traced), "unit": "s"}
        metrics["trace.untraced_op_s"] = {"value": statistics.median(untraced), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": metrics["trace.op_s"]["value"] - metrics["trace.untraced_op_s"]["value"],
            "unit": "s",
        }
        tracer.write_spans(OUT / "results" / f"spans-{args.workload}-seed{args.seed}.tsv")
        if tracer.first_table is not None:
            table = tracer.first_table
            bad = oracles.stencil_moment_violations(table.entries, table.half_width, table.p_max)
            checks["stencil_table"] = {"half_width": table.half_width, "p_max": table.p_max,
                                       "orders_failing_moment_conditions": bad}
            if bad:
                runner.unexpected.append(f"stencil table rows {bad} break the moment conditions")

    return {
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "details": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine_details(nproc),
            "setup_probes_s": setup_times,
            "setup_probes_wall_s": setup_walls,
            "clock": workload.clock,
            "step_s": clock.step_s,
            "op_wall_s": clock.wall,
            "rows": runner.rows,
            "unchecked_rows": runner.unchecked,
            "op_s_by_kind": runner.durations,
            "failures": runner.failures,
            "unexpected_failures": runner.unexpected[:20],
            "checks": checks,
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "levyhedge" / "__init__.py").is_file():
        print(f"levyhedge sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:   # the workload name was checked by the parent
        return setup_probe(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        result = run(args, nproc)
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)
    details = result.pop("details")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps({**result, **details}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
