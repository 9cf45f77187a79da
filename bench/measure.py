"""End-to-end measurement of one workload, as ``run``/``sweep`` drive the simulator.

Set-up is ``harness.build_environment``; a pass is ``harness.run`` of every
learner of the workload on the prebuilt environment, then ``harness.emit`` of
every trace. Timings are taken with tracing off and with a full collection of
the garbage collector before each timed region, so a collection of an earlier
region's garbage does not land in a later one.

Every timing is taken twice over: as measured, and scaled to a nominal
machine by a fixed reference kernel timed just before and just after it. On
a shared machine whose speed drifts by tens of percent over minutes, the
scaled figures are the steady ones, so the end-to-end metrics report them;
the record keeps both.
"""
from __future__ import annotations

import gc
import os
import platform
import statistics
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

from prudentbanker import harness

import checks
import spans

DEFAULT_SEED = 0
#: set-up samples per benchmark run; setup_s is their median
SETUP_SAMPLES = 7
#: a set-up or emit sample repeats the call until this much time has passed
#: and reports the mean per call, so millisecond calls are not timed singly
MIN_SAMPLE_SECONDS = 0.1
#: timed passes per benchmark run even when they outlast --seconds
MIN_SAMPLES = 3
MIB = float(1 << 20)
#: loop steps of the reference kernel, and the seconds it is taken to last on
#: the nominal machine (about its median on a 2-vCPU x86-64 VM, Python 3.11)
KERNEL_STEPS = 4000
KERNEL_NOMINAL_S = 0.04


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from its files; "unknown" elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path, workload: str, seed: int) -> dict:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "workload": workload,
        "seed": seed,
    }


def high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p90 with at least ten samples beyond it, if any."""
    n = len(samples)
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


class Run:
    """Counts attempted and failed simulator runs and the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, runs: int, problems: list[str]) -> None:
        """Count `runs` runs; all of them fail when there is any problem."""
        self.attempted += runs
        if problems:
            self.failed += runs
            self.problems.extend(problems)

    def crashed(self, runs: int, what: str) -> None:
        self.record(runs, [f"{what} raised:\n{traceback.format_exc()}"])


def reference_kernel() -> float:
    """Seconds of a fixed kernel with the simulator's mix of work.

    Small numpy calls, float arithmetic and formatting, and dict updates. It
    calls nothing of the program, so a change to the program leaves it as is.
    """
    x = np.linspace(0.05, 0.15, 10)
    acc, ring = 0.0, {}
    start = time.perf_counter()
    for i in range(KERNEL_STEPS):
        y = np.exp(x - x.max())
        y /= y.sum()
        acc += float(np.dot(y, x))
        ring[i % 64] = (i, f"{acc!r}")
    return time.perf_counter() - start


class Samples:
    """Timings of one metric, as measured and scaled to the nominal machine."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def take(self, timed, per: float = 1.0):
        """Call timed() -> (seconds, result) between two kernel timings; keep seconds/per.

        `per` turns seconds into the metric's unit (1e-6 × rounds for us/round).
        """
        before = reference_kernel()
        seconds, result = timed()
        after = reference_kernel()
        self.raw.append(seconds / per)
        self.scaled.append(seconds / per * 2.0 * KERNEL_NOMINAL_S / (before + after))
        return result

    def record(self) -> dict:
        return {"raw": self.raw, "scaled": self.scaled}


def time_once(fn) -> tuple[float, object]:
    """Time of one call of fn() after a full collection, and its result."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def time_per_call(fn) -> tuple[float, object]:
    """Mean time of fn() over calls repeated for MIN_SAMPLE_SECONDS, and its last result."""
    gc.collect()
    calls = 0
    start = time.perf_counter()
    while True:
        result = fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SAMPLE_SECONDS:
            return elapsed / calls, result


def time_setup(workload, seed: int, samples: int):
    env = workload.environment(seed)
    setup = Samples()
    for _ in range(samples):
        table, delays = setup.take(lambda: time_per_call(lambda: harness.build_environment(env)))
    return (table, delays), setup


def run_pass(workload, seed: int, table, delays) -> list:
    return [harness.run(config, table, delays, keep_learner=True)
            for config in workload.configs(seed)]


def reference_problems(reference: list[dict], traces: list) -> list[str]:
    """Differences between default-seed summaries and the stored reference."""
    if len(reference) != len(traces):
        return ["reference: number of learners differs"]
    return [f"reference: {p}" for want, trace in zip(reference, traces)
            for p in checks.compare_summary(want, trace.summary)]


def reference_pass(workload, reference: list[dict], run: Run) -> None:
    """Untimed default-seed pass, checked against the stored reference."""
    n = len(workload.learners)
    try:
        table, delays = harness.build_environment(workload.environment(DEFAULT_SEED))
        traces = run_pass(workload, DEFAULT_SEED, table, delays)
    except Exception:
        run.crashed(n, "reference pass")
        return
    problems = [p for trace in traces for p in checks.check_trace(trace)]
    run.record(n, problems + reference_problems(reference, traces))


def timed_passes(workload, seed: int, table, delays, seconds: float, tmp: Path,
                 run: Run, reference: list[dict] | None = None) -> dict:
    """Time passes for `seconds` (at least MIN_SAMPLES) and check each one.

    With a reference, the first pass's summaries are checked against it.
    """
    n = len(workload.learners)
    round_us, emit_s = Samples(), Samples()
    first_csvs = None
    deadline = time.perf_counter() + seconds
    while len(round_us.raw) < MIN_SAMPLES or time.perf_counter() < deadline:
        traces = None
        try:
            traces = round_us.take(lambda: time_once(
                lambda: run_pass(workload, seed, table, delays)), per=workload.rounds * 1e-6)
            paths = emit_s.take(lambda: time_per_call(
                lambda: [harness.emit(trace, tmp / f"pass{i}")[0]
                         for i, trace in enumerate(traces)]))
            csvs = [path.read_bytes() for path in paths]
        except Exception:
            run.crashed(n, "timed pass")
            if time.perf_counter() >= deadline:
                break
            continue
        problems = [p for trace in traces for p in checks.check_trace(trace)]
        if first_csvs is None:
            first_csvs = csvs
            if reference is not None:
                problems += reference_problems(reference, traces)
        problems += [p for i, (want, got) in enumerate(zip(first_csvs, csvs))
                     for p in checks.compare_csv(want, got, f"{workload.learners[i]} pass")]
        run.record(n, problems)
    return {"round_us": round_us, "emit_s": emit_s, "first_csvs": first_csvs}


def peak_mib(workload, seed: int, run: Run) -> float | None:
    """tracemalloc peak over set-up and one run of every learner, as sweep does."""
    n = len(workload.learners)
    gc.collect()
    tracemalloc.start()
    try:
        table, delays = harness.build_environment(workload.environment(seed))
        for config in workload.configs(seed):
            # as in sweep, a trace is freed only once the next run returns
            trace = harness.run(config, table, delays)  # noqa: F841
        peak = tracemalloc.get_traced_memory()[1]
    except Exception:
        run.crashed(n, "tracemalloc pass")
        return None
    finally:
        tracemalloc.stop()
    run.record(n, [])
    return peak / MIB


def measure(workload, seed: int, seconds: float, trace: bool, root: Path,
            out_dir: Path) -> dict:
    """One benchmark run of one workload; returns the result record."""
    meta = metadata(root, workload.name, seed)
    reference = checks.load_reference(workload.name)
    run = Run()
    out_dir.mkdir(parents=True, exist_ok=True)
    (table, delays), setup = time_setup(workload, seed, 1 if trace else SETUP_SAMPLES)
    metrics = {}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        on_default_seed = seed == DEFAULT_SEED
        timed = timed_passes(workload, seed, table, delays, seconds, Path(tmp), run,
                             reference if on_default_seed else None)
        round_us, emit_s = timed["round_us"], timed["emit_s"]
        if not on_default_seed:
            reference_pass(workload, reference, run)
        if not round_us.raw:
            raise RuntimeError("no pass of the workload completed:\n" + "\n".join(run.problems))
        if trace:
            metrics = traced_metrics(workload, seed, timed["first_csvs"],
                                     statistics.median(round_us.raw), Path(tmp), out_dir, run)
        else:
            metrics = {
                "round_us": (statistics.median(round_us.scaled), "us/round"),
                "setup_s": (statistics.median(setup.scaled), "s"),
                "emit_s": (statistics.median(emit_s.scaled), "s"),
            }
            peak = peak_mib(workload, seed, run)
            if peak is not None:
                metrics["peak_mib"] = (peak, "MiB")
    meta["loadavg_end"] = list(os.getloadavg())
    high = high_percentile(round_us.scaled)
    return {
        "metadata": meta,
        "trace": int(trace),
        "metrics": metrics,
        "measured": {"round_us": statistics.median(round_us.raw),
                     "setup_s": statistics.median(setup.raw),
                     "emit_s": statistics.median(emit_s.raw)},
        "round_us_samples": len(round_us.raw),
        "round_us_high_percentile": None if high is None else {"p": high[0], "value": high[1]},
        "failed_frac": run.failed / run.attempted,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "samples": {"round_us": round_us.record(), "setup_s": setup.record(),
                    "emit_s": emit_s.record()},
    }


def traced_metrics(workload, seed: int, untraced_csvs: list[bytes], round_us: float,
                   tmp: Path, out_dir: Path, run: Run) -> dict:
    """Per-layer metrics; round_us is the untraced pass time as measured."""
    n = len(workload.learners)
    try:
        gc.collect()
        tracer, traces, csvs, wall = spans.traced_pass(workload, seed, tmp)
    except Exception:
        run.crashed(n, "traced pass")
        return {}
    problems = [p for trace in traces for p in checks.check_trace(trace)]
    problems += [p for i, (want, got) in enumerate(zip(untraced_csvs, csvs))
                 for p in checks.compare_csv(want, got, f"{workload.learners[i]} traced")]
    run.record(n, problems)
    tracer.write(out_dir / f"spans-{workload.name}.csv.gz")
    values = spans.layer_metrics(tracer, traces, wall, workload.rounds, round_us)
    return {name: (value, spans.layer_unit(name)) for name, value in values.items()}
