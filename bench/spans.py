"""Traced pass: spans around the public callables of every layer on the path.

The program is not changed. For the duration of one pass, each callable is
replaced, at every place its callers look it up, by a wrapper that records a
span ``(name, round, start, end, parent)`` in memory; every original is put
back in a ``finally``. Counters are taken at the same boundaries. A layer's
self time is the duration of its spans minus the part their child spans
cover, so the self times of all spans add up to the wall time the spans
cover; what the spans do not cover is reported as unattributed.
"""
from __future__ import annotations

import csv
import gzip
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from prudentbanker import banker, baselines, harness, mirror, protocol, prudent, rng
from prudentbanker.mirror import NEG_ENTROPY, TSALLIS_HALF

import checks

CONJ_NAMES = {NEG_ENTROPY: "mirror.conj.negent", TSALLIS_HALF: "mirror.conj.tsallis"}

#: learner name of each baseline class on a workload's path
BASELINE_LEARNERS = {
    baselines.SafeExp3IX: "safe-exp3ix",
    baselines.ConservativeUCB: "conservative-ucb",
    baselines.PlayDistribution: "play-comparator",
}


def _conj_name(args) -> str:
    return CONJ_NAMES[args[0].kind]


# -- counters taken at the layer boundaries ----------------------------------

def _observe_ledger(tracer, args):
    """Before begin_round: ledger size and outstanding feedback of the round."""
    ledger = args[0]
    c = tracer.counters
    c["banker.live_records.max"] = max(c["banker.live_records.max"], len(ledger.records))
    c["outstanding.sum"] += len(ledger.missing)
    c["outstanding.rounds"] += 1


def _count_borrow(tracer, args, result):
    """After _allocate(t, sigma) -> (allocation, borrow)."""
    tracer.counters["sigma.sum"] += args[2]
    tracer.counters["borrow.sum"] += result[1]


def _count_ingest(tracer, args, result):
    if result is not None:
        tracer.counters["ingest.applied"] += 1


def _count_enqueue(tracer, args, result):
    queue, event = args[0], args[1]
    if event.arrival_round > queue.horizon:
        tracer.counters["protocol.events.dropped"] += 1


def _count_step(tracer, args, result):
    tracer.counters["protocol.events.delivered"] += len(result)


def sites() -> list[tuple]:
    """(owner, attribute, span name, before hook, after hook) of every patch.

    A function imported by name into another module is patched in both
    places. ``FeedbackEvent`` is patched only in ``harness``, its one caller
    on the path, so the class keeps its identity in ``protocol``.
    """
    out = []
    for owner in (mirror, banker):
        out.append((owner, "grad_psi_star_with_dual", _conj_name, None, None))
        out.append((owner, "grad_psi", "mirror.grad_psi", None, None))
    out += [
        (banker.BankerOMD, "begin_round", "banker.begin_round", _observe_ledger, None),
        (banker.BankerOMD, "commit", "banker.commit", None, None),
        (banker.BankerOMD, "ingest", "banker.ingest", None, _count_ingest),
        (banker.BankerOMD, "_allocate", "banker.allocate", None, _count_borrow),
        (banker, "step_size", "banker.step_size", None, None),
        (prudent.PrudentBanker, "act", "prudent.act", None, None),
        (prudent.PrudentBanker, "receive", "prudent.receive", None, None),
        (prudent, "gap_statistic", "prudent.gap_statistic", None, None),
        (harness, "build_environment", "harness.build_environment", None, None),
        (harness, "run", "harness.run", None, None),
        (harness, "pseudo_loss", "harness.pseudo_loss", None, None),
        (harness.RunTrace, "csv_string", "harness.csv_string", None, None),
        (harness, "emit", "harness.emit", None, None),
        (harness, "FeedbackEvent", "protocol.FeedbackEvent", None, None),
        (protocol.FeedbackQueue, "enqueue", "protocol.FeedbackQueue.enqueue", None,
         _count_enqueue),
        (protocol.FeedbackQueue, "step", "protocol.FeedbackQueue.step", None, _count_step),
        (rng.RngSampler, "draw", "rng.draw", None, None),
    ]
    for owner in (protocol, harness):
        out.append((owner, "generate_block_losses", "protocol.generate_block_losses",
                    None, None))
        out.append((owner, "sample_delays", "protocol.sample_delays", None, None))
    for cls, learner in BASELINE_LEARNERS.items():
        out.append((cls, "act", f"baselines.{learner}.act", None, None))
        out.append((cls, "receive", f"baselines.{learner}.receive", None, None))
    return out


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.round = 0
        self._stack: list[int] = []

    def wrap(self, fn, name, before=None, after=None, sets_round=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if sets_round:
                tracer.round = args[1]
            elif not stack:
                tracer.round = 0
            if before is not None:
                before(tracer, args)
            label = name(args) if callable(name) else name
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, tracer.round, start, end, parent)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in seconds)."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, _, start, end, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += (end - start) - child[i]
        return {name: (calls, total) for name, (calls, total) in out.items()}

    def duration(self, name: str) -> float:
        return sum(end - start for n, _, start, end, _ in self.spans if n == name)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "round", "start", "end", "parent"))
            for i, span in enumerate(self.spans):
                writer.writerow((i, *span))


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block; always restore."""
    saved = []
    try:
        for owner, attr, name, before, after in sites():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            # every learner's act(t) names the round being played
            setattr(owner, attr, tracer.wrap(original, name, before, after,
                                             sets_round=attr == "act"))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_pass(workload, seed: int, out_dir: Path) -> tuple[Tracer, list, list[bytes], float]:
    """Set up, run and emit the workload once with every layer traced.

    Returns the tracer, the traces, the emitted CSV bytes and the wall time.
    """
    tracer = Tracer()
    csvs = []
    with patched(tracer):
        start = time.perf_counter()
        table, delays = harness.build_environment(workload.environment(seed))
        traces = [harness.run(config, table, delays, keep_learner=True)
                  for config in workload.configs(seed)]
        paths = [harness.emit(trace, out_dir / f"traced{i}")[0]
                 for i, trace in enumerate(traces)]
        wall = time.perf_counter() - start
    for path in paths:
        csvs.append(path.read_bytes())
    return tracer, traces, csvs, wall


#: units of the per-layer metrics, by the last part of their name
_UNITS = {"self_s": "s", "call_us": "us", "calls": "count", "max": "count",
          "mean": "count", "useful_frac": "ratio", "borrow_share": "ratio",
          "hard_restarts": "count", "soft_restarts": "count", "delivered": "count",
          "dropped": "count", "max_conservation_residual": "sigma",
          "round_us": "us/round", "overhead": "ratio", "wall_s": "s",
          "unattributed_s": "s"}


def layer_unit(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[1]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traces: list, wall: float, rounds: int,
                  untraced_round_us: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named by module."""
    st = tracer.self_times()
    c = tracer.counters

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0))[1]

    m = {}
    for key, name in (("negent", "mirror.conj.negent"), ("tsallis", "mirror.conj.tsallis")):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.call_us"] = _ratio(self_s(name), calls(name)) * 1e6
    m["mirror.grad_psi.calls"] = calls("mirror.grad_psi")
    m["mirror.grad_psi.self_s"] = self_s("mirror.grad_psi")

    m["banker.begin_round.calls"] = calls("banker.begin_round")
    for name in ("begin_round", "commit", "allocate", "ingest", "step_size"):
        m[f"banker.{name}.self_s"] = self_s(f"banker.{name}")
    m["banker.ingest.calls"] = calls("banker.ingest")
    m["banker.ingest.useful_frac"] = _ratio(c["ingest.applied"], calls("banker.ingest"))
    m["banker.live_records.max"] = c["banker.live_records.max"]
    m["banker.outstanding.mean"] = _ratio(c["outstanding.sum"], c["outstanding.rounds"])
    m["banker.borrow_share"] = _ratio(c["borrow.sum"], c["sigma.sum"])
    ledgers = [checks.ledger(t.learner) for t in traces]
    m["banker.max_conservation_residual"] = max(
        (b.max_conservation_residual for b in ledgers if b is not None), default=0.0)

    m["prudent.act.self_s"] = self_s("prudent.act")
    m["prudent.receive.self_s"] = self_s("prudent.receive")
    m["prudent.gap_statistic.calls"] = calls("prudent.gap_statistic")
    m["prudent.gap_statistic.self_s"] = self_s("prudent.gap_statistic")
    restarts = [r for t in traces for r in getattr(t.learner, "restarts", [])]
    m["prudent.hard_restarts"] = sum(r.kind == "hard" for r in restarts)
    m["prudent.soft_restarts"] = sum(r.kind == "soft" for r in restarts)

    for name in ("build_environment", "run", "csv_string", "emit"):
        m[f"harness.{name}.self_s"] = self_s(f"harness.{name}")
    m["harness.pseudo_loss.calls"] = calls("harness.pseudo_loss")
    m["harness.pseudo_loss.self_s"] = self_s("harness.pseudo_loss")

    m["protocol.FeedbackEvent.calls"] = calls("protocol.FeedbackEvent")
    for name in ("FeedbackEvent", "FeedbackQueue.enqueue", "FeedbackQueue.step",
                 "generate_block_losses", "sample_delays"):
        m[f"protocol.{name}.self_s"] = self_s(f"protocol.{name}")
    m["protocol.events.delivered"] = c["protocol.events.delivered"]
    m["protocol.events.dropped"] = c["protocol.events.dropped"]

    m["rng.draw.calls"] = calls("rng.draw")
    m["rng.draw.self_s"] = self_s("rng.draw")

    for learner in BASELINE_LEARNERS.values():
        for method in ("act", "receive"):
            m[f"baselines.{learner}.{method}.self_s"] = self_s(f"baselines.{learner}.{method}")

    attributed = sum(total for _, total in st.values())
    traced_round_us = tracer.duration("harness.run") / rounds * 1e6
    m["trace.round_us"] = traced_round_us
    m["trace.overhead"] = _ratio(traced_round_us, untraced_round_us)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - attributed
    return {k: float(v) for k, v in m.items()}
