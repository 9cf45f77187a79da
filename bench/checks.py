"""Output check: what a benchmark run must produce to count as correct.

Every check returns a list of problems; an empty list means the run passed.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from prudentbanker.banker import BankerOMD

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: summary fields compared with a relative tolerance; every other field must
#: match exactly. Tight enough to catch a behaviour change, loose enough for a
#: rounding-level one (e.g. Newton in place of bisection in the conjugate).
FLOAT_FIELDS = ("regret_vs_best_fixed_arm", "comparator_gap", "final_alpha", "r0")
FLOAT_REL_TOL = 1e-7
FLOAT_ABS_TOL = 1e-9

MAX_CONSERVATION_RESIDUAL = 1e-9
MIN_CREDIT = -1e-12


def ledger(learner) -> BankerOMD | None:
    """The Banker-OMD credit ledger of a learner, if it has one."""
    base = getattr(learner, "base", None)
    return base if isinstance(base, BankerOMD) else None


def stage_bound(total_delay: int) -> int:
    """ceil(log2 D) + 1 in exact integer arithmetic (1 when D <= 1)."""
    return (max(total_delay, 1) - 1).bit_length() + 1


def check_trace(trace) -> list[str]:
    """Invariants of one run; the trace must come from run(..., keep_learner=True)."""
    name = trace.summary["learner"]
    problems = []
    base = ledger(trace.learner)
    if base is not None:
        if not base.max_conservation_residual <= MAX_CONSERVATION_RESIDUAL:
            problems.append(f"{name}: conservation residual {base.max_conservation_residual!r}")
        if not base.min_credit_seen >= MIN_CREDIT:
            problems.append(f"{name}: negative credit {base.min_credit_seen!r}")
    for r in getattr(trace.learner, "restarts", []):
        if r.kind != "hard":
            continue
        if not (r.trigger <= r.new_estimate < 2 * r.trigger and r.new_estimate >= r.old_estimate):
            problems.append(f"{name}: hard restart at round {r.round} breaks doubling "
                            f"({r.old_estimate} -> {r.new_estimate}, trigger {r.trigger})")
    bound = stage_bound(trace.summary["realized_D"])
    if trace.summary["stages"] > bound:
        problems.append(f"{name}: {trace.summary['stages']} stages > bound {bound}")
    return problems


def compare_summary(expected: dict, actual: dict) -> list[str]:
    """Field-by-field comparison of a run summary with its reference."""
    problems = []
    for key in sorted(set(expected) | set(actual)):
        if key not in expected or key not in actual:
            problems.append(f"summary field {key!r} missing on one side")
            continue
        want, got = expected[key], actual[key]
        if key in FLOAT_FIELDS:
            ok = math.isclose(want, got, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL)
        else:
            ok = want == got and type(want) is type(got)
        if not ok:
            problems.append(f"summary field {key!r}: expected {want!r}, got {got!r}")
    return problems


def compare_csv(expected: bytes, actual: bytes, label: str) -> list[str]:
    if expected == actual:
        return []
    return [f"{label}: CSV differs from the first pass"]


def load_reference(workload: str) -> list[dict]:
    """Reference summaries (one per learner) of a workload on the default seed."""
    return json.loads(REFERENCE_PATH.read_text())[workload]


def write_reference(summaries: dict[str, list[dict]]) -> None:
    REFERENCE_PATH.write_text(json.dumps(summaries, indent=2, sort_keys=True) + "\n")
