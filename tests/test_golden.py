"""Golden outputs: seed-0 runs compared with the values stored in golden.json.

The run set is every learner under every delay model at T=500 with 5 blocks
and threshold_scale 0.02, the two Banker learners under 1/2-Tsallis as well,
and two 2,000-round runs of Prudent-Banker: a paper-shape (100 arms, 500
blocks) Lomax run and a desk geometric run at threshold_scale 0.02. For each
run the sampled arms, the integer CSV columns and the restart rounds and
kinds must match exactly. Every float (the summary fields, the restart log's
triggers and alphas, and the float CSV columns at ten checkpoint rounds) must
match within a relative 1e-12. A loss sum is at most T, so the two summary
fields that are differences of loss sums (the regret and the comparator gap)
may also move by 1e-12 * T.

Each run also stores the sha256 of the CSV and JSON that ``emit`` writes for
it. The tests leave these out, as a last-bit change of exp or log on another
SIMD target moves them; a change that claims the same bytes as its parent
checks them on one machine with

    PYTHONPATH=src python3 tests/test_golden.py --bytes

A change that moves outputs on purpose re-records the file with

    PYTHONPATH=src python3 tests/test_golden.py --write

and states in CHANGES.md which runs moved and by how much.
"""
import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

from prudentbanker import harness
from prudentbanker.harness import LEARNERS, RunConfig, build_environment, emit, run
from prudentbanker.mirror import TSALLIS_HALF
from prudentbanker.protocol import DELAY_MODELS, EnvironmentConfig

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
INT_COLUMNS = ("t", "stage", "phase", "arrived")
FLOAT_COLUMNS = ("alpha", "loss_B", "loss_star", "loss_c")
REL_TOL = 1e-12
#: restart log fields, in RestartRecord order; round and kind compare exactly
RESTART_FIELDS = ("round", "kind", "trigger", "old_estimate", "new_estimate",
                  "new_phase", "new_alpha")
#: summary fields that are differences of two loss sums, each at most T
DIFFERENCES = ("regret_vs_best_fixed_arm", "comparator_gap")
#: the key of a run's CSV and JSON digests, which only --bytes compares
BYTES = "bytes_sha256"


def golden_configs() -> dict[str, RunConfig]:
    desk = EnvironmentConfig(horizon=500, blocks=5)
    configs = {}
    for model in DELAY_MODELS:
        env = dataclasses.replace(desk, delay_model=model)
        for learner in LEARNERS:
            configs[f"{learner}_{model}"] = RunConfig(env=env, learner=learner,
                                                      threshold_scale=0.02)
        for learner in ("prudent-banker", "banker-omd"):
            configs[f"{learner}_{model}_tsallis"] = RunConfig(
                env=env, learner=learner, regularizer=TSALLIS_HALF, threshold_scale=0.02)
    paper = EnvironmentConfig(horizon=2000, arms=100, blocks=500, delay_model="lomax")
    configs["paper_prudent-banker_lomax"] = RunConfig(env=paper)
    desk_2000 = EnvironmentConfig(horizon=2000, delay_model="geometric")
    configs["desk_prudent-banker_geometric"] = RunConfig(env=desk_2000, threshold_scale=0.02)
    return configs


CONFIGS = golden_configs()


@functools.cache
def environment(env: EnvironmentConfig):
    return build_environment(env)


@contextmanager
def captured_play():
    """Collect the PlayColumns of every game `run` plays meanwhile."""
    played, real_play = [], harness.play

    def play(*args):
        played.append(real_play(*args))
        return played[-1]

    harness.play = play
    try:
        yield played
    finally:
        harness.play = real_play


def sha256(column) -> str:
    return hashlib.sha256(column.astype("<i8").tobytes()).hexdigest()


def emitted_digests(trace) -> dict[str, str]:
    """The sha256 of the CSV and of the JSON that emit writes for the trace."""
    with tempfile.TemporaryDirectory() as tmp:
        return {path.suffix: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in emit(trace, Path(tmp) / "run")}


def record(config: RunConfig) -> dict:
    """The stored form of one run: digests, restart log, checkpoints, summary."""
    with captured_play() as played:
        trace = run(config, *environment(config.env), keep_learner=True)
    T = config.env.horizon
    checkpoints = [T * k // 10 - 1 for k in range(1, 11)]  # rounds T/10, ..., T
    return {
        "int_sha256": {"arm": sha256(played[0].arm),
                       **{name: sha256(getattr(trace, name)) for name in INT_COLUMNS}},
        "restarts": [[getattr(r, name) for name in RESTART_FIELDS]
                     for r in trace.learner.restarts],
        "checkpoints": {name: getattr(trace, name)[checkpoints].tolist()
                        for name in FLOAT_COLUMNS},
        "summary": trace.summary,
        BYTES: emitted_digests(trace),
    }


def mismatches(want, got, horizon: int, path: str = "") -> list[str]:
    """Where got differs from want: floats within REL_TOL, the rest exactly."""
    if isinstance(want, float) and type(got) is float:
        abs_tol = REL_TOL * horizon if path.rsplit(".", 1)[-1] in DIFFERENCES else 0.0
        ok = math.isclose(want, got, rel_tol=REL_TOL, abs_tol=abs_tol)
    elif isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        return [m for key in want for m in mismatches(want[key], got[key], horizon,
                                                      f"{path}.{key}")]
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, horizon, f"{path}[{i}]")]
    else:
        ok = want == got and type(want) is type(got)
    return [] if ok else [f"{path or 'value'}: expected {want!r}, got {got!r}"]


@functools.cache
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_run_set():
    assert sorted(golden()) == sorted(CONFIGS)


def test_golden_stores_the_emitted_digests_of_every_run():
    for stored in golden().values():
        assert sorted(stored[BYTES]) == [".csv", ".json"]
        assert all(len(digest) == 64 for digest in stored[BYTES].values())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_matches_golden(name):
    config = CONFIGS[name]
    got = json.loads(json.dumps(record(config)))  # tuples and keys as stored
    want = dict(golden()[name])
    del got[BYTES], want[BYTES]  # compared only by --bytes
    assert mismatches(want, got, config.env.horizon) == []


def test_restart_rounds_and_integer_fields_compare_exactly():
    want = golden()["prudent-banker_geometric"]
    first = want["restarts"][0]
    # the round one later, and the new phase read as a float
    for at, value in ((0, first[0] + 1), (5, float(first[5]))):
        got = json.loads(json.dumps(want))
        got["restarts"][0][at] = value
        assert mismatches(want, got, horizon=500) == [
            f".restarts[0][{at}]: expected {first[at]!r}, got {value!r}"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help=f"re-record {GOLDEN_PATH.name} from the current code")
    mode.add_argument("--bytes", action="store_true",
                      help="compare each run's emitted CSV and JSON with the stored sha256")
    args = parser.parse_args()
    records = {name: record(config) for name, config in CONFIGS.items()}
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(records)} runs to {GOLDEN_PATH}")
        return
    moved = [f"{name}{suffix}" for name in sorted(records)
             for suffix, digest in records[name][BYTES].items()
             if golden()[name][BYTES][suffix] != digest]
    for name in moved:
        print(f"moved: {name}")
    print(f"{2 * len(records) - len(moved)} of {2 * len(records)} files byte-identical")
    sys.exit(1 if moved else 0)


if __name__ == "__main__":
    main()
