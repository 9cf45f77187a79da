"""Tests of the benchmark itself: its output check and its traced pass."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from prudentbanker import harness

import checks
import measure
import spans
from workloads import WORKLOADS

SHORT = 300


def short(name):
    return WORKLOADS[name].with_horizon(SHORT)


def untraced_csvs(workload, seed=0):
    table, delays = harness.build_environment(workload.environment(seed))
    return [t.csv_string().encode() for t in measure.run_pass(workload, seed, table, delays)]


def test_output_check_rejects_perturbed_summary():
    want = checks.load_reference("desk-negent")[0]
    assert checks.compare_summary(want, dict(want)) == []
    for key, value in (("stages", want["stages"] + 1),
                       ("regret_vs_best_fixed_arm", want["regret_vs_best_fixed_arm"] * (1 + 1e-5)),
                       ("final_alpha", want["final_alpha"] / 2),
                       ("delay_model", "lomax")):
        problems = checks.compare_summary(want, {**want, key: value})
        assert len(problems) == 1 and repr(key) in problems[0]
    # a rounding-level change passes
    nudged = {**want, "comparator_gap": want["comparator_gap"] * (1 + 1e-12)}
    assert checks.compare_summary(want, nudged) == []
    assert checks.compare_summary(want, {k: v for k, v in want.items() if k != "seed"})


def test_output_check_rejects_nondeterministic_csv(monkeypatch, tmp_path):
    workload = short("desk-negent")
    real_run, calls = harness.run, []

    def drifting_run(*args, **kwargs):
        trace = real_run(*args, **kwargs)
        calls.append(1)
        trace.loss_B[-1] += 1e-9 * (len(calls) > 1)
        return trace

    monkeypatch.setattr(harness, "run", drifting_run)
    table, delays = harness.build_environment(workload.environment(0))
    run = measure.Run()
    timed = measure.timed_passes(workload, 0, table, delays, 0.0, tmp_path, run)
    assert len(timed["round_us"].raw) == measure.MIN_SAMPLES
    assert run.attempted == measure.MIN_SAMPLES
    assert run.failed == measure.MIN_SAMPLES - 1
    assert all("CSV differs" in p for p in run.problems)


def test_first_pass_is_checked_against_the_reference(tmp_path):
    workload = short("desk-negent")
    table, delays = harness.build_environment(workload.environment(0))
    reference = [dict(t.summary) for t in measure.run_pass(workload, 0, table, delays)]
    run = measure.Run()
    measure.timed_passes(workload, 0, table, delays, 0.0, tmp_path, run, reference)
    assert run.failed == 0
    reference[0]["phases"] += 1
    run = measure.Run()
    measure.timed_passes(workload, 0, table, delays, 0.0, tmp_path, run, reference)
    assert run.failed == 1 and "'phases'" in run.problems[0]


def test_output_check_passes_and_rejects_broken_ledger(tmp_path):
    workload = short("desk-negent")
    table, delays = harness.build_environment(workload.environment(0))
    trace, = measure.run_pass(workload, 0, table, delays)
    assert checks.check_trace(trace) == []
    trace.learner.base.max_conservation_residual = 1e-6
    assert "conservation" in checks.check_trace(trace)[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_csv_unchanged(name, tmp_path):
    workload = short(name)
    tracer, traces, csvs, wall = spans.traced_pass(workload, 0, tmp_path)
    assert csvs == untraced_csvs(workload)
    assert tracer.spans and all(span is not None for span in tracer.spans)
    # self times of all spans cover the traced wall time
    attributed = sum(total for _, total in tracer.self_times().values())
    assert 0.0 <= wall - attributed < 0.05 * wall


def test_no_wrapper_survives_the_traced_pass(tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in spans.sites()]
    spans.traced_pass(short("desk-negent"), 0, tmp_path)
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Tracer()):
            assert all(vars(owner)[attr] is not orig for owner, attr, orig in originals)
            raise RuntimeError("inside the traced pass")
    assert all(vars(owner)[attr] is orig for owner, attr, orig in originals)


def test_baselines_make_no_mirror_or_banker_calls(tmp_path):
    workload = short("desk-baselines")
    tracer, traces, _, wall = spans.traced_pass(workload, 0, tmp_path)
    m = spans.layer_metrics(tracer, traces, wall, workload.rounds, 1.0)
    layered = {k: v for k, v in m.items() if k.startswith(("mirror.", "banker."))}
    assert layered and all(v == 0 for k, v in layered.items() if k.endswith(".calls"))
    assert m["rng.draw.calls"] > 0 and m["baselines.safe-exp3ix.act.self_s"] > 0


def test_negent_workload_counts_its_layers(tmp_path):
    workload = short("desk-negent")
    tracer, traces, _, wall = spans.traced_pass(workload, 0, tmp_path)
    m = spans.layer_metrics(tracer, traces, wall, workload.rounds, 1.0)
    assert m["banker.begin_round.calls"] + m["prudent.hard_restarts"] == SHORT
    applied = round(m["banker.ingest.calls"] * m["banker.ingest.useful_frac"])
    # one conjugate per prediction and per applied feedback; grad_psi also
    # maps the base point once when the ledger is built
    assert m["mirror.conj.negent.calls"] == m["banker.begin_round.calls"] + applied
    assert m["mirror.grad_psi.calls"] == applied + 1
    assert m["mirror.conj.tsallis.calls"] == 0
    assert m["protocol.events.delivered"] + m["protocol.events.dropped"] == SHORT
    assert 0.0 < m["banker.ingest.useful_frac"] <= 1.0
    # every span has its self time reported; with the remainder they make up the wall time
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])


def test_fails_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk-negent",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_lists_every_layer_metric(tmp_path):
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    workload = short("desk-baselines")
    tracer, traces, _, wall = spans.traced_pass(workload, 0, tmp_path)
    names = list(spans.layer_metrics(tracer, traces, wall, workload.rounds, 1.0))
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [m["unit"] for m in spec["per_layer"]] == [spans.layer_unit(n) for n in names]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_reference_covers_every_workload():
    reference = json.loads(checks.REFERENCE_PATH.read_text())
    assert set(reference) == set(WORKLOADS)
    for name, summaries in reference.items():
        assert [s["learner"] for s in summaries] == list(WORKLOADS[name].learners)
        assert all(s["horizon"] == WORKLOADS[name].horizon for s in summaries)
