import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from prudentbanker import cli
from prudentbanker.banker import BankerOMD
from prudentbanker.errors import ConfigError
from prudentbanker.harness import RunConfig
from prudentbanker.protocol import EnvironmentConfig
from prudentbanker.prudent import build_comparator


@pytest.fixture
def configs(monkeypatch):
    """The run configs the CLI builds, recorded as it hands them to `run`."""
    seen = []
    real_run = cli.run

    def recording_run(config, *args, **kwargs):
        seen.append(config)
        return real_run(config, *args, **kwargs)

    monkeypatch.setattr(cli, "run", recording_run)
    return seen


def run_main(tmp_path, *argv, config_text=None):
    flags = ["run", "--out", str(tmp_path / "out" / "run")]
    if config_text is not None:
        path = tmp_path / "cfg"
        path.write_text(config_text)
        flags += ["--config", str(path)]
    return cli.main([*flags, *argv])


SHORT = "horizon=200\nblocks=4\n"


def test_flags_beat_config_file(configs, tmp_path):
    text = SHORT + "delta=0.05\nthreshold_scale=0.5\narms=5\n"
    assert run_main(tmp_path, "--delta", "0.02", "--threshold-scale", "0.25",
                    "--horizon", "150", config_text=text) == 0
    cfg, = configs
    assert cfg.delta == 0.02 and cfg.threshold_scale == 0.25
    assert cfg.env.horizon == 150
    assert cfg.env.arms == 5 and cfg.env.blocks == 4  # from the file


def test_config_file_beats_profile(configs, tmp_path):
    text = SHORT + "delta=0.05\nthreshold_scale=0.5\n"
    assert run_main(tmp_path, config_text=text) == 0
    cfg, = configs
    assert cfg.delta == 0.05 and cfg.threshold_scale == 0.5
    assert (cfg.env.horizon, cfg.env.arms, cfg.env.blocks) == (200, 10, 4)


def test_absent_flags_leave_the_profile(configs, tmp_path):
    for scale in ([], ["--scale", "paper"]):
        assert run_main(tmp_path, *scale, "--horizon", "100", "--blocks", "4") == 0
    desk, paper = configs
    assert desk == RunConfig(env=EnvironmentConfig(horizon=100, blocks=4))
    assert paper == RunConfig(env=EnvironmentConfig(horizon=100, arms=100, blocks=4))


def test_profiles_cannot_be_changed(monkeypatch, tmp_path):
    with pytest.raises(dataclasses.FrozenInstanceError):
        cli.SCALES["desk"].horizon = 50
    seen = []

    class Stop(Exception):
        pass

    def recording_run(config):
        seen.append(config)
        raise Stop  # the config is all this test needs; skip the 20000 rounds

    monkeypatch.setattr(cli, "run", recording_run)
    with pytest.raises(Stop):
        cli.main(["run", "--out", str(tmp_path / "run")])
    cfg, = seen
    assert cfg.env == EnvironmentConfig()


def test_run_and_a_one_cell_sweep_build_the_same_config(configs, tmp_path):
    path = tmp_path / "cfg"
    path.write_text(SHORT + "delta=0.05  # from the file\n")
    flags = ["--config", str(path), "--scale", "paper", "--arms", "3",
             "--threshold-scale", "0.5", "--alpha-safe", "0.2",
             "--regularizer", "tsallis-half"]
    assert cli.main(["run", *flags, "--learner", "safe-exp3ix", "--delay-model", "lomax",
                     "--seed", "2", "--out", str(tmp_path / "run")]) == 0
    assert cli.main(["sweep", *flags, "--learners", "safe-exp3ix", "--delay-models", "lomax",
                     "--seeds", "2", "--out", str(tmp_path / "sweep")]) == 0
    from_run, from_sweep = configs
    assert from_run == from_sweep
    assert from_run == RunConfig(
        env=EnvironmentConfig(horizon=200, arms=3, blocks=4, delay_model="lomax", seed=2),
        learner="safe-exp3ix", regularizer="tsallis-half", delta=0.05, alpha_safe=0.2,
        threshold_scale=0.5, seed=2)


def test_load_config_file(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("horizon = 500  # rounds\n\ndelta=0.05\n")
    assert cli.load_config_file(p) == {"horizon": 500, "delta": 0.05}
    p.write_text("horizon = 500  # rounds\n\nlearner=safe-exp3ix\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}: unknown key 'learner'"):
        cli.load_config_file(p)
    # two faults: the first faulty line is reported
    p.write_text("learnr=safe-exp3ix\nhorizon=500\nhorizon=600\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}: unknown key 'learnr'"):
        cli.load_config_file(p)


def test_line_without_equals_names_the_path(configs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("horizon=50\nno equals sign\n")
    assert cli.main(["run", "--config", "bad.cfg", "--out", "run"]) == 2
    assert capsys.readouterr().err == "error: bad.cfg: bad config line: 'no equals sign'\n"
    assert configs == [] and list(tmp_path.iterdir()) == [tmp_path / "bad.cfg"]


@pytest.mark.parametrize("line", ["learnr=safe-exp3ix", "delay_model=geometric"])
def test_unknown_config_key_exits_2(configs, tmp_path, capsys, line):
    assert run_main(tmp_path, config_text=SHORT + line + "\n") == 2
    assert line.split("=")[0] in capsys.readouterr().err
    assert configs == []


def test_repeated_config_key_exits_2(configs, tmp_path, capsys):
    # SHORT sets horizon=200 already
    assert run_main(tmp_path, config_text=SHORT + "horizon=10\n") == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'cfg'}: key 'horizon' is set twice\n"
    assert configs == []


def test_bad_config_value_exits_2(configs, tmp_path, capsys):
    assert run_main(tmp_path, config_text="horizon=lots\n") == 2
    assert "horizon" in capsys.readouterr().err
    assert configs == []


def test_non_finite_config_value_exits_2(configs, tmp_path, capsys):
    assert run_main(tmp_path, config_text=SHORT + "threshold_scale=nan\n") == 2
    assert "threshold_scale" in capsys.readouterr().err
    assert configs == [] and not (tmp_path / "out").exists()


def test_non_utf8_config_file_exits_2(configs, tmp_path, capsys):
    path = tmp_path / "cfg"
    path.write_bytes(b"horizon=\xff\n")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: config file is not UTF-8 text\n"
    assert configs == []


def test_config_file_with_a_byte_order_mark(configs, tmp_path):
    for name, head in (("plain.cfg", b""), ("bom.cfg", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(head + SHORT.encode())
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    plain, bom = configs
    assert bom == plain == RunConfig(env=EnvironmentConfig(horizon=200, blocks=4))


def test_verify_seeds_the_learner(configs, capsys):
    assert cli.main(["verify", "--seed", "3"]) == 0
    cfg, = configs
    assert cfg.seed == cfg.env.seed == 3


def test_verify_passes(capsys):
    assert cli.main(["verify", "--seed", "0"]) == 0
    assert "credit conservation: pass" in capsys.readouterr().out


def test_verify_fails_a_miscounting_ledger(monkeypatch, capsys):
    reset = BankerOMD.reset

    def miscounting_reset(self, phase_start):
        reset(self, phase_start)
        self.outstanding_sum = 1

    monkeypatch.setattr(BankerOMD, "reset", miscounting_reset)
    assert cli.main(["verify"]) == 1
    assert "delay-counter identities: FAIL" in capsys.readouterr().out


def test_lowerbound_identity_passes(capsys):
    assert cli.main(["lowerbound"]) == 0
    assert "delayed-vs-batched identity: pass" in capsys.readouterr().out


def test_lowerbound_prints_a_short_tuple_whole(capsys):
    assert cli.main(["lowerbound", "--q", "1", "--n", "11"]) == 0
    out = capsys.readouterr().out
    # 12 one-round buckets are shown whole; their 13 boundaries are not
    assert "bucket lengths:    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)\n" in out
    assert "bucket boundaries: 13 values, min 1, max 13, 13 distinct\n" in out
    assert re.search(r"eps=\((0\.\d+), (\1, ){10}\1\)$", out, re.MULTILINE)
    assert max(map(len, out.splitlines())) <= 200


def test_lowerbound_summarizes_a_long_tuple(capsys):
    # 3,001 one-round buckets: printed whole, the three tuples took 9k-27k characters
    assert cli.main(["lowerbound", "--q", "1", "--n", "3000"]) == 0
    out = capsys.readouterr().out
    assert "bucket boundaries: 3002 values, min 1, max 3002, 3002 distinct\n" in out
    assert "bucket lengths:    3001 values, min 1, max 1, 1 distinct\n" in out
    assert re.search(r"eps=3001 values, min (0\.\d+), max \1, 1 distinct$", out, re.MULTILINE)
    assert max(map(len, out.splitlines())) <= 200


@pytest.mark.parametrize("argv", [["verify", "--seed", "33"], ["verify", "--seed", "255"],
                                  ["lowerbound", "--seed", "50"],
                                  ["lowerbound", "--seed", "258"]],
                         ids=["verify-33", "verify-255", "lowerbound-50", "lowerbound-258"])
def test_the_exit_status_does_not_depend_on_the_seed(capsys, argv):
    # seeds at which a 3-standard-error Monte-Carlo check of the identity failed
    assert cli.main(argv) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_lowerbound_fails_an_inconsistent_instance(monkeypatch, capsys):
    real = cli.lb.HardInstancePair

    def tampered(*args, **kwargs):
        inst = real(*args, **kwargs)
        object.__setattr__(inst, "V", sum(inst.lengths))  # sum of L_m, not of L_m^2
        return inst

    monkeypatch.setattr(cli.lb, "HardInstancePair", tampered)
    assert cli.main(["lowerbound"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^probe +arm1: .* FAIL$", out, re.MULTILINE)


def test_lowerbound_identity_plays_the_instance(monkeypatch, capsys):
    calls, real = [], cli.lb.batched_simulate

    def spy(instance, delays, seed, *args):
        calls.append((instance, seed))
        return real(instance, delays, seed, *args)

    monkeypatch.setattr(cli.lb, "batched_simulate", spy)
    assert cli.main(["lowerbound", "--delta", "0.1", "--seed", "4"]) == 0
    (instance, seed), = calls
    assert (instance.arms, instance.delta, seed) == (2, 0.1, 4)
    np.testing.assert_array_equal(instance.comparator, build_comparator(2, 0.1, 0))


@pytest.mark.parametrize("argv", [["lowerbound", "--q", "0"],
                                  ["lowerbound", "--delta", "0.9"],
                                  ["sweep", "--seeds", "x"],
                                  ["run", "--learner", "safe-exp3ix", "--alpha-safe", "5"],
                                  ["run", "--learner", "safe-exp3ix", "--alpha-safe", "-1"],
                                  ["run", "--seed", "-1"],
                                  ["sweep", "--seeds", "-1"],
                                  ["lowerbound", "--seed", "-1"],
                                  ["verify", "--seed", "-1"],
                                  ["run", "--arms", "1"],
                                  ["run", "--threshold-scale", "nan"],
                                  ["run", "--threshold-scale", "inf"],
                                  *(["run", "--horizon", "50", "--blocks", "5", "--out", out]
                                    for out in ("", ".", "/", "out/..")),
                                  ["run", "--config", "missing.cfg"],
                                  ["run", "--config", "."],
                                  ["run", "--horizon", "50"],
                                  # C2 = 1/delta or 2/delta overflows to inf
                                  ["run", "--delta", "1e-320"],
                                  ["run", "--delta", "1e-320", "--regularizer", "tsallis-half"],
                                  ["run", "--delta", "1e-308", "--regularizer", "tsallis-half"],
                                  ["sweep", "--delta", "1e-320"]],
                         ids=["lowerbound-q", "lowerbound-delta", "sweep-seeds",
                              "alpha-safe-above-1", "alpha-safe-below-0", "run-negative-seed",
                              "sweep-negative-seed", "lowerbound-negative-seed",
                              "verify-negative-seed", "run-one-arm", "threshold-scale-nan",
                              "threshold-scale-inf", "out-empty", "out-dot", "out-root",
                              "out-dotdot", "config-missing", "config-directory",
                              "profile-blocks-above-horizon", "delta-c2-inf",
                              "tsallis-delta-c2-inf", "tsallis-delta-1e-308-c2-inf",
                              "sweep-delta-c2-inf"])
def test_bad_flag_values_exit_2(configs, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert configs == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "--out", "afile/run"],
    ["sweep", "--out", "afile", "--seeds", "0", "--learners", "play-comparator",
     "--delay-models", "none"]],
    ids=["run", "sweep"])
def test_out_under_a_regular_file_exits_2_before_anything_runs(tmp_path, monkeypatch, capsys,
                                                               argv):
    def failing_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run", failing_run)
    (tmp_path / "afile").write_text("")
    assert cli.main([*argv, "--horizon", "50", "--blocks", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --out: cannot create directory 'afile'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--q", "0"], ["--n", "0"], ["--delta", "0.9"],
                                  ["--seed", "-1"], ["--delta", "nan"]],
                         ids=["q", "n-zero", "delta", "seed", "delta-nan"])
def test_lowerbound_bad_flag_prints_no_report(capsys, argv):
    assert cli.main(["lowerbound", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_sweep_rejects_the_run_only_flags(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--seed", "5", "--learner", "nonsense", "--delay-model", "lomax",
                  "--seeds", "0", "--learners", "play-fixed-arm", "--delay-models", "none",
                  "--horizon", "50", "--blocks", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in ("--seed", "--learner", "--delay-model"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid,error", [
    (["--learners", "play-comparator,nonsense", "--delay-models", "none"], "unknown "),
    (["--learners", "play-comparator", "--delay-models", "none,bogus"], "unknown "),
    (["--arms", "1", "--learners", "play-comparator,prudent-banker", "--delay-models", "none"],
     "prudent-banker needs at least 2 arms"),
    (["--arms", "1", "--learners", "play-comparator,banker-omd", "--delay-models", "none"],
     "banker-omd needs at least 2 arms")],
    ids=["learner", "delay-model", "one-arm-prudent-banker", "one-arm-banker-omd"])
def test_sweep_checks_the_grid_before_writing(configs, tmp_path, capsys, grid, error):
    out = tmp_path / "D"
    assert cli.main(["sweep", "--seeds", "0", *grid, "--horizon", "50", "--blocks", "5",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and err.count("\n") == 1
    assert configs == [] and not out.exists()


def test_sweep_runs_the_other_learners_on_one_arm(tmp_path, capsys):
    out = tmp_path / "D"
    assert cli.main(["sweep", "--seeds", "0", "--arms", "1",
                     "--learners", "play-comparator,safe-exp3ix", "--delay-models", "none",
                     "--horizon", "50", "--blocks", "5", "--out", str(out)]) == 0
    assert (out / "safe-exp3ix_none_s0.csv").exists()


def test_a_sweep_frees_each_environment_before_it_builds_the_next(tmp_path, capsys):
    # a trace holds its table's best-arm column, a view of the loss table; while
    # the sweep kept the last environment's table, delays and trace through the
    # next build, a second environment added one table (1.6 MB here) to the peak
    T, arms = 4000, 50

    def sweep_peak(seeds):
        argv = ["sweep", "--seeds", seeds, "--learners", "play-comparator",
                "--delay-models", "geometric", "--horizon", str(T), "--arms", str(arms),
                "--out", str(tmp_path / seeds)]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sweep_peak("0")  # a process's first runs allocate a few caches of their own
    one, two = sweep_peak("0"), sweep_peak("0,1")
    assert two - one < T * arms * 8 / 4, (one, two)


def test_sweep_checks_every_seed_before_writing(configs, tmp_path, capsys):
    out = tmp_path / "D"
    assert cli.main(["sweep", "--seeds", "0,-1", "--learners", "play-comparator",
                     "--delay-models", "none", "--horizon", "50", "--blocks", "5",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
    assert configs == [] and not out.exists()


@pytest.mark.parametrize("grid,error", [
    (["--seeds", "0,1,0", "--learners", "play-comparator", "--delay-models", "none"],
     "--seeds repeats 0"),
    (["--seeds", "0", "--learners", "play-comparator,play-comparator", "--delay-models", "none"],
     "--learners repeats 'play-comparator'"),
    (["--seeds", "0", "--learners", "play-comparator", "--delay-models", "none,lomax,none"],
     "--delay-models repeats 'none'")],
    ids=["seeds", "learners", "delay-models"])
def test_sweep_rejects_a_repeated_grid_value(configs, tmp_path, capsys, grid, error):
    # a repeated value would run one cell twice and overwrite its files
    out = tmp_path / "D"
    assert cli.main(["sweep", *grid, "--horizon", "50", "--blocks", "5",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert configs == [] and not out.exists()


def test_round_note_reaches_stderr(monkeypatch, tmp_path, capsys):
    def failing_run(config):
        exc = ConfigError("loss row out of range")
        exc.__notes__ = ["round 7"]
        raise exc

    monkeypatch.setattr(cli, "run", failing_run)
    assert run_main(tmp_path, "--horizon", "100", "--blocks", "4") == 2
    assert capsys.readouterr().err == "error: loss row out of range\nround 7\n"
