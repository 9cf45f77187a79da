"""Command-line interface: run / sweep / lowerbound / verify."""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import lowerbound as lb
from .baselines import BankerOMDLearner
from .errors import ConfigError
from .harness import RunConfig, build_environment, emit, play, run
from .mirror import NEG_ENTROPY, REGULARIZERS, Regularizer
from .protocol import DELAY_MODELS, DelaySequence, EnvironmentConfig, LossTable
from .rng import RngSampler, stream


#: keys a --config file may set, with their types; each is also a flag
CONFIG_KEYS = {"horizon": int, "arms": int, "blocks": int, "delta": float,
               "threshold_scale": float}

#: desk/paper experiment profiles; desk is the EnvironmentConfig defaults
SCALES = {"desk": EnvironmentConfig(),
          "paper": EnvironmentConfig(horizon=50000, arms=100, blocks=500)}

#: lowerbound prints a tuple with at most this many entries whole
SHOWN_WHOLE = 12


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """The flags `run` and `sweep` share; `sweep` takes its grid instead of
    `run`'s --learner, --delay-model and --seed."""
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--scale", choices=sorted(SCALES), default="desk")
    for key, kind in CONFIG_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind)
    p.add_argument("--regularizer", default=RunConfig.regularizer, choices=REGULARIZERS)
    p.add_argument("--alpha-safe", type=float, default=RunConfig.alpha_safe)
    p.add_argument("--out", default="out/run")


def load_config_file(path: str | Path) -> dict[str, int | float]:
    """Typed CONFIG_KEYS from a flat key=value UTF-8 file; '#' starts a comment.

    A key is set at most once. A file with several faults reports its first
    faulty line, and every error names the path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config file is not UTF-8 text") from None
    values = {}
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"{path}: bad config line: {raw!r}")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown key {key!r} "
                              f"(allowed: {', '.join(CONFIG_KEYS)})")
        if key in values:
            raise ConfigError(f"{path}: key {key!r} is set twice")
        try:
            values[key] = CONFIG_KEYS[key](val)
        except ValueError:
            raise ConfigError(f"{path}: bad value {val!r} for {key!r}") from None
    return values


def _cells(args):
    """Builder of the run config of one (learner, delay model, seed) cell.

    A flag beats a --config file, which beats the --scale profile; a setting
    given by neither keeps RunConfig's default. A config checks itself when
    built, so a bad flag exits 2 before anything runs.
    """
    given = load_config_file(args.config) if args.config else {}
    given.update((key, getattr(args, key)) for key in CONFIG_KEYS
                 if getattr(args, key) is not None)
    env_given = {key: given.pop(key) for key in ("horizon", "arms", "blocks")
                 if key in given}

    def cell(learner: str, delay_model: str, seed: int) -> RunConfig:
        env = dataclasses.replace(SCALES[args.scale], delay_model=delay_model,
                                  seed=seed, **env_given)
        return RunConfig(env=env, learner=learner, regularizer=args.regularizer,
                         alpha_safe=args.alpha_safe, seed=seed, **given)

    return cell


def _make_out_dir(path: Path) -> None:
    """Create the --out directory before anything runs, so a bad --out exits 2 at once."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create directory {str(path)!r}: {exc.strerror}") from None


def cmd_run(args) -> int:
    if Path(args.out).name in ("", ".."):  # "", ".", "/" or "out/.." name no file
        raise ConfigError(f"--out {args.out!r} names no file")
    config = _cells(args)(args.learner, args.delay_model, args.seed)
    _make_out_dir(Path(args.out).parent)
    trace = run(config)
    paths = emit(trace, args.out)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    print(json.dumps(trace.summary, indent=2, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ConfigError(f"bad --seeds {args.seeds!r}: need comma-separated integers") from None
    learners = args.learners.split(",")
    delay_models = args.delay_models.split(",")
    for flag, values in (("seeds", seeds), ("learners", learners), ("delay-models", delay_models)):
        for i, value in enumerate(values):
            if value in values[:i]:  # a repeated cell would overwrite its own files
                raise ConfigError(f"--{flag} repeats {value!r}")
    # one row of learners per (delay model, seed) environment; the whole grid
    # is checked before the first environment is built
    cell = _cells(args)
    grid = [[cell(learner, delay_model, seed) for learner in learners]
            for delay_model, seed in itertools.product(delay_models, seeds)]
    out_dir = Path(args.out)
    _make_out_dir(out_dir)
    summaries = []
    for configs in grid:
        table = delays = trace = None  # a trace holds its table: free both before the next build
        table, delays = build_environment(configs[0].env)
        for config in configs:
            trace = run(config, table=table, delays=delays)
            name = f"{config.learner}_{config.env.delay_model}_s{config.seed}"
            emit(trace, out_dir / name)
            summaries.append(trace.summary)
            print(f"{name}: regret*={trace.summary['regret_vs_best_fixed_arm']:.1f} "
                  f"comparator_gap={trace.summary['comparator_gap']:.1f}")
    (out_dir / "sweep_summary.json").write_text(
        json.dumps(summaries, indent=2, sort_keys=True) + "\n")
    return 0


def _tuple_report(values: tuple) -> str:
    """The tuple itself if it is short, else its count, min, max and number of distinct values."""
    if len(values) <= SHOWN_WHOLE:
        return str(values)
    return (f"{len(values)} values, min {min(values)}, max {max(values)}, "
            f"{len(set(values))} distinct")


def cmd_lowerbound(args) -> int:
    q, N = args.q, args.n
    # the report is computed in full before it prints: a bad flag or seed prints nothing
    delays = lb.corollary_delays(q, N)
    decomp = lb.greedy_buckets(delays)
    instance = lb.HardInstancePair(decomp.lengths, args.delta)
    T = len(delays)
    mono, dom, suffix = lb.bucket_inequalities(decomp, delays)
    probes = [(policy, lb.safety_gap_identity(instance, policy))
              for policy in ("arm1", "arm2", "comparator")]
    _, regret = lb.batched_simulate(instance, delays, args.seed)  # a guard violation raises

    print(f"structured delays: q={q}, N={N}, T={T}, D={delays.total}")
    print(f"bucket boundaries: {_tuple_report(decomp.boundaries)}")
    print(f"bucket lengths:    {_tuple_report(decomp.lengths)}")
    print(f"length monotonicity: {'pass' if mono else 'FAIL'}")
    print(f"quadratic dominance: {'pass' if dom else 'FAIL'}")
    print(f"suffix dominance:    {'pass' if suffix else 'FAIL'}")

    print(f"hard instance: gamma={instance.gamma:.5f}, V={instance.V}, "
          f"eps={_tuple_report(tuple(round(e, 5) for e in instance.eps))}")
    all_ok = mono and dom and suffix
    for policy, res in probes:
        print(f"probe {policy:>10}: E[regret]={res.mean_regret:+.5f} "
              f"predicted={res.predicted_regret:+.5f} "
              f"residual={res.mean_regret - res.predicted_regret:+.2e} "
              f"{'pass' if res.ok else 'FAIL'}")
        all_ok = all_ok and res.ok

    print(f"delayed-vs-batched identity: pass (regret {regret:+.4f})")
    return 0 if all_ok else 1


def cmd_verify(args) -> int:
    ok = True
    rng = stream(args.seed, "verify")

    # the ledger's running outstanding count on random delays: round r is
    # outstanding in min(d_r, T - r) later rounds (double counting), and that
    # total is at most the total delay
    reg = Regularizer(kind=NEG_ENTROPY, arms=2, delta=0.25)
    sampler = RngSampler(stream(args.seed, "verify-ledger"))
    worst = True
    for _ in range(200):
        T = int(rng.integers(1, 60))
        d = rng.integers(0, 12, size=T)
        learner = BankerOMDLearner(reg, sampler)
        play(learner, LossTable([[0.0, 0.0]] * T), DelaySequence(delays=d))
        DD = int(np.minimum(d, T - np.arange(1, T + 1)).sum())
        worst &= learner.base.outstanding_sum == DD and DD <= int(d.sum())
    print(f"delay-counter identities: {'pass' if worst else 'FAIL'}")
    ok &= worst

    # credit conservation on a short delayed run
    config = RunConfig(env=EnvironmentConfig(horizon=2000, arms=5, blocks=10,
                                             delay_model="geometric", seed=args.seed),
                       delta=0.05, seed=args.seed)
    base = run(config, keep_learner=True).learner.base
    resid = base.max_conservation_residual
    credit_ok = resid <= 1e-9 and base.min_credit_seen >= -1e-12
    print(f"credit conservation: {'pass' if credit_ok else 'FAIL'} "
          f"(max residual {resid:.2e})")
    ok &= credit_ok

    # bucket inequalities on the structured sequence
    rc = cmd_lowerbound(argparse.Namespace(q=2, n=3, delta=0.25, seed=args.seed))
    ok &= rc == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prudentbanker",
        description="Safe delayed-bandit simulations and lower-bound checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single configured run")
    _add_config_flags(p_run)
    p_run.add_argument("--delay-model", default=EnvironmentConfig.delay_model,
                       choices=DELAY_MODELS)
    p_run.add_argument("--learner", default=RunConfig.learner)
    p_run.add_argument("--seed", type=int, default=RunConfig.seed)
    p_run.set_defaults(func=cmd_run)

    # no abbreviations: --seed, --learner and --delay-model would match the grid flags
    p_sweep = sub.add_parser("sweep", help="grid over seeds/delay models/learners",
                             allow_abbrev=False)
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--seeds", default="0,1,2,3,4")
    p_sweep.add_argument("--learners", default="prudent-banker,safe-exp3ix")
    p_sweep.add_argument("--delay-models", default="none,geometric")
    p_sweep.set_defaults(func=cmd_sweep)

    p_lb = sub.add_parser("lowerbound", help="bucket/identity report")
    p_lb.add_argument("--q", type=int, default=2)
    p_lb.add_argument("--n", type=int, default=3)
    p_lb.add_argument("--delta", type=float, default=0.25)
    p_lb.add_argument("--seed", type=int, default=0)
    p_lb.set_defaults(func=cmd_lowerbound)

    p_verify = sub.add_parser("verify", help="quick invariant suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        # the notes say where a run failed ("round t")
        print("\n".join([f"error: {exc}", *getattr(exc, "__notes__", ())]), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
