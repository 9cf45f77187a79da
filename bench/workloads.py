"""The benchmark's workloads: which learners play which environment.

Each workload is built the way ``prudentbanker sweep`` builds a cell: one
environment from the workload seed, shared by every learner of the workload,
and one ``RunConfig`` per learner with ``seed`` equal to the environment seed.
The program only ever receives the generated configs and inputs.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from prudentbanker.harness import RunConfig
from prudentbanker.mirror import NEG_ENTROPY, TSALLIS_HALF
from prudentbanker.protocol import EnvironmentConfig

#: CLI default for --threshold-scale
CLI_THRESHOLD_SCALE = 1.0
#: calibration the structural acceptance tests use at desk scale
DESK_THRESHOLD_SCALE = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    learners: tuple[str, ...]
    horizon: int
    arms: int
    blocks: int
    delay_model: str
    regularizer: str = NEG_ENTROPY
    threshold_scale: float = CLI_THRESHOLD_SCALE
    delta: float = 0.01

    def environment(self, seed: int) -> EnvironmentConfig:
        return EnvironmentConfig(horizon=self.horizon, arms=self.arms,
                                 blocks=self.blocks, delay_model=self.delay_model,
                                 seed=seed)

    def configs(self, seed: int) -> list[RunConfig]:
        env = self.environment(seed)
        return [RunConfig(env=env, learner=learner, regularizer=self.regularizer,
                          delta=self.delta, threshold_scale=self.threshold_scale,
                          seed=seed)
                for learner in self.learners]

    @property
    def rounds(self) -> int:
        """Rounds simulated by one pass over the workload's learners."""
        return self.horizon * len(self.learners)

    def with_horizon(self, horizon: int) -> "Workload":
        """The same workload at a shorter horizon (for the benchmark's tests)."""
        return dataclasses.replace(self, horizon=horizon,
                                   blocks=min(self.blocks, horizon))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-negent",
        why="desk geometric prudent-banker, negative entropy, threshold_scale 0.02: "
            "soft restarts happen and every layer shares the time",
        learners=("prudent-banker",), horizon=20000, arms=10, blocks=100,
        delay_model="geometric", threshold_scale=DESK_THRESHOLD_SCALE),
    Workload(
        name="desk-tsallis",
        why="desk geometric prudent-banker, 1/2-Tsallis: the bisection conjugate in "
            "mirror dominates, harness and protocol barely show",
        # a full 20000-round desk run takes 10-15 s; 2000 rounds keep several
        # timed samples inside one benchmark run
        learners=("prudent-banker",), horizon=2000, arms=10, blocks=100,
        delay_model="geometric", regularizer=TSALLIS_HALF),
    Workload(
        name="desk-baselines",
        why="safe-exp3ix, conservative-ucb and play-comparator on one desk geometric "
            "environment: bypasses mirror, banker and prudent",
        learners=("safe-exp3ix", "conservative-ucb", "play-comparator"),
        horizon=20000, arms=10, blocks=100, delay_model="geometric"),
    Workload(
        name="paper-lomax",
        why="paper-scale arms and blocks with lomax delays: large ledger, "
            "large loss table and the slowest set-up",
        # paper horizon is 50000; 20000 rounds keep the run and its
        # tracemalloc pass inside the time one benchmark run may take
        learners=("prudent-banker",), horizon=20000, arms=100, blocks=500,
        delay_model="lomax"),
)}
