"""Slow reference helpers that only the tests use.

The simulator in ``src/`` does not need any of these; the tests check it
against them.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from prudentbanker.errors import ConfigError
from prudentbanker.harness import CSV_HEADER
from prudentbanker.mirror import NEG_ENTROPY, Regularizer, grad_psi, grad_psi_star_with_dual


def block_index(t: int, horizon: int, blocks: int) -> int:
    """1-indexed block id of round t: 1 + min{floor((t-1)/(floor(T/B)+1)), B-1}."""
    width = horizon // blocks + 1
    return 1 + min((t - 1) // width, blocks - 1)


def psi_value(reg: Regularizer, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if reg.kind == NEG_ENTROPY:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(x > 0.0, x * np.log(np.maximum(x, 1e-300)), 0.0)
        return float(np.sum(terms))
    return float(-2.0 * np.sum(np.sqrt(x)))


def bregman(reg: Regularizer, x: np.ndarray, y: np.ndarray) -> float:
    """D_Psi(x, y) = Psi(x) - Psi(y) - <grad Psi(y), x - y>; y must be interior."""
    x = np.asarray(x, dtype=float)
    gy = grad_psi(reg, y)  # raises DomainError on boundary y
    val = psi_value(reg, x) - psi_value(reg, y) - float(np.dot(gy, x - np.asarray(y, dtype=float)))
    return max(val, 0.0)


def expected_mirror_step_divergence(reg: Regularizer, x: np.ndarray, sigma: float,
                                    loss: float = 1.0) -> float:
    """E_a~x [ sigma * D_Psi(x, z(a)) ] for a unit-scale importance-weighted step.

    z(a) is the constrained mirror step from x with estimator (loss/x_a) e_a and
    step size 1/sigma. The expectation is computed exactly over the finite arm set.
    """
    x = np.asarray(x, dtype=float)
    base = grad_psi(reg, x)
    total = 0.0
    for a in range(reg.arms):
        if x[a] <= 0.0:
            continue
        theta = base.copy()
        theta[a] -= (loss / x[a]) / sigma
        z, _ = grad_psi_star_with_dual(reg, theta)
        total += x[a] * sigma * bregman(reg, x, np.maximum(z, 1e-300))
    return total


def parse_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Re-read an emitted CSV into column arrays (exact round trip)."""
    lines = Path(path).read_text().strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header {lines[0]!r}")
    cols = {name: [] for name in CSV_HEADER.split(",")}
    for line in lines[1:]:
        for name, val in zip(cols, line.split(",")):
            cols[name].append(val)
    out = {}
    for name, vals in cols.items():
        if name in ("t", "stage", "phase", "arrived"):
            out[name] = np.array([int(v) for v in vals], dtype=np.int64)
        else:
            out[name] = np.array([float(v) for v in vals])
    return out


def cucb_bounds_masked(n_obs: np.ndarray, sums: np.ndarray, t0: int, arms: int,
                       delta_ucb: float, default_arm: int,
                       r0: float) -> tuple[np.ndarray, np.ndarray]:
    """Conservative-UCB's (LCB, UCB) computed on the observed arms only."""
    lcb = np.zeros(arms)
    ucb = np.ones(arms)
    log_arg = max(3.0, 2.0 * arms * (t0 + 1) ** 2 / delta_ucb)
    observed = n_obs > 0
    if observed.any():
        mean = np.zeros(arms)
        mean[observed] = sums[observed] / n_obs[observed]
        c = np.sqrt(2.0 * math.log(log_arg) / np.maximum(n_obs, 1))
        lcb[observed] = np.maximum(0.0, mean[observed] - c[observed])
        ucb[observed] = np.minimum(1.0, mean[observed] + c[observed])
    lcb[default_arm] = r0
    ucb[default_arm] = r0
    return lcb, ucb


def csv_string_each_entry(trace) -> str:
    """A trace's CSV, formatting every entry of every column with repr."""
    columns = (map(repr, getattr(trace, name).tolist()) for name in CSV_HEADER.split(","))
    return "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"
