"""Geometric metric discretization and the offset search.

Distances are rounded up to levels D_l = tau^(l + b) (with D_-1 = 0 and
D_-2 = -1 as sentinels); the offset b in [0, 1) is chosen by exact
breakpoint enumeration to minimize the discount-inflated rounded objective.
The rounded map is not itself a metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_SNAP = 1e-12  # fractional parts of log_tau within this of an integer snap


@dataclass(frozen=True)
class DiscretizedMetric:
    tau: float
    b: float

    def __post_init__(self):
        if not self.tau > 1.0:
            raise ValueError("tau must exceed 1")
        if not 0.0 <= self.b < 1.0:
            raise ValueError("offset b must lie in [0, 1)")

    def level_value(self, level: int) -> float:
        """D_level; levels -1 and -2 are the 0 / -1 sentinels."""
        if level <= -2:
            return -1.0
        if level == -1:
            return 0.0
        return self.tau ** (level + self.b)

    def level_of(self, c: float) -> int:
        """Smallest level whose value covers c (level -1 for co-location)."""
        if c <= 0.0:
            return -1
        t = math.log(c) / math.log(self.tau) - self.b
        n = round(t)
        level = n if abs(t - n) <= LOG_SNAP else math.ceil(t)
        return max(0, level)

    def levels_array(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        out = np.full(c.shape, -1, dtype=np.int64)
        pos = c > 0.0
        if pos.any():
            out[pos] = _levels(np.log(c[pos]) / math.log(self.tau), self.b)
        return out

    def level_values(self, lev: np.ndarray) -> np.ndarray:
        """D_level elementwise for levels from ``levels_array`` (-1 maps to 0)."""
        return np.where(lev < 0, 0.0, self.tau ** (lev + self.b))


def _levels(logs: np.ndarray, b) -> np.ndarray:
    """``level_of`` of positive distances from their log_tau values, for an
    offset ``b`` that broadcasts against them."""
    t = logs - b
    n = np.rint(t)
    return np.maximum(0, np.where(np.abs(t - n) <= LOG_SNAP, n, np.ceil(t)).astype(np.int64))


def discretization_ratio(tau: float) -> float:
    """Expected rounding inflation (tau - 1) / ln(tau) under a uniform offset."""
    return (tau - 1.0) / math.log(tau)


def choose_offset(
    c: np.ndarray, r: np.ndarray, mass: np.ndarray, tau: float
) -> tuple[float, float]:
    """Offset b minimizing sum of mass * (chat - tau*r)^+, plus that minimum.

    The objective is piecewise nondecreasing and right-continuous in b with
    breakpoints exactly at 0 and the fractional parts of log_tau(c), so
    evaluating at those points finds the global minimum. The minimum is also
    guaranteed not to exceed (tau-1)/ln(tau) times sum of mass * (c - r)^+.
    """
    c = np.asarray(c, dtype=float)
    r = np.asarray(r, dtype=float)
    mass = np.asarray(mass, dtype=float)
    if c.size == 0:
        return 0.0, 0.0
    if np.any((c > 0) & (c < 1.0 - 1e-9)):
        raise ValueError("choose_offset requires a normalized metric (c >= 1 or 0)")

    DiscretizedMetric(tau, 0.0)  # tau > 1
    pos = c > 0
    logs = np.log(c[pos]) / math.log(tau)
    frac = logs - np.floor(logs)
    frac = np.where(frac > 1.0 - LOG_SNAP, 0.0, frac)
    cands = np.unique(np.concatenate([[0.0], frac])).tolist()

    # the rounded support at every candidate, a row each; D_level is taken
    # row by row as level_values takes it and the other steps are exact, so
    # each row is bit for bit that candidate's level_values(levels_array(c))
    lev = np.full((len(cands), c.size), -1, dtype=np.int64)
    lev[:, pos] = _levels(logs, np.array(cands)[:, None])
    chat = np.where(lev < 0, 0.0, np.array([tau ** (row + b) for row, b in zip(lev, cands)]))
    objs = np.sum(mass * np.maximum(chat - tau * r, 0.0), axis=1).tolist()
    best_b, best_obj = 0.0, math.inf
    for b, obj in zip(cands, objs):
        if obj < best_obj - 1e-15:
            best_b, best_obj = b, obj

    bound = discretization_ratio(tau) * float(np.sum(mass * np.maximum(c - r, 0.0)))
    if best_obj > bound + 1e-6 * max(1.0, bound):
        raise AssertionError(
            f"offset search beat by the expectation bound: {best_obj} > {bound}"
        )
    return best_b, best_obj
