"""Individual-level quantification: trust updates, discernment, belief.

Trust moves through saturating exponential enhancement/decay terms so
repeated exposure shows diminishing marginal effect, and never leaves
[0, 1]. Discernment is affine in plausibility. Belief realizes discernment
as a seeded Bernoulli draw, which keeps the core engine deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TrustUpdateInputs:
    """One agent's pending exposure, aggregated since its last activation.

    ``corr_neighbors`` and ``dis_neighbors`` hold (influence, persuasiveness)
    pairs for corrective and disinformation receipts respectively.
    """

    current_tt: float
    corr_neighbors: tuple = ()
    dis_neighbors: tuple = ()
    gamma: float = 0.5
    beta: float = 0.5
    delta: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.current_tt <= 1.0:
            raise ValueError(f"current_tt {self.current_tt} outside [0, 1]")
        for name in ("gamma", "beta", "delta"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} {v} outside (0, 1)")
        for pairs in (self.corr_neighbors, self.dis_neighbors):
            for si, f in pairs:
                if not 0.0 <= si <= 1.0 or not 0.0 <= f <= 1.0:
                    raise ValueError(f"influence/persuasiveness pair ({si}, {f}) outside [0, 1]")


@dataclass(frozen=True)
class DiscernmentInputs:
    updated_tt: float
    plausibility: float

    def __post_init__(self):
        if not 0.0 <= self.updated_tt <= 1.0:
            raise ValueError(f"updated_tt {self.updated_tt} outside [0, 1]")
        if not 0.0 <= self.plausibility <= 1.0:
            raise ValueError(f"plausibility {self.plausibility} outside [0, 1]")


def update_trust(inputs: TrustUpdateInputs) -> float:
    """New trust threshold after the pending corrective/disinformation mix.

    enhancement = gamma * (1 - exp(-beta * sum(si * f_corr)))
    decay       = (1 - gamma) * (1 - exp(-delta * sum(si * f_dis)))
    result      = clip(tt + enhancement - decay, 0, 1)
    """
    s_corr = sum(si * f for si, f in inputs.corr_neighbors)
    s_dis = sum(si * f for si, f in inputs.dis_neighbors)
    enhancement = inputs.gamma * (1.0 - math.exp(-inputs.beta * s_corr))
    decay = (1.0 - inputs.gamma) * (1.0 - math.exp(-inputs.delta * s_dis))
    return min(1.0, max(0.0, inputs.current_tt + enhancement - decay))


def discernment(inputs: DiscernmentInputs) -> float:
    """Chance the agent correctly identifies the false claim:
    1 - (1 - trust) * plausibility."""
    return 1.0 - (1.0 - inputs.updated_tt) * inputs.plausibility


def believe_disinformation(da: float, rng) -> bool:
    """Seeded Bernoulli realization: believes with probability 1 - da."""
    if not 0.0 <= da <= 1.0:
        raise ValueError(f"discernment {da} outside [0, 1]")
    return bool(rng.random() < (1.0 - da))
