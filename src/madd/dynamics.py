"""Individual-level quantification: trust updates, discernment, belief.

Trust moves through saturating exponential enhancement/decay terms so
repeated exposure shows diminishing marginal effect, and never leaves
[0, 1]; the update takes the two influence-weighted persuasiveness sums
its caller adds up. Discernment is affine in plausibility. Belief
realizes discernment as a seeded Bernoulli draw, which keeps the core
engine deterministic.

The rules take plain floats and check nothing: their inputs are checked
where they enter (``SimulationParams`` construction for gamma/beta/delta,
the evaluator for persuasiveness, ``engine.run`` for starting trust and
plausibility).
"""

from __future__ import annotations

import math


def update_trust(
    tt: float, s_corr: float, s_dis: float, gamma: float, beta: float, delta: float
) -> float:
    """New trust threshold after the pending corrective/disinformation mix.

    ``s_corr`` and ``s_dis`` are the influence-weighted persuasiveness sums,
    sum(si * f), over the corrective and the disinformation receipts.

    enhancement = gamma * (1 - exp(-beta * s_corr))
    decay       = (1 - gamma) * (1 - exp(-delta * s_dis))
    result      = clip(tt + enhancement - decay, 0, 1)
    """
    enhancement = gamma * (1.0 - math.exp(-beta * s_corr))
    decay = (1.0 - gamma) * (1.0 - math.exp(-delta * s_dis))
    return min(1.0, max(0.0, tt + enhancement - decay))


def discernment(trust: float, plausibility: float) -> float:
    """Chance the agent correctly identifies the false claim:
    1 - (1 - trust) * plausibility."""
    return 1.0 - (1.0 - trust) * plausibility


def believe_disinformation(da: float, u: float) -> bool:
    """Bernoulli realization from one seeded uniform ``u`` in [0, 1):
    believes with probability 1 - da."""
    return u < 1.0 - da
