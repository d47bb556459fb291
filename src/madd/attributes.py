"""Per-agent attribute derivation.

Each agent carries five per-community attributes: interest scores, trust
thresholds, a dissemination tendency (a ``share_base`` mixing the fitted
share-count CDF with interest, damped on demand by re-exposure), a
follower-share social influence, and an hour-of-day activation
probability. Regular users get theirs from user records plus evaluator
scoring; bots get pinned procedural values.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from functools import reduce
from operator import add

import numpy as np

from . import rng as rngmod
from .errors import EvaluatorFailure
from .evaluator import EvaluationRequest, Evaluator
from .network import assign_communities
from .powerlaw import PowerLawFit
from .scenario import HOURS_PER_DAY, Scenario, SimulationParams, bot_id

logger = logging.getLogger(__name__)

KIND_REGULAR = "regular"
KIND_MBOT = "malicious_bot"
KIND_LBOT = "legitimate_bot"

_HISTORY_SUMMARY_CHARS = 280


@dataclass
class AgentProfile:
    agent_id: str
    kind: str
    interest_scores: dict = field(default_factory=dict)  # community -> [1, 10]
    trust_thresholds: dict = field(default_factory=dict)  # community -> [0, 1]
    social_influence: dict = field(default_factory=dict)  # member community -> share
    activation_probs: tuple = tuple([0.0] * HOURS_PER_DAY)
    share_total: int = 0
    follower_count: int = 0
    history_summary: str = ""

    @property
    def is_bot(self) -> bool:
        return self.kind != KIND_REGULAR

    def home_community(self) -> str:
        """Highest-interest community (ties: first in score order)."""
        return max(self.interest_scores, key=lambda c: self.interest_scores[c])

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "history_summary"}


def normalize_histogram(histogram) -> tuple:
    """Counts to per-step probabilities (sum 1; all-zero falls back uniform)."""
    total = sum(histogram)
    if total <= 0:
        return tuple([1.0 / len(histogram)] * len(histogram))
    return tuple(v / total for v in histogram)


def activation_probability(profile: AgentProfile, t: int) -> float:
    """Chance a regular agent is active at step t: its hour-of-day bucket
    ((t-1) mod 24). Bots act on the engine's bot schedules instead."""
    return profile.activation_probs[(t - 1) % HOURS_PER_DAY]


def social_influence(followers) -> dict:
    """Follower-count share per member: f_u / sum(f).

    All-zero followers fall back to a uniform split (logged; the documented
    degenerate-input rule).
    """
    followers = list(followers)
    if not followers:
        raise ValueError("social_influence needs at least one member")
    total = sum(f for _, f in followers)
    if total <= 0:
        logger.warning(
            "all %d members have zero followers; assigning uniform influence",
            len(followers),
        )
        uniform = 1.0 / len(followers)
        return {agent_id: uniform for agent_id, _ in followers}
    return {agent_id: f / total for agent_id, f in followers}


def share_base(
    profile: AgentProfile, community: str, fit: PowerLawFit, params: SimulationParams
) -> float:
    """A regular agent's share probability before re-exposure damping: the
    fitted-CDF and interest mix theta * cdf(share_total) + (1 - theta) * ic / ic_max.

    The fitted CDF reads as 0 below x_min, where the fit is not trusted.
    """
    ic = profile.interest_scores[community]
    ic_max = max(profile.interest_scores.values())
    cdf = fit.cdf(profile.share_total)
    return params.theta * cdf + (1.0 - params.theta) * (ic / ic_max)


def dissemination_tendency(base: float, xi: float, exposure_n: int = 0) -> float:
    """Share probability: a ``share_base`` damped by ``exposure_n`` earlier
    receipts of the item, base * exp(-xi * exposure_n) clipped to [0, 1]."""
    value = base * math.exp(-xi * exposure_n)
    return min(1.0, max(0.0, value))


# the evaluator kinds each regular user is scored on, in scoring order
_PROFILE_KINDS = ("interest_community", "trust_threshold")


def _profile_requests(user, communities: list, kinds=_PROFILE_KINDS):
    texts = tuple(text for _, text in user.historical_texts)
    context = {
        "user_id": user.user_id,
        "communities": communities,
        "description": user.description,
        "follower_count": user.follower_count,
        "following_count": user.following_count,
    }
    return [EvaluationRequest(kind=kind, subject_texts=texts, context=context)
            for kind in kinds]


def _next_scores(scores, user, kind: str) -> dict:
    try:
        return next(scores)
    except EvaluatorFailure as exc:
        raise EvaluatorFailure(f"scoring {kind} for user {user.user_id!r}: {exc}") from exc


def _summarize_history(user) -> str:
    joined = " | ".join(text for _, text in user.historical_texts)
    return joined[:_HISTORY_SUMMARY_CHARS]


def _half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def derive_profiles(scenario: Scenario, evaluator: Evaluator, *, trust: bool = True) -> list:
    """All agent profiles for a scenario: scored regular users plus the
    per-community bot populations.

    ``trust=False`` asks the evaluator only each user's interest scores and
    leaves regular trust thresholds empty, for callers that build the
    network but run no engine. Every other value is the same either way:
    each request draws from its own stream, so skipping the trust requests
    moves no interest score.

    Bot counts are half-up-rounded ratio * community size (minimum one per
    community whenever the ratio is positive). Bot trust thresholds are
    pinned to 1 everywhere; their influence is sampled from the community's
    regular influence values and the whole community is renormalized so
    influence keeps summing to 1.
    """
    params = scenario.params
    profiles: list[AgentProfile] = []
    communities = list(scenario.communities)
    kinds = _PROFILE_KINDS if trust else _PROFILE_KINDS[:1]
    requests = (request for user in scenario.users
                for request in _profile_requests(user, communities, kinds))
    # each request is scored when read, so a failure surfaces at its own
    # user, after the requests before it have been scored and metered
    scores = map(evaluator.evaluate, requests)
    for user in scenario.users:
        ic = _next_scores(scores, user, "interest_community")
        tt = _next_scores(scores, user, "trust_threshold") if trust else None
        profiles.append(
            AgentProfile(
                agent_id=user.user_id,
                kind=KIND_REGULAR,
                interest_scores={c: ic[c] for c in scenario.communities},
                trust_thresholds={c: tt[c] for c in scenario.communities} if trust else {},
                activation_probs=normalize_histogram(user.activity_histogram),
                share_total=user.share_total,
                follower_count=user.follower_count,
                history_summary=_summarize_history(user),
            )
        )

    index = assign_communities(profiles, params.tau, scenario.communities)
    by_id = {p.agent_id: p for p in profiles}
    for community in scenario.communities:
        members = index[community]
        if not members:
            continue
        influence = social_influence((a, by_id[a].follower_count) for a in members)
        # bots imitate rank-and-file accounts: sample the sub-median influence
        # values so no bot lands an organic celebrity's hub position (an array:
        # rng.choice converts a list argument in full on every call)
        si_pool = np.array(sorted(influence.values())[: max(1, len(members) // 2)])
        bots = []
        for ratio, kind, prefix in (
            (params.malicious_ratio, KIND_MBOT, "mbot"),
            (params.legitimate_ratio, KIND_LBOT, "lbot"),
        ):
            if ratio <= 0.0:
                continue
            for i in range(max(1, _half_up(ratio * len(members)))):
                bots.append(AgentProfile(
                    agent_id=bot_id(prefix, community, i),
                    kind=kind,
                    interest_scores={
                        c: (10.0 if c == community else 1.0) for c in scenario.communities
                    },
                    trust_thresholds={c: 1.0 for c in scenario.communities},
                ))
        for bot in bots:
            rng = rngmod.substream(params.rng_seed, "bot-si", bot.agent_id)
            influence[bot.agent_id] = float(rng.choice(si_pool))
            by_id[bot.agent_id] = bot
            profiles.append(bot)
        # bots changed the community total: renormalize influence to sum 1,
        # added left to right in member-id order (3.12's sum() compensates)
        total = reduce(add, [influence[a] for a in sorted(influence)], 0.0)
        for agent_id, share in influence.items():
            by_id[agent_id].social_influence[community] = share / total

    profiles.sort(key=lambda p: p.agent_id)
    return profiles
