"""Time-stepped propagation engine.

Semantics, fixed for determinism:

* Synchronous rounds: everything sent during step t (bot broadcasts and
  regular shares alike) is delivered when t ends, so an agent activated at
  t reads only messages delivered at steps <= t-1.
* Delivery is where exposure happens: a receipt becomes the agent's latest
  message and bumps the per-item receipt count. An agent is exposed exactly
  when its claim-receipt count is positive, so its first sight of the claim
  is that count reaching 1; an endorsed claim re-draws belief at the
  receiver's current trust.
  A corrective receipt makes an already-exposed receiver re-judge the
  run's claim the same way; belief is re-evaluated on every exposure, so
  infected and uninfected spreader states stay revisitable. Delivery runs
  one receipt loop per kind: an endorsed claim exposes and re-draws belief
  on every receipt; a disputed claim draws belief on a first sight of the
  claim, and otherwise it, like a correction, draws an accept for a
  believer.
* Each regular agent's discernment sits beside its trust, recomputed at
  the only two places trust is set (run start and the trust update). Trust
  moves only in the activation phase, which runs before the step delivers,
  so every receipt of a step judges at the same discernment it would
  compute afresh.
* Activation is where judgment happens: an active regular agent first
  applies the trust update over everything received since its previous
  activation, then decides whether to share the latest received item.
  The trust update weighs each message by its persuasiveness for the
  receiver, which depends only on the item, the stance, the receiver's
  history and the run topic: the evaluator is asked once per receiver and
  (item, stance) in a run, and the receiver keeps the answer. The share
  decision damps the agent's ``share_base``, computed once per run.
* Sharing classifies exposed agents as infected or uninfected spreaders by
  whether they currently believe the run's disinformation. Non-believers
  pass the item on with a disputing stance, which receivers experience as
  corrective pressure - the spontaneous-debunker channel that operates
  even in control runs.
* Every draw is keyed by (seed, purpose, agent[, item]), never by the
  order agents are processed in, and every stream is one
  ``rng.substream``. Each regular agent owns one "act" stream, drawn once
  per run as a (steps, 2) block of activation and share uniforms; step t
  reads row t-1. Its "belief" and "accept" streams over the run's claim
  sit in one ``JudgmentStreams`` table per kind, which builds a receiver's
  ``judgment_draws`` stream at its first judgment, so a stream no judgment
  reads is never built; its k-th judgment of a kind takes that stream's
  k-th uniform, read in blocks of JUDGMENT_BLOCK (on PCG64, ``random(n)``
  yields the same doubles as n scalar ``random()`` calls).

Bots are instruments: only bots homed in the run topic's community act,
each broadcasting on the steps of its drawn schedule alone - malicious ones
the disinformation item anywhere in the run, legitimate ones the plan's
correction inside its stage's window in the run parameters (an empty
schedule under a control plan, so such a bot never broadcasts).
Bots never appear in status tallies.

State layout: the regular agents and every bot homed in the run topic share
one integer index in agent-id order, the same for every plan. Per-agent
state sits in flat lists by index, an audience is a list of receiver
indices, and a send is a kind code (claim endorsed, claim disputed,
correction). Only a run given ``state_out`` keeps each step's (sender, kind)
sends; its SimulationState expands them on access into ``delivery_log``
tuples and ``agents[id]`` views (``outbox``, ``exposure_counts``).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .attributes import KIND_MBOT, KIND_REGULAR, AgentProfile, dissemination_tendency, share_base
from .attributes import activation_probability  # noqa: F401 - active_agents vectorizes it
from .content import InterventionPlan, correction_for, score_plausibility, stage_window
from .dynamics import believe_disinformation, discernment, update_trust
from .errors import EvaluatorFailure, RangeViolation
from .evaluator import Evaluator
from .network import PropagationNetwork
from .powerlaw import PowerLawFit
from .report import RunReport, StepRecord, population_stats
from .scenario import HOURS_PER_DAY, Scenario

STATUS_SUSCEPTIBLE = "susceptible"
STATUS_EXPOSED = "exposed"
SPREADER_INFECTED = "infected_spreader"
SPREADER_UNINFECTED = "uninfected_spreader"

STANCE_ENDORSE = "endorse"
STANCE_DISPUTE = "dispute"

# a send's kind code, and the stance and item (0 the claim, 1 the correction) it carries
CLAIM_ENDORSE, CLAIM_DISPUTE, CORRECTION = range(3)
KIND_STANCE = (STANCE_ENDORSE, STANCE_DISPUTE, STANCE_ENDORSE)
KIND_ITEM = (0, 0, 1)

DEFAULT_RECORD_CADENCE = 12
JUDGMENT_BLOCK = 32  # uniforms a judgment stream draws per refill


def judgment_draws(seed: int, purpose: str, agent_id: str, content_id: str):
    """One receiver's uniforms for one kind of judgment over one item, in
    order: the k-th ``next`` is the k-th scalar ``random()`` of
    ``rng.substream(seed, purpose, agent_id, content_id)``, read
    ``JUDGMENT_BLOCK`` doubles at a time. The body runs at the first
    ``next``, so a stream never read is never built."""
    gen = rngmod.substream(seed, purpose, agent_id, content_id)
    while True:
        yield from gen.random(JUDGMENT_BLOCK).tolist()


class JudgmentStreams(dict):
    """One judgment kind's streams over a run's claim: receiver index r ->
    its ``judgment_draws(seed, purpose, ids[r], content_id)`` generator,
    made when r is first looked up, so an unread stream holds no
    generator."""

    def __init__(self, seed: int, purpose: str, ids: list, content_id: str):
        super().__init__()
        self.seed, self.purpose, self.ids, self.content_id = seed, purpose, ids, content_id

    def __missing__(self, r: int):
        stream = self[r] = judgment_draws(self.seed, self.purpose, self.ids[r], self.content_id)
        return stream


@dataclass
class SimulationState:
    """One run's agents on one index in agent-id order; the per-agent lists
    are sized from ``ids``, and a bot's entries stay unused."""

    ids: list  # index -> agent id, ascending
    rows: list  # indices of the regular agents, ascending
    community_rows: dict  # community -> indices of its regular members, in member order
    profiles: list = field(default_factory=list)  # index -> AgentProfile
    items: tuple = ()  # (the claim, the plan's correction or None)
    weight: list = field(default_factory=list)  # index -> sender influence toward the topic
    audience: list = field(default_factory=list)  # index -> receiver indices, in neighbour order
    sends: list | None = None  # (step, [(sender, kind), ...]) per step, when recorded
    plausibility: float = 0.0  # of the run's claim
    streams: dict = field(default_factory=dict)  # purpose -> JudgmentStreams over the claim

    def __post_init__(self):
        n = len(self.ids)
        self.trust = [0.0] * n
        self.da = [0.0] * n  # discernment(trust, plausibility), set wherever trust is
        self.believes = [False] * n  # believes the run's claim
        self.spreading = [False] * n  # has shared while exposed
        self.latest = [None] * n  # kind code of the latest receipt
        self.receipts = ([0] * n, [0] * n)  # per item: receipts per index; exposed = claim's > 0
        self.pending = [{} for _ in range(n)]  # sender -> kind received since last activation
        self.strengths = [[None] * len(KIND_STANCE) for _ in range(n)]  # kind -> persuasiveness

    @property
    def delivery_log(self) -> DeliveryLog:
        """Every receipt as (step, sender, receiver, content_id, stance)."""
        return DeliveryLog(self)

    @property
    def agents(self) -> dict:
        """agent id -> AgentView of each regular agent, built on access."""
        outbox = {i: [] for i in self.rows}
        for t, sends in self.sends or ():
            for sender, kind in sends:
                if sender in outbox:
                    content_id = self.items[KIND_ITEM[kind]].content_id
                    outbox[sender].append((t, content_id, KIND_STANCE[kind]))
        return {
            self.ids[i]: AgentView(
                STATUS_EXPOSED if self.receipts[0][i] else STATUS_SUSCEPTIBLE,
                self.trust[i],
                {item.content_id: n[i] for item, n in zip(self.items, self.receipts) if n[i]},
                outbox[i],
            )
            for i in self.rows
        }


# one regular agent at the end of a run; exposure_counts maps content_id to
# receipts, outbox holds (step, content_id, stance) per share
AgentView = namedtuple("AgentView", "status trust exposure_counts outbox")


class DeliveryLog:
    """A run's receipts, expanded from its recorded sends when iterated."""

    def __init__(self, state: SimulationState):
        self.state = state

    def __len__(self) -> int:
        return sum(len(self.state.audience[s]) for _, sends in self.state.sends for s, _ in sends)

    def __iter__(self):
        ids, audience, items = self.state.ids, self.state.audience, self.state.items
        return (
            (t, ids[s], ids[r], items[KIND_ITEM[kind]].content_id, KIND_STANCE[kind])
            for t, sends in self.state.sends for s, kind in sends for r in audience[s]
        )


def snapshot_ratios(state: SimulationState, community: str) -> tuple:
    """(SR, ER, IR, UR) over the community's regular members."""
    members = state.community_rows[community]
    n = len(members)
    if n == 0:
        return (1.0, 0.0, 0.0, 0.0)
    claims = state.receipts[0]  # an agent is exposed when it has any
    exposed = len([i for i in members if claims[i]])
    spreaders = [i for i in members if state.spreading[i]]
    infected = sum([state.believes[i] for i in spreaders])
    return ((n - exposed) / n, exposed / n, infected / n, (len(spreaders) - infected) / n)


def build_bot_schedules(
    profiles, params, plan: InterventionPlan, seed: int
) -> dict:
    """Seeded activation-step sets per bot.

    Malicious activation counts draw from the malicious range and land
    anywhere in [1, T]; legitimate counts draw from the legitimate range and
    land inside the plan's stage window in ``params`` (a stage without one
    raises RangeViolation). Control plans produce empty legitimate
    schedules. Counts clamp to the hosting range length.
    """
    window = None if plan.stage == "control" else stage_window(params, plan.stage)
    schedules: dict[str, frozenset] = {}
    for profile in sorted(profiles, key=lambda p: p.agent_id):
        if profile.kind == KIND_REGULAR:
            continue
        if profile.kind == KIND_MBOT:
            first, span = 1, params.total_steps
            lo, hi = params.malicious_freq_range
        elif window is None:
            schedules[profile.agent_id] = frozenset()
            continue
        else:
            first, last = window
            span = last - first + 1
            lo, hi = params.legitimate_freq_range
        hi = min(hi, span)
        rng = rngmod.substream(seed, "schedule", profile.agent_id)
        count = int(rng.integers(min(lo, hi), hi + 1))
        steps = rng.choice(span, size=count, replace=False) + first
        schedules[profile.agent_id] = frozenset(int(s) for s in steps)
    return schedules


def activation_draws(seed: int, agent_ids, total_steps: int) -> np.ndarray:
    """The per-step uniforms of these agents, drawn as one block.

    ``draws[i]`` is agent_ids[i]'s "act" stream drawn as
    ``(total_steps, 2)``. Step t reads ``draws[i, t-1]``: column 0 decides
    activation and column 1 dissemination.
    ``draws[i]`` depends only on (seed, agent_ids[i]), never on which other
    agents are in the block.
    """
    draws = np.empty((len(agent_ids), total_steps, 2))
    for i, agent_id in enumerate(agent_ids):
        draws[i] = rngmod.substream(seed, "act", agent_id).random((total_steps, 2))
    return draws


def active_agents(draws: np.ndarray, probs: np.ndarray, t: int) -> list:
    """Ascending row indices of the agents active at step t.

    ``probs`` holds one row of hour-of-day activation probabilities per
    agent; agent i is active when its step-t activation uniform falls below
    ``activation_probability(profile_i, t)``, i.e. ``probs[i, (t-1) % 24]``.
    """
    hour = (t - 1) % HOURS_PER_DAY
    return np.flatnonzero(draws[:, t - 1, 0] < probs[:, hour]).tolist()


def _sender_influence(profile: AgentProfile, community: str) -> float:
    si = profile.social_influence.get(community)
    if si is not None:
        return si
    return population_stats(profile.social_influence.values())[0]  # 0.0 when empty


def run(
    scenario: Scenario,
    network: PropagationNetwork,
    profiles,
    plan: InterventionPlan,
    evaluator: Evaluator,
    seed: int,
    *,
    fit: PowerLawFit,
    topic: str | None = None,
    record_cadence: int = DEFAULT_RECORD_CADENCE,
    collect_trajectories: bool = False,
    progress=None,
    state_out: list | None = None,
) -> RunReport:
    """Simulate one disinformation topic under one intervention plan.

    Inputs are treated as read-only; repeated calls with equal arguments
    produce byte-identical reports. An evaluator failure mid-run aborts and
    returns the records so far with ``complete`` set False. Pass a list as
    ``state_out`` to receive the final SimulationState (appended), with its
    record of the sends delivered, for inspection and invariant checks.

    Judgment inputs are checked here, once: the plausibility (given or
    scored) and each regular agent's starting trust toward the topic must
    be present and lie in [0, 1], else ValueError before step 1. Trust then
    moves only through ``update_trust``, which clips to [0, 1], so
    discernment needs no check per receipt.
    """
    if record_cadence < 1:
        raise RangeViolation("record_cadence", record_cadence, ">= 1")
    params = scenario.params
    profiles = sorted(profiles, key=lambda p: p.agent_id)

    disinfo = scenario.disinformation_for(topic)
    topic = disinfo.topic
    plausibility = disinfo.plausibility
    if plausibility is None:
        plausibility = score_plausibility(disinfo, evaluator)
    if not 0.0 <= plausibility <= 1.0:
        raise ValueError(f"plausibility {plausibility} outside [0, 1]")

    correction = None
    if plan.strategy != "none":
        correction = correction_for(disinfo, plan.strategy, scenario.content_catalog)

    # the same index for every plan, so a plan reaches the run only through
    # its correction and its legitimate bots' schedules
    members = [p for p in profiles if p.kind == KIND_REGULAR or p.home_community() == topic]
    schedules = build_bot_schedules([p for p in members if p.is_bot], params, plan, seed)
    ids = [p.agent_id for p in members]
    regular = {p.agent_id: i for i, p in enumerate(members) if p.kind == KIND_REGULAR}
    state = SimulationState(
        ids=ids,
        rows=list(regular.values()),
        community_rows={
            c: [regular[m] for m in ms if m in regular] for c, ms in network.community_index.items()
        },
        profiles=members,
        items=(disinfo, correction),
        weight=[_sender_influence(p, topic) for p in members],
        # bots ignore what they receive
        audience=[[regular[n] for n in network.neighbors(a) if n in regular] for a in ids],
        sends=[] if state_out is not None else None,
        plausibility=plausibility,
        streams={purpose: JudgmentStreams(seed, purpose, ids, disinfo.content_id)
                 for purpose in ("belief", "accept")},
    )
    for i in state.rows:
        trust = members[i].trust_thresholds.get(topic)
        if trust is None:
            raise ValueError(f"{ids[i]} has no trust threshold toward {topic!r}")
        state.trust[i] = trust
        if not 0.0 <= trust <= 1.0:
            raise ValueError(f"trust {trust} of {ids[i]} outside [0, 1]")
        state.da[i] = discernment(trust, plausibility)

    rows = state.rows
    draws = activation_draws(seed, [ids[i] for i in rows], params.total_steps)
    probs = np.array([members[i].activation_probs for i in rows], dtype=float)
    probs = probs.reshape(len(rows), HOURS_PER_DAY)
    # the exposure-free share probability holds still through a run
    bases = [share_base(members[i], topic, fit, params) for i in rows]
    xi = params.xi

    # step -> the bot broadcasts sent at that step, in bot-id order
    broadcasts: dict[int, list] = {}
    for i, bot in enumerate(members):
        if bot.kind != KIND_REGULAR:
            send = (i, CLAIM_ENDORSE if bot.kind == KIND_MBOT else CORRECTION)
            for step in schedules[bot.agent_id]:
                broadcasts.setdefault(step, []).append(send)

    report = RunReport(
        scenario_digest=scenario.digest(), seed=int(seed), topic=topic,
        plan_stage=plan.stage, plan_strategy=plan.strategy, record_cadence=record_cadence,
        total_steps=params.total_steps, series={c: [] for c in network.community_index},
    )
    trust, latest, receipts, pending = state.trust, state.latest, state.receipts, state.pending
    believes, spreading = state.believes, state.spreading

    def record(step: int) -> None:
        for community, community_rows in state.community_rows.items():
            ratios = snapshot_ratios(state, community)
            stats = population_stats([trust[i] for i in community_rows])
            report.series[community].append(StepRecord(step, *ratios, *stats))
        if collect_trajectories:
            for i in rows:
                report.trajectories.setdefault(ids[i], []).append((step, trust[i]))
        if progress is not None:
            progress({"event": "record", "step": step, "topic": topic,
                      "stage": plan.stage, "strategy": plan.strategy})

    record(0)
    try:
        for t in range(1, params.total_steps + 1):
            outgoing = list(broadcasts.get(t, ()))
            for row in active_agents(draws, probs, t):
                i = rows[row]
                if pending[i]:
                    _apply_trust_update(state, i, evaluator, params, topic)
                kind = latest[i]
                if kind is None:
                    continue
                prior_receipts = receipts[KIND_ITEM[kind]][i] - 1
                dt = dissemination_tendency(bases[row], xi, prior_receipts)
                if draws[row, t - 1, 1] >= dt:
                    continue
                if kind != CORRECTION:  # the claim: endorsed only by a believer
                    kind = CLAIM_ENDORSE if believes[i] else CLAIM_DISPUTE
                outgoing.append((i, kind))
                if receipts[0][i]:  # exposed
                    spreading[i] = True

            _deliver(state, outgoing)
            if state.sends is not None:
                state.sends.append((t, outgoing))

            if t % record_cadence == 0 or t == params.total_steps:
                record(t)
    except EvaluatorFailure:
        report.complete = False

    report.final_states = _final_states(state)
    report.resource_ledger = evaluator.ledger_snapshot()
    report.validate()
    if state_out is not None:
        state_out.append(state)
    return report


def _apply_trust_update(state: SimulationState, i: int, evaluator, params, topic: str) -> None:
    # the enhancement/decay sums run over neighbors, not messages: a sender
    # re-delivering since the last activation counts once, through the most
    # recent thing it pushed; each sum adds in ascending sender order
    pending = state.pending[i]
    strengths, weight = state.strengths[i], state.weight
    s_corr = s_dis = 0
    for sender in sorted(pending):
        kind = pending[sender]
        strength = strengths[kind]
        if strength is None:
            item = state.items[KIND_ITEM[kind]]
            strength = strengths[kind] = evaluator.persuasiveness(
                item.text, content_kind=item.kind, strategy=item.strategy, stance=KIND_STANCE[kind],
                receiver_history=state.profiles[i].history_summary, community=topic,
            )
        if kind == CLAIM_ENDORSE:
            s_dis += weight[sender] * strength
        else:  # a correction item, or a disputing quote of the claim
            s_corr += weight[sender] * strength
    trust = state.trust[i] = update_trust(
        state.trust[i], s_corr, s_dis, params.gamma, params.beta, params.delta)
    # trust moves only here, in the activation phase, before the step delivers
    state.da[i] = discernment(trust, state.plausibility)
    pending.clear()


def _deliver(state: SimulationState, outgoing) -> None:
    # the k-th judgment of a kind takes the k-th draw of the receiver's own
    # stream of that kind, so plans sharing a seed see aligned randomness
    # until their histories actually diverge
    audience, latest, pending = state.audience, state.latest, state.pending
    believes, da = state.believes, state.da
    claim_receipts, correction_receipts = state.receipts
    belief, accept = state.streams["belief"], state.streams["accept"]
    for sender, kind in outgoing:
        if kind == CLAIM_ENDORSE:
            for r in audience[sender]:
                latest[r] = kind
                pending[r][sender] = kind
                claim_receipts[r] += 1
                # seeing the claim pushed at face value re-draws belief both ways
                believes[r] = believe_disinformation(da[r], next(belief[r]))
            continue
        disputed = kind == CLAIM_DISPUTE
        counts = claim_receipts if disputed else correction_receipts
        for r in audience[sender]:
            latest[r] = kind
            pending[r][sender] = kind
            counts[r] += 1
            if disputed and counts[r] == 1:
                # a first sight of the claim, even inside a disputing quote,
                # draws belief both ways
                believes[r] = believe_disinformation(da[r], next(belief[r]))
            elif believes[r] and next(accept[r]) < da[r]:  # only an exposed agent believes
                # corrective pressure (a correction item, or a disputing quote of
                # a claim already seen) flips a believer on a successful
                # discernment event (probability DA); when it fails to land,
                # belief is unchanged - a rejected debunk never creates a believer
                believes[r] = False


def _final_states(state: SimulationState) -> dict:
    statuses = (STATUS_SUSCEPTIBLE, STATUS_EXPOSED, SPREADER_INFECTED, SPREADER_UNINFECTED)
    out = {status: [] for status in statuses}
    for i in state.rows:
        agent_id = state.ids[i]
        out[STATUS_EXPOSED if state.receipts[0][i] else STATUS_SUSCEPTIBLE].append(agent_id)
        if state.spreading[i]:
            out[SPREADER_INFECTED if state.believes[i] else SPREADER_UNINFECTED].append(agent_id)
    return out
