"""Time-stepped propagation engine.

Semantics, fixed for determinism:

* Synchronous rounds: everything sent during step t (bot broadcasts and
  regular shares alike) is delivered when t ends, so an agent activated at
  t reads only messages delivered at steps <= t-1.
* Delivery is where exposure happens: a receipt becomes the agent's latest
  message, bumps the per-item exposure counter, and (for disinformation)
  flips a susceptible agent to exposed and re-draws belief at the
  receiver's current trust.
  A corrective receipt makes an already-exposed receiver re-judge the
  run's claim the same way; belief is re-evaluated on every exposure, so
  infected and uninfected spreader states stay revisitable.
* Activation is where judgment happens: an active regular agent first
  applies the trust update over everything received since its previous
  activation, then decides whether to share the latest received item.
  The trust update weighs each message by its persuasiveness for the
  receiver, which depends only on the item, the stance, the receiver's
  history and the run topic: the evaluator is asked once per receiver and
  (item, stance) in a run, and the receiver keeps the answer.
* Sharing classifies exposed agents as infected or uninfected spreaders by
  whether they currently believe the run's disinformation. Non-believers
  pass the item on with a disputing stance, which receivers experience as
  corrective pressure - the spontaneous-debunker channel that operates
  even in control runs.
* Every draw is keyed by (seed, purpose, agent[, item]), never by the
  order agents are processed in. Each regular agent owns one "act" stream,
  drawn once per run as a (steps, 2) block of activation and share
  uniforms; step t reads row t-1. Each receiver owns one
  "belief" and one "accept" stream over the run's claim, and its k-th
  judgment of that kind takes the stream's k-th uniform. Judgment streams
  are read in blocks of JUDGMENT_BLOCK uniforms: on PCG64, ``random(n)``
  yields the same doubles as n scalar ``random()`` calls, so the k-th
  judgment still takes the k-th uniform.

Bots are instruments: only bots homed in the run topic's community act,
each broadcasting on the steps of its drawn schedule alone - malicious ones
the disinformation item anywhere in the run, legitimate ones the plan's
correction inside the intervention window (never under a control plan).
Bots never appear in status tallies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .attributes import (
    KIND_MBOT,
    KIND_REGULAR,
    AgentProfile,
    activation_probability,  # noqa: F401 - the scalar rule active_agents vectorizes
    dissemination_tendency,
)
from .content import (
    ContentItem,
    InterventionPlan,
    correction_for,
    score_plausibility,
)
from .dynamics import believe_disinformation, discernment, update_trust
from .errors import EvaluatorFailure, RangeViolation, WindowTooSmall
from .evaluator import Evaluator
from .network import PropagationNetwork
from .powerlaw import PowerLawFit
from .report import RatioRecord, RunReport, TrustRecord, population_stats
from .scenario import HOURS_PER_DAY, Scenario

STATUS_SUSCEPTIBLE = "susceptible"
STATUS_EXPOSED = "exposed"
SPREADER_INFECTED = "infected_spreader"
SPREADER_UNINFECTED = "uninfected_spreader"

STANCE_ENDORSE = "endorse"
STANCE_DISPUTE = "dispute"

DEFAULT_RECORD_CADENCE = 12
JUDGMENT_BLOCK = 32  # uniforms a judgment stream draws per refill


@dataclass(frozen=True)
class Message:
    item: ContentItem
    stance: str
    sender: str


class JudgmentStream:
    """One receiver's uniforms for one kind of judgment, handed out in order.

    The generator is read ``JUDGMENT_BLOCK`` doubles at a time; the k-th
    ``random()`` call returns the generator's k-th scalar ``random()``, so a
    stream stands in for the generator wherever one uniform is drawn at a
    time (``dynamics.believe_disinformation`` takes either).
    """

    __slots__ = ("_gen", "_block", "_next")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._block = gen.random(JUDGMENT_BLOCK)
        self._next = 0

    def random(self) -> float:
        i = self._next
        if i == JUDGMENT_BLOCK:
            self._block = self._gen.random(JUDGMENT_BLOCK)
            i = 0
        self._next = i + 1
        return self._block.item(i)


@dataclass
class AgentState:
    profile: AgentProfile
    status: str = STATUS_SUSCEPTIBLE
    spreading: bool = False  # has shared while exposed
    trust: float = 0.0  # current threshold toward the run topic
    believes: bool = False  # believes the run's disinformation
    exposure_counts: dict = field(default_factory=dict)  # content_id -> receipts
    strengths: dict = field(default_factory=dict)  # (content_id, stance) -> persuasiveness
    judgment_streams: dict = field(default_factory=dict)  # purpose -> JudgmentStream over the claim
    latest: Message | None = None  # the most recent receipt
    outbox: list = field(default_factory=list)  # (step, content_id, stance)
    pending: dict = field(default_factory=dict)  # sender -> latest receipt since last activation

    @property
    def spreader(self) -> str | None:
        if not self.spreading:
            return None
        return SPREADER_INFECTED if self.believes else SPREADER_UNINFECTED


@dataclass
class SimulationState:
    agents: dict = field(default_factory=dict)  # agent_id -> AgentState (regular only)
    community_regulars: dict = field(default_factory=dict)  # community -> member ids
    delivery_log: list = field(default_factory=list)  # (step, sender, receiver, content_id, stance)


def snapshot_ratios(state: SimulationState, community: str) -> tuple:
    """(SR, ER, IR, UR) over the community's regular members."""
    members = state.community_regulars[community]
    n = len(members)
    if n == 0:
        return (1.0, 0.0, 0.0, 0.0)
    exposed = infected = uninfected = 0
    for agent_id in members:
        agent = state.agents[agent_id]
        if agent.status == STATUS_EXPOSED:
            exposed += 1
        if agent.spreader == SPREADER_INFECTED:
            infected += 1
        elif agent.spreader == SPREADER_UNINFECTED:
            uninfected += 1
    return (
        (n - exposed) / n,
        exposed / n,
        infected / n,
        uninfected / n,
    )


def build_bot_schedules(
    profiles, params, plan: InterventionPlan, seed: int
) -> dict:
    """Seeded activation-step sets per bot.

    Malicious activation counts draw from the malicious range and land
    anywhere in [1, T]; legitimate counts draw from the legitimate range and
    land inside the plan's window. Control plans produce empty legitimate
    schedules. Counts clamp to the hosting range length; a window shorter
    than the legitimate minimum raises WindowTooSmall.
    """
    schedules: dict[str, frozenset] = {}
    drawn = []  # (agent id, first step, span, lo, hi) of each bot that draws
    for profile in sorted(profiles, key=lambda p: p.agent_id):
        if profile.kind == KIND_REGULAR:
            continue
        if profile.kind == KIND_MBOT:
            first, span = 1, params.total_steps
            lo, hi = params.malicious_freq_range
        elif plan.stage == "control":
            schedules[profile.agent_id] = frozenset()
            continue
        else:
            first, last = plan.window
            span = last - first + 1
            lo, hi = params.legitimate_freq_range
            if lo > span:
                raise WindowTooSmall(span, lo)
        hi = min(hi, span)
        drawn.append((profile.agent_id, first, span, min(lo, hi), hi))
    streams = rngmod.substreams(seed, (("schedule", bot[0]) for bot in drawn))
    for (agent_id, first, span, lo, hi), rng in zip(drawn, streams):
        count = int(rng.integers(lo, hi + 1))
        steps = rng.choice(span, size=count, replace=False) + first
        schedules[agent_id] = frozenset(int(s) for s in steps)
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
    streams = rngmod.substreams(seed, (("act", agent_id) for agent_id in agent_ids))
    for i, stream in enumerate(streams):
        draws[i] = stream.random((total_steps, 2))
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
    if profile.social_influence:
        return sum(profile.social_influence.values()) / len(profile.social_influence)
    return 0.0


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
    ``state_out`` to receive the final SimulationState (appended), for
    inspection and invariant checks.

    Judgment inputs are checked here, once: the plausibility (given or
    scored) and each regular agent's starting trust toward the topic must
    lie in [0, 1], else ValueError before step 1. Trust then moves only
    through ``update_trust``, which clips to [0, 1], so discernment needs no
    check per receipt.
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

    # only bots homed in the topic act, so only they get schedules
    bots = [p for p in profiles if p.is_bot and p.home_community() == topic]
    schedules = build_bot_schedules(bots, params, plan, seed)
    active_bots = [p for p in bots if schedules[p.agent_id]]

    state = SimulationState()
    for profile in profiles:
        if profile.kind == KIND_REGULAR:
            trust = profile.trust_thresholds[topic]
            if not 0.0 <= trust <= 1.0:
                raise ValueError(f"trust {trust} of {profile.agent_id} outside [0, 1]")
            state.agents[profile.agent_id] = AgentState(profile=profile, trust=trust)
    state.community_regulars = {
        community: [m for m in members if m in state.agents]
        for community, members in network.community_index.items()
    }

    regular_ids = sorted(state.agents)
    regulars = [state.agents[agent_id] for agent_id in regular_ids]
    draws = activation_draws(seed, regular_ids, params.total_steps)
    probs = np.array(
        [agent.profile.activation_probs for agent in regulars], dtype=float
    ).reshape(len(regulars), HOURS_PER_DAY)

    # per-run sender tables: weight toward the topic in the trust update, and
    # the (receiver id, state) pairs a send reaches, in sorted-neighbour order
    senders = active_bots + [agent.profile for agent in regulars]
    weight = {p.agent_id: _sender_influence(p, topic) for p in senders}
    audience = {
        p.agent_id: [
            (n, state.agents[n])
            for n in network.neighbors(p.agent_id)
            if n in state.agents  # bots ignore what they receive
        ]
        for p in senders
    }
    # step -> the bot broadcasts sent at that step, in bot-id order
    broadcasts: dict[int, list] = {}
    for bot in active_bots:
        payload = disinfo if bot.kind == KIND_MBOT else correction
        send = (audience[bot.agent_id], Message(payload, STANCE_ENDORSE, bot.agent_id))
        for step in schedules[bot.agent_id]:
            broadcasts.setdefault(step, []).append(send)

    report = RunReport(
        scenario_digest=scenario.digest(),
        seed=int(seed),
        topic=topic,
        plan_stage=plan.stage,
        plan_strategy=plan.strategy,
        record_cadence=record_cadence,
        total_steps=params.total_steps,
        ratios={c: [] for c in network.community_index},
        trust={c: [] for c in network.community_index},
        resource_ledger={},
    )

    def record(step: int) -> None:
        for community in network.community_index:
            sr, er, ir, ur = snapshot_ratios(state, community)
            report.ratios[community].append(RatioRecord(step, sr, er, ir, ur))
            values = [state.agents[m].trust for m in state.community_regulars[community]]
            mean, std = population_stats(values)
            report.trust[community].append(TrustRecord(step, mean, std))
        if collect_trajectories:
            for agent_id, agent in state.agents.items():
                report.trajectories.setdefault(agent_id, []).append((step, agent.trust))
        if progress is not None:
            progress(
                {
                    "event": "record",
                    "step": step,
                    "topic": topic,
                    "stage": plan.stage,
                    "strategy": plan.strategy,
                }
            )

    record(0)
    try:
        for t in range(1, params.total_steps + 1):
            outgoing: list[tuple[list, Message]] = list(broadcasts.get(t, ()))

            for i in active_agents(draws, probs, t):
                agent_id = regular_ids[i]
                agent = regulars[i]
                share_u = draws[i, t - 1, 1]
                _apply_trust_update(agent, weight, evaluator, params, topic)
                latest = agent.latest
                if latest is None:
                    continue
                prior_receipts = agent.exposure_counts[latest.item.content_id] - 1
                dt = dissemination_tendency(
                    agent.profile, topic, fit, params, prior_receipts
                )
                if share_u >= dt:
                    continue
                if latest.item.kind == "disinformation" and not agent.believes:
                    stance = STANCE_DISPUTE
                else:
                    stance = STANCE_ENDORSE
                outgoing.append((audience[agent_id], Message(latest.item, stance, agent_id)))
                agent.outbox.append((t, latest.item.content_id, stance))
                if agent.status == STATUS_EXPOSED:
                    agent.spreading = True

            _deliver(state, outgoing, seed, t, disinfo.content_id, plausibility)

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


def _apply_trust_update(agent, weight, evaluator, params, topic: str) -> None:
    if not agent.pending:
        return
    # the enhancement/decay sums run over neighbors, not messages: a sender
    # re-delivering since the last activation counts once, through the most
    # recent thing it pushed
    corr = []
    dis = []
    for sender in sorted(agent.pending):
        msg = agent.pending[sender]
        key = (msg.item.content_id, msg.stance)
        strength = agent.strengths.get(key)
        if strength is None:
            strength = agent.strengths[key] = evaluator.persuasiveness(
                msg.item.text,
                content_kind=msg.item.kind,
                strategy=msg.item.strategy,
                stance=msg.stance,
                receiver_history=agent.profile.history_summary,
                community=topic,
            )
        if msg.item.kind == "correction" or msg.stance == STANCE_DISPUTE:
            corr.append((weight[sender], strength))
        else:
            dis.append((weight[sender], strength))
    agent.trust = update_trust(agent.trust, corr, dis, params.gamma, params.beta, params.delta)
    agent.pending.clear()


def _deliver(state, outgoing, seed, t, claim_id, plausibility) -> None:
    log = state.delivery_log
    for receivers, message in outgoing:
        sender = message.sender
        stance = message.stance
        item_id = message.item.content_id
        claim = message.item.kind == "disinformation"
        endorsed = stance == STANCE_ENDORSE
        for receiver, agent in receivers:
            agent.latest = message
            agent.pending[sender] = message
            counts = agent.exposure_counts
            counts[item_id] = counts.get(item_id, 0) + 1
            log.append((t, sender, receiver, item_id, stance))
            if claim and (endorsed or agent.status == STATUS_SUSCEPTIBLE):
                # seeing the claim pushed at face value (or for the first time,
                # even inside a disputing quote) re-draws belief both ways
                agent.status = STATUS_EXPOSED
                purpose = "belief"
            elif agent.believes:  # only an exposed agent can believe
                # corrective pressure (a correction item, or a disputing quote of
                # a claim already seen) flips a believer on a successful
                # discernment event (probability DA); when it fails to land,
                # belief is unchanged - a rejected debunk never creates a believer
                purpose = "accept"
            else:
                continue
            da = discernment(agent.trust, plausibility)
            # the k-th judgment of this kind takes the k-th draw of its own
            # stream, so plans sharing a seed see aligned randomness until
            # their histories actually diverge
            stream = agent.judgment_streams.get(purpose)
            if stream is None:
                stream = agent.judgment_streams[purpose] = JudgmentStream(
                    rngmod.substream(seed, purpose, receiver, claim_id)
                )
            if purpose == "belief":
                agent.believes = believe_disinformation(da, stream)
            elif stream.random() < da:
                agent.believes = False


def _final_states(state: SimulationState) -> dict:
    out = {
        STATUS_SUSCEPTIBLE: [],
        STATUS_EXPOSED: [],
        SPREADER_INFECTED: [],
        SPREADER_UNINFECTED: [],
    }
    for agent_id in sorted(state.agents):
        agent = state.agents[agent_id]
        out[agent.status].append(agent_id)
        if agent.spreader is not None:
            out[agent.spreader].append(agent_id)
    return out
