import hashlib
import inspect
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madd import engine
from madd import rng as rngmod
from madd.attributes import (
    KIND_LBOT,
    KIND_MBOT,
    KIND_REGULAR,
    AgentProfile,
    activation_probability,
)
from madd.content import CONTROL_PLAN, InterventionPlan, make_plan, score_plausibility
from madd.dynamics import believe_disinformation, discernment
from madd.errors import EvaluatorFailure, RangeViolation
from madd.evaluator import SyntheticEvaluator, make_evaluator
from madd.network import PropagationNetwork
from madd.powerlaw import PowerLawFit
from madd.scenario import Scenario, SimulationParams, UserRecord
from madd.synthdata import build_catalog


def tiny_scenario(user_ids, total_steps=4, **params):
    users = [
        UserRecord(
            user_id=uid,
            follower_count=100,
            retweet_count=30,
            quote_count=0,
            activity_histogram=tuple([1] * 24),
        )
        for uid in user_ids
    ]
    defaults = dict(
        total_steps=total_steps,
        malicious_ratio=0.0,
        legitimate_ratio=0.0,
        intervention_windows={
            "early": (1, total_steps),
            "mid": (max(1, total_steps // 2), total_steps),
            "late": (max(1, total_steps - 1), total_steps),
        },
        # near-degenerate weights so hand traces are effectively decisive
        theta=1e-9,
        xi=0.0,
    )
    defaults.update(params)
    return Scenario(
        SimulationParams(**defaults),
        users,
        ("alpha",),
        build_catalog(("alpha",)),
    )


def path_world(total_steps=4):
    """bot - A - B path; AT = 1 at every step, share decisions near-certain."""
    scenario = tiny_scenario(["a_user", "b_user"], total_steps=total_steps)
    always_on = tuple([1.0] * 24)
    profiles = [
        AgentProfile(
            agent_id="a_user",
            kind=KIND_REGULAR,
            interest_scores={"alpha": 10.0},
            trust_thresholds={"alpha": 0.5},
            social_influence={"alpha": 0.4},
            activation_probs=always_on,
            share_total=30,
        ),
        AgentProfile(
            agent_id="b_user",
            kind=KIND_REGULAR,
            interest_scores={"alpha": 10.0},
            trust_thresholds={"alpha": 0.5},
            social_influence={"alpha": 0.4},
            activation_probs=always_on,
            share_total=30,
        ),
        AgentProfile(
            agent_id="mbot",
            kind=KIND_MBOT,
            interest_scores={"alpha": 10.0},
            trust_thresholds={"alpha": 1.0},
            social_influence={"alpha": 0.2},
        ),
    ]
    network = PropagationNetwork.from_edges(
        {p.agent_id: p.kind for p in profiles},
        {"alpha": sorted(p.agent_id for p in profiles)},
        [("mbot", "a_user"), ("a_user", "b_user")],
    )
    fit = PowerLawFit(alpha=1.5, lam=0.01, x_min=10)
    return scenario, profiles, network, fit


def fix_bot_steps(monkeypatch, steps):
    """Schedule every bot of the run on exactly ``steps``."""
    monkeypatch.setattr(
        engine,
        "build_bot_schedules",
        lambda profiles, *_: {p.agent_id: frozenset(steps) for p in profiles},
    )


class TestHandTraces:
    def test_single_step_without_bots_changes_nothing(self, monkeypatch):
        scenario, profiles, network, fit = path_world(total_steps=1)
        fix_bot_steps(monkeypatch, ())
        report = engine.run(
            scenario,
            network,
            profiles,
            CONTROL_PLAN,
            SyntheticEvaluator(seed=1),
            seed=1,
            fit=fit,
            record_cadence=1,
        )
        first, last = report.series["alpha"][0], report.series["alpha"][-1]
        assert (first.sr, first.er) == (1.0, 0.0)
        assert (last.sr, last.er, last.ir, last.ur) == (1.0, 0.0, 0.0, 0.0)

    def test_bot_broadcast_exposes_neighbor_then_neighbor_relays(self, monkeypatch):
        scenario, profiles, network, fit = path_world(total_steps=4)
        fix_bot_steps(monkeypatch, {1})
        states = []
        engine.run(
            scenario,
            network,
            profiles,
            CONTROL_PLAN,
            SyntheticEvaluator(seed=1),
            seed=1,
            fit=fit,
            record_cadence=1,
            state_out=states,
        )
        state = states[0]
        log = state.delivery_log
        # step 1: only the bot's broadcast to its sole neighbor lands
        step1 = [entry for entry in log if entry[0] == 1]
        assert step1 == [(1, "mbot", "a_user", "disinfo_alpha", "endorse")]
        # B hears nothing until A activates and relays at step 2
        b_receipts = [entry for entry in log if entry[2] == "b_user"]
        assert b_receipts and min(entry[0] for entry in b_receipts) == 2

    def test_exposure_is_delivery_based_not_activation_based(self, monkeypatch):
        scenario, profiles, network, fit = path_world(total_steps=1)
        fix_bot_steps(monkeypatch, {1})
        states = []
        report = engine.run(
            scenario,
            network,
            profiles,
            CONTROL_PLAN,
            SyntheticEvaluator(seed=1),
            seed=1,
            fit=fit,
            record_cadence=1,
            state_out=states,
        )
        state = states[0]
        assert state.agents["a_user"].status == engine.STATUS_EXPOSED
        assert state.agents["b_user"].status == engine.STATUS_SUSCEPTIBLE
        assert report.series["alpha"][-1].er == 0.5


class TestBotSchedules:
    def params(self, **kw):
        merged = dict(total_steps=72)
        merged.update(kw)
        return SimulationParams(**merged)

    def bots(self, n_mal=3, n_leg=2):
        out = []
        for i in range(n_mal):
            out.append(
                AgentProfile(agent_id=f"m{i}", kind=KIND_MBOT, interest_scores={"alpha": 10.0})
            )
        for i in range(n_leg):
            out.append(
                AgentProfile(agent_id=f"l{i}", kind=KIND_LBOT, interest_scores={"alpha": 10.0})
            )
        return out

    def test_control_plan_empties_legitimate_schedules(self):
        schedules = engine.build_bot_schedules(self.bots(), self.params(), CONTROL_PLAN, seed=5)
        assert all(not schedules[f"l{i}"] for i in range(2))
        assert all(schedules[f"m{i}"] for i in range(3))

    def test_legitimate_steps_inside_window(self):
        plan = make_plan(self.params(), "early", "fact_based")
        schedules = engine.build_bot_schedules(self.bots(), self.params(), plan, seed=5)
        for i in range(2):
            assert all(12 <= t <= 72 for t in schedules[f"l{i}"])

    def test_malicious_steps_inside_run(self):
        schedules = engine.build_bot_schedules(self.bots(), self.params(), CONTROL_PLAN, seed=5)
        for i in range(3):
            steps = schedules[f"m{i}"]
            assert all(1 <= t <= 72 for t in steps)
            assert 1 <= len(steps) <= 18

    def test_degenerate_count_range(self):
        params = self.params(malicious_freq_range=(3, 3))
        schedules = engine.build_bot_schedules(self.bots(), params, CONTROL_PLAN, seed=5)
        assert all(len(schedules[f"m{i}"]) == 3 for i in range(3))

    def test_stage_without_window_rejected(self):
        # a hand-built plan meets the same window lookup as make_plan
        params = self.params(intervention_windows={"early": (12, 72)})
        message = "stage = 'late' violates a stage with a configured window"
        with pytest.raises(RangeViolation, match=f"^{re.escape(message)}$"):
            engine.build_bot_schedules(
                self.bots(), params, InterventionPlan("late", "fact_based"), seed=5
            )

    def test_deterministic(self):
        a = engine.build_bot_schedules(self.bots(), self.params(), CONTROL_PLAN, seed=5)
        b = engine.build_bot_schedules(self.bots(), self.params(), CONTROL_PLAN, seed=5)
        assert a == b


class TestSnapshotRatios:
    def build_state(self, statuses):
        ids = sorted(statuses)
        rows = list(range(len(ids)))
        state = engine.SimulationState(ids=ids, rows=rows, community_rows={"alpha": rows})
        for i, agent_id in enumerate(ids):
            status, spreader = statuses[agent_id]
            state.exposed[i] = status == engine.STATUS_EXPOSED
            state.spreading[i] = spreader is not None
            state.believes[i] = spreader == engine.SPREADER_INFECTED
        return state

    def test_initial_state(self):
        state = self.build_state(
            {f"u{i}": (engine.STATUS_SUSCEPTIBLE, None) for i in range(10)}
        )
        assert engine.snapshot_ratios(state, "alpha") == (1.0, 0.0, 0.0, 0.0)

    def test_counting(self):
        statuses = {}
        for i in range(60):
            statuses[f"s{i}"] = (engine.STATUS_SUSCEPTIBLE, None)
        for i in range(15):
            statuses[f"e{i}"] = (engine.STATUS_EXPOSED, None)
        for i in range(10):
            statuses[f"i{i}"] = (engine.STATUS_EXPOSED, engine.SPREADER_INFECTED)
        for i in range(15):
            statuses[f"u{i}"] = (engine.STATUS_EXPOSED, engine.SPREADER_UNINFECTED)
        state = self.build_state(statuses)
        sr, er, ir, ur = engine.snapshot_ratios(state, "alpha")
        assert (sr, er, ir, ur) == (0.6, 0.4, 0.1, 0.15)
        assert sr + er == 1.0


class TestDeliver:
    class PlausibilityAbove1(SyntheticEvaluator):
        def evaluate(self, request):
            if request.kind == "plausibility":
                return {"score": 1.5}
            return super().evaluate(request)

    @pytest.mark.parametrize(
        "trust, plausibility",
        [(1.5, None), (-0.1, None), (float("nan"), None), (0.5, 1.5)],
        ids=["trust-above-1", "trust-below-0", "trust-nan", "plausibility-above-1"],
    )
    def test_judgment_checks_discernment_inputs(self, monkeypatch, trust, plausibility):
        # the inputs every delivery judgment reads are checked once, at run
        # entry: a profile's topic trust and the scored plausibility
        scenario, profiles, network, fit = path_world(total_steps=2)
        fix_bot_steps(monkeypatch, {1})
        profiles[0] = replace(profiles[0], trust_thresholds={"alpha": trust})
        evaluator = (
            SyntheticEvaluator(seed=1) if plausibility is None else self.PlausibilityAbove1(seed=1)
        )
        events = []
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            engine.run(
                scenario, network, profiles, CONTROL_PLAN, evaluator,
                seed=1, fit=fit, record_cadence=1, progress=events.append,
            )
        assert events == []  # step 0 is recorded before step 1 runs

    def test_missing_trust_threshold_names_agent_and_topic(self):
        # a profile scored without trust thresholds (as the network-only
        # commands score them) cannot enter a run
        scenario, profiles, network, fit = path_world(total_steps=2)
        profiles[1] = replace(profiles[1], trust_thresholds={})
        events = []
        with pytest.raises(ValueError, match=r"^b_user has no trust threshold toward 'alpha'$"):
            engine.run(
                scenario, network, profiles, CONTROL_PLAN, SyntheticEvaluator(seed=1),
                seed=1, fit=fit, record_cadence=1, progress=events.append,
            )
        assert events == []

    def test_record_cadence_below_one_raises_before_recording(self):
        scenario, profiles, network, fit = path_world(total_steps=2)
        events = []
        with pytest.raises(RangeViolation, match=r"^record_cadence = 0 violates >= 1$"):
            engine.run(
                scenario, network, profiles, CONTROL_PLAN, SyntheticEvaluator(seed=1),
                seed=1, fit=fit, record_cadence=0, progress=events.append,
            )
        assert events == []

    def test_run_judges_through_dynamics(self, monkeypatch):
        scenario, profiles, network, fit = path_world(total_steps=4)
        fix_bot_steps(monkeypatch, {1, 2, 3})
        calls = {"discernment": 0, "believe_disinformation": 0}
        for name in calls:
            rule = getattr(engine, name)

            def counted(*args, _rule=rule, _name=name):
                calls[_name] += 1
                return _rule(*args)

            monkeypatch.setattr(engine, name, counted)
        engine.run(
            scenario, network, profiles, CONTROL_PLAN, SyntheticEvaluator(seed=1),
            seed=1, fit=fit, record_cadence=1,
        )
        assert calls["discernment"] > 0 and calls["believe_disinformation"] > 0

    def test_judgment_stream_reads_blocks_in_scalar_order(self):
        n = 3 * engine.JUDGMENT_BLOCK + 5
        labels = ("belief", "u1", "claim_alpha")
        (words,) = rngmod.substream_states(13, [labels])
        stream = engine.judgment_draws(words)
        scalar = rngmod.substream(13, *labels)
        assert [next(stream) for _ in range(n)] == [scalar.random() for _ in range(n)]

    def test_unread_judgment_streams_hold_no_generator(self, paper_world):
        """Every regular agent's belief and accept streams are keyed at run
        start, but a generator object is made only for a stream a judgment
        reads, and every one made has been advanced."""
        scenario, profiles, _, network, fit = paper_world
        states = []
        engine.run(scenario, network, profiles, CONTROL_PLAN,
                   make_evaluator(scenario.evaluator_config, 3), seed=3, fit=fit,
                   topic="politics", state_out=states)
        state = states[0]
        generators = [s for kind in state.streams.values() for s in kind if s is not None]
        assert all(inspect.getgeneratorstate(s) == inspect.GEN_SUSPENDED for s in generators)
        keyed = sum(int(w[state.rows].any(axis=1).sum()) for w in state.stream_states.values())
        assert (len(generators), keyed) == (511, 2 * 689)


def reference_deliver(state, outgoing, plausibility) -> None:
    """The generic delivery loop the engine's per-kind loops replaced: one
    branch for every kind, and discernment computed per step from trust."""
    audience, trust, latest, pending = state.audience, state.trust, state.latest, state.pending
    exposed, believes = state.exposed, state.believes
    streams, stream_states = state.streams, state.stream_states
    da_of = {}
    for sender, kind in outgoing:
        counts = state.receipts[engine.KIND_ITEM[kind]]
        claim = kind != engine.CORRECTION
        endorsed = kind == engine.CLAIM_ENDORSE
        for r in audience[sender]:
            latest[r] = kind
            pending[r][sender] = kind
            counts[r] += 1
            if claim and (endorsed or not exposed[r]):
                exposed[r] = True
                purpose = "belief"
            elif believes[r]:
                purpose = "accept"
            else:
                continue
            da = da_of.get(r)
            if da is None:
                da = da_of[r] = discernment(trust[r], plausibility)
            stream = streams[purpose][r]
            if stream is None:
                stream = streams[purpose][r] = engine.judgment_draws(stream_states[purpose][r])
            u = next(stream)
            if purpose == "belief":
                believes[r] = believe_disinformation(da, u)
            elif u < da:
                believes[r] = False


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def delivery_cases(draw):
    """A small state and one step's sends: every kind, over overlapping
    audiences, so one receiver gets several receipts in the step."""
    n = draw(st.integers(min_value=1, max_value=6))
    agents = st.integers(min_value=0, max_value=n - 1)
    kinds = st.integers(min_value=0, max_value=2)
    exposed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return {
        "n": n,
        "plausibility": draw(unit_floats),
        "trust": draw(st.lists(unit_floats, min_size=n, max_size=n)),
        "exposed": exposed,
        # only an exposed agent can believe
        "believes": [e and draw(st.booleans()) for e in exposed],
        "pending": [draw(st.dictionaries(agents, kinds, max_size=3)) for _ in range(n)],
        "audience": [draw(st.lists(agents, unique=True, max_size=n)) for _ in range(n)],
        # judgments each receiver has already drawn per kind, across a block edge
        "drawn": draw(st.lists(
            st.tuples(st.integers(0, engine.JUDGMENT_BLOCK + 2), st.integers(0, 3)),
            min_size=n, max_size=n,
        )),
        "outgoing": draw(st.lists(st.tuples(agents, kinds), max_size=8)),
        "seed": draw(st.integers(min_value=0, max_value=2**64 - 1)),
    }


def delivery_state(case) -> engine.SimulationState:
    n = case["n"]
    ids = [f"u{i}" for i in range(n)]
    state = engine.SimulationState(
        ids=ids, rows=list(range(n)), community_rows={}, audience=case["audience"],
        plausibility=case["plausibility"],
    )
    state.trust[:] = case["trust"]
    state.da[:] = [discernment(t, case["plausibility"]) for t in case["trust"]]
    state.exposed[:] = case["exposed"]
    state.believes[:] = case["believes"]
    state.pending[:] = [dict(p) for p in case["pending"]]
    for k, purpose in enumerate(("belief", "accept")):
        labels = [(purpose, agent_id, "claim") for agent_id in ids]
        state.stream_states[purpose] = rngmod.substream_states(case["seed"], labels)
        for r, drawn in enumerate(case["drawn"]):
            if drawn[k]:
                stream = engine.judgment_draws(state.stream_states[purpose][r])
                state.streams[purpose][r] = stream
                for _ in range(drawn[k]):
                    next(stream)
    return state


class TestDeliveryLoops:
    @settings(max_examples=300, deadline=None)
    @given(case=delivery_cases())
    def test_kind_split_loops_match_generic_loop(self, case):
        expected, actual = delivery_state(case), delivery_state(case)
        reference_deliver(expected, case["outgoing"], case["plausibility"])
        engine._deliver(actual, case["outgoing"])
        for name in ("latest", "pending", "receipts", "exposed", "believes"):
            assert getattr(actual, name) == getattr(expected, name), name
        for purpose in ("belief", "accept"):
            for a, b in zip(actual.streams[purpose], expected.streams[purpose]):
                assert (a is None) == (b is None)
                if a is not None:
                    assert next(a) == next(b)

    def test_discernment_kept_beside_trust(self, dense_world):
        scenario, profiles, _, network, fit = dense_world
        disinfo = scenario.disinformation_for(None)
        evaluator = make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
        plausibility = disinfo.plausibility
        if plausibility is None:
            plausibility = score_plausibility(disinfo, make_evaluator(
                scenario.evaluator_config, scenario.params.rng_seed))
        states = []
        engine.run(
            scenario, network, profiles, make_plan(scenario.params, "early", "fact_based"),
            evaluator, seed=13, fit=fit, state_out=states,
        )
        state = states[0]
        assert any(t != p.trust_thresholds["politics"]
                   for t, p in zip(state.trust, state.profiles) if not p.is_bot)
        for i in state.rows:
            assert state.da[i] == discernment(state.trust[i], plausibility)


@pytest.fixture(scope="module")
def run_outputs(small_world):
    scenario, profiles, index, network, fit = small_world
    states = []
    evaluator = make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
    report = engine.run(
        scenario,
        network,
        profiles,
        CONTROL_PLAN,
        evaluator,
        seed=13,
        fit=fit,
        record_cadence=4,
        collect_trajectories=True,
        state_out=states,
    )
    return scenario, profiles, network, report, states[0]


class TestRunInvariants:
    def test_partition_and_monotonicity(self, run_outputs):
        _, _, _, report, _ = run_outputs
        for community, series in report.series.items():
            previous_er = 0.0
            for record in series:
                assert abs(record.sr + record.er - 1.0) < 1e-9
                assert record.ir + record.ur <= record.er + 1e-9
                assert record.er >= previous_er - 1e-12
                previous_er = record.er

    def test_trust_stays_in_unit_interval(self, run_outputs):
        _, _, _, report, state = run_outputs
        for series in report.trajectories.values():
            assert all(0.0 <= tt <= 1.0 for _, tt in series)
        for agent in state.agents.values():
            assert 0.0 <= agent.trust <= 1.0

    def test_no_share_without_receipt(self, run_outputs):
        _, _, _, _, state = run_outputs
        for agent in state.agents.values():
            received = set(agent.exposure_counts)
            shared = {content_id for _, content_id, _ in agent.outbox}
            assert shared <= received

    def test_delivery_record_views_agree(self, run_outputs):
        # the log and the outboxes expand the run's record of sends, the
        # exposure counts read the receipt counters the run kept itself
        _, _, _, _, state = run_outputs
        log = list(state.delivery_log)
        assert len(state.delivery_log) == len(log) > 0
        receipts = {}
        for _, _, receiver, content_id, _ in log:
            per_item = receipts.setdefault(receiver, {})
            per_item[content_id] = per_item.get(content_id, 0) + 1
        agents = state.agents
        for agent_id, agent in agents.items():
            assert agent.exposure_counts == receipts.get(agent_id, {})
        sent = {(step, sender, content_id, stance) for step, sender, _, content_id, stance in log}
        shared = {(step, agent_id, content_id, stance)
                  for agent_id, agent in agents.items()
                  for step, content_id, stance in agent.outbox}
        assert shared and {s for s in sent if s[1] in agents} <= shared

    def test_bots_never_send_off_schedule(self, run_outputs):
        scenario, profiles, _, _, state = run_outputs
        schedules = engine.build_bot_schedules(
            profiles, scenario.params, CONTROL_PLAN, seed=13
        )
        for step, sender, _, _, _ in state.delivery_log:
            if sender.startswith(("mbot", "lbot")):
                assert step in schedules[sender]

    def test_spreaders_were_exposed(self, run_outputs):
        _, _, _, report, _ = run_outputs
        exposed = set(report.final_states[engine.STATUS_EXPOSED])
        spreaders = set(report.final_states[engine.SPREADER_INFECTED]) | set(
            report.final_states[engine.SPREADER_UNINFECTED]
        )
        assert spreaders <= exposed

    def test_control_run_produces_spontaneous_debunkers(self, run_outputs):
        _, _, _, report, _ = run_outputs
        assert len(report.final_states[engine.SPREADER_UNINFECTED]) > 0

    def test_byte_identical_reruns(self, small_world):
        scenario, profiles, _, network, fit = small_world
        outputs = []
        for _ in range(2):
            evaluator = make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
            report = engine.run(
                scenario, network, profiles, CONTROL_PLAN, evaluator, seed=13, fit=fit
            )
            outputs.append(report.to_json())
        assert outputs[0] == outputs[1]

    def test_ledger_matches_instrumented_call_count(self, small_world):
        scenario, profiles, _, network, fit = small_world

        class Counting(SyntheticEvaluator):
            calls = 0

            def evaluate(self, request):
                Counting.calls += 1
                return super().evaluate(request)

        evaluator = Counting(seed=scenario.params.rng_seed)
        report = engine.run(
            scenario, network, profiles, CONTROL_PLAN, evaluator, seed=13, fit=fit
        )
        assert report.resource_ledger["totals"]["llm_calls"] == Counting.calls


def test_evaluator_failure_yields_incomplete_report(small_world):
    scenario, profiles, _, network, fit = small_world

    class FailsOnPersuasiveness(SyntheticEvaluator):
        failed = False

        def evaluate(self, request):
            if request.kind == "persuasiveness":
                self.failed = True
                raise EvaluatorFailure("remote fell over")
            return super().evaluate(request)

    evaluator = FailsOnPersuasiveness(seed=scenario.params.rng_seed)
    report = engine.run(
        scenario,
        network,
        profiles,
        CONTROL_PLAN,
        evaluator,
        seed=13,
        fit=fit,
    )
    assert evaluator.failed
    assert report.complete is False


def test_progress_events_emitted_at_recorded_steps(small_world):
    scenario, profiles, _, network, fit = small_world
    events = []
    engine.run(
        scenario,
        network,
        profiles,
        CONTROL_PLAN,
        make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
        seed=13,
        fit=fit,
        record_cadence=6,
        progress=events.append,
    )
    assert [e["step"] for e in events] == [0, 6, 12, 18, 24]
    assert all(e["event"] == "record" and e["stage"] == "control" for e in events)


def test_step_zero_trust_mean_matches_profiles(small_world):
    scenario, profiles, index, network, fit = small_world
    report = engine.run(
        scenario,
        network,
        profiles,
        CONTROL_PLAN,
        make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
        seed=13,
        fit=fit,
        topic="alpha",
    )
    by_id = {p.agent_id: p for p in profiles}
    for community in scenario.communities:
        members = [
            m for m in network.community_index[community] if not by_id[m].is_bot
        ]
        expected = sum(by_id[m].trust_thresholds["alpha"] for m in members) / len(members)
        assert abs(report.series[community][0].tt_mean - expected) < 1e-12


def test_legitimate_bots_only_act_inside_window(small_world):
    scenario, profiles, _, network, fit = small_world
    plan = make_plan(scenario.params, "late", "fact_based")
    states = []
    engine.run(
        scenario,
        network,
        profiles,
        plan,
        make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
        seed=13,
        fit=fit,
        state_out=states,
    )
    lo, hi = scenario.params.intervention_windows["late"]
    for step, sender, _, content_id, _ in states[0].delivery_log:
        if sender.startswith("lbot"):
            assert lo <= step <= hi
            assert content_id.startswith("fact_")


def test_each_persuasiveness_question_asked_once_per_receiver(dense_world, monkeypatch):
    scenario, profiles, _, network, fit = dense_world
    item_by_text = {item.text: item.content_id for item in scenario.content_catalog}
    assert len(item_by_text) == len(scenario.content_catalog)

    class Counting(SyntheticEvaluator):
        receiver = None

        def __init__(self, seed):
            super().__init__(seed)
            self.invocations = 0
            self.asked = []  # (receiver, content_id, stance) per persuasiveness request

        def evaluate(self, request):
            self.invocations += 1
            if request.kind == "persuasiveness":
                self.asked.append((
                    self.receiver,
                    item_by_text[request.subject_texts[0]],
                    request.context["stance"],
                ))
            return super().evaluate(request)

    real_update = engine._apply_trust_update

    def update_naming_receiver(state, i, evaluator, params, topic):
        evaluator.receiver = state.ids[i]
        real_update(state, i, evaluator, params, topic)

    monkeypatch.setattr(engine, "_apply_trust_update", update_naming_receiver)
    evaluator = Counting(seed=scenario.params.rng_seed)
    states = []
    report = engine.run(
        scenario, network, profiles, make_plan(scenario.params, "early", "fact_based"),
        evaluator, seed=13, fit=fit, state_out=states,
    )
    assert len(set(evaluator.asked)) == len(evaluator.asked) > 0
    assert report.resource_ledger["totals"]["llm_calls"] == evaluator.invocations
    # the same (item, stance) reaches a receiver far more often than it is asked
    assert len(states[0].delivery_log) > 10 * len(evaluator.asked)


class TestGoldenDigests:
    """sha256 of RunReport.to_json() for reference runs, with and without
    its resource ledger.

    The ledger-free digest moves when realized trajectories move or when the
    scenario format (and with it each report's ``scenario_digest``) does, the
    full one also when evaluator metering does: re-pin deliberately and
    declare the old and new values.
    """

    @staticmethod
    def digests(report) -> tuple:
        """sha256 of the report JSON, with and without the ledger."""
        data = report.to_dict()
        del data["resource_ledger"]
        free = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return tuple(
            hashlib.sha256(text.encode()).hexdigest() for text in (report.to_json(), free)
        )

    @classmethod
    def small_world_digests(cls, small_world, plan):
        scenario, profiles, _, network, fit = small_world
        report = engine.run(
            scenario,
            network,
            profiles,
            plan,
            make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
            seed=13,
            fit=fit,
        )
        return cls.digests(report)

    def test_small_world_control(self, small_world):
        assert self.small_world_digests(small_world, CONTROL_PLAN) == (
            "975cf0762d8b648d70c8c5edad4f9909d3f458c3c527b768ff239fe5bbfefaec",
            "5781e7955a83f9af2409688584f130ac05c21ef4d32a4c31504759268591a886",
        )

    @pytest.mark.parametrize(
        "strategy, digests",
        [
            ("fact_based", (
                "212ec7af61182fe63f5e63480916ad98b107b0975f85c640b60d901f5edf4245",
                "f45032e306aca48762a6f29a5bede68c18c48bc281bb1cd2adf78a46cc6bd9d8",
            )),
            ("narrative_based", (
                "c64a34e8d1550e11e72a71d754f4d97d978f53f63fafee526a117dbe22115d70",
                "48ef3b92d6a09d86f3b9e221b0bf39fbad44e3625d3cd279ad8f84ac8dec0589",
            )),
        ],
        ids=["fact_based", "narrative_based"],
    )
    def test_small_world_early_correction(self, small_world, strategy, digests):
        # pins the legitimate-bot broadcasts and the accept draws they cause
        plan = make_plan(small_world[0].params, "early", strategy)
        assert self.small_world_digests(small_world, plan) == digests

    def test_small_world_late_fact(self, small_world):
        # pins the late-window broadcast path
        plan = make_plan(small_world[0].params, "late", "fact_based")
        assert self.small_world_digests(small_world, plan) == (
            "00ae775658e1e5c181b7ad933c7b4fd6eed49871ea412ee01edb6931c5ca0b4b",
            "81b3288a91ec92b279de9b566ac32be6bd67d4e14682f436b458d5d8eaca3c16",
        )

    def test_two_word_seed_world(self, two_word_seed_world):
        # seed 2**32 + 7 keys the activation blocks, the bot schedules and the
        # evaluator with two seed words; the early plan adds legitimate bots
        scenario, profiles, _, network, fit = two_word_seed_world
        report = engine.run(
            scenario,
            network,
            profiles,
            make_plan(scenario.params, "early", "fact_based"),
            make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
            seed=scenario.params.rng_seed,
            fit=fit,
        )
        assert self.digests(report) == (
            "033524d3b3d9537e6fbf323dac3ba4b91d54d2339a92357f8048685638978a4f",
            "297c7649a64e5dcc12c02145eeb58d87d8591c2dab368ba330101e428d5128ce",
        )

    def test_paper_world_canonical_control(self, paper_world):
        scenario, profiles, _, network, fit = paper_world
        report = engine.run(
            scenario,
            network,
            profiles,
            CONTROL_PLAN,
            make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
            seed=42,
            topic="politics",
            fit=fit,
            collect_trajectories=True,
        )
        assert self.digests(report) == (
            "93882f562009a3dbb01c440865cb06580effc6a21f1c8e364138e39ed130fd4e",
            "e216131647a939429c34352b329ef08bfc4182fcac4cb5420f0fde8cad225c1b",
        )

    @pytest.mark.parametrize(
        "stage, strategy, digests",
        [
            ("control", None, (
                "d10941bda00ce8b7fed8ee5cc59d983bb0092142894763eeba09db50d2426978",
                "da3d0f5beae3ae185842c29ab026834bb3dbf2b101e2a39aa09a92fe13959593",
            )),
            ("early", "fact_based", (
                "8fd0541019e29488f450480a8ce58778b07d62264859095f096214c74a1db072",
                "a80856f21781d505602172030650c7a5f0c8746957f27f3d43d67a1df9997b26",
            )),
            ("late", "fact_based", (
                "3c9c9123359d09b66a6353f53e901bc9966e503a41ee475c5b768149ffd43b2a",
                "58b27cc82dbad5363ab1f9b46164f62b713d60cf5653c6f13588e5c6a7d0ac9a",
            )),
            ("early", "narrative_based", (
                "5028fdac1f087998cc4d54255c4e9b45ee142b6b6332fa0ca64ea8f76e5630ae",
                "241ebc5d4b8b8c7ce4d27a325530932ad20b60de24a4116346194509459181b3",
            )),
        ],
        ids=["control", "early_fact", "late_fact", "early_narrative"],
    )
    def test_dense_world(self, dense_world, stage, strategy, digests):
        # one busy politics community: receivers judge the claim far more
        # often than one judgment block holds, so block refills are pinned;
        # the correction arms pin accepts and disputes reaching receivers
        # that have already seen the claim
        scenario, profiles, _, network, fit = dense_world
        plan = CONTROL_PLAN if stage == "control" else make_plan(scenario.params, stage, strategy)
        states = []
        report = engine.run(
            scenario,
            network,
            profiles,
            plan,
            make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
            seed=13,
            fit=fit,
            collect_trajectories=True,
            state_out=states,
        )
        assert self.digests(report) == digests
        claim_id = scenario.disinformation_for(None).content_id
        endorsed = {}
        for _, _, receiver, content_id, stance in states[0].delivery_log:
            if content_id == claim_id and stance == engine.STANCE_ENDORSE:
                endorsed[receiver] = endorsed.get(receiver, 0) + 1
        assert max(endorsed.values()) > engine.JUDGMENT_BLOCK

    def test_dense_world_builds_no_single_judgment_stream(self, dense_world, monkeypatch):
        # every belief and accept stream comes from the run-start batch, and
        # the early_fact pin above still holds
        single = rngmod.substream

        def no_judgment_stream(seed, *labels):
            if labels and labels[0] in ("belief", "accept"):
                raise AssertionError(f"judgment stream {labels} built one at a time")
            return single(seed, *labels)

        monkeypatch.setattr(rngmod, "substream", no_judgment_stream)
        scenario, profiles, _, network, fit = dense_world
        report = engine.run(
            scenario,
            network,
            profiles,
            make_plan(scenario.params, "early", "fact_based"),
            make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
            seed=13,
            fit=fit,
            collect_trajectories=True,
        )
        assert report.complete
        assert self.digests(report) == (
            "8fd0541019e29488f450480a8ce58778b07d62264859095f096214c74a1db072",
            "a80856f21781d505602172030650c7a5f0c8746957f27f3d43d67a1df9997b26",
        )


class TestActivationKeying:
    def regulars(self, small_world):
        _, profiles, _, _, _ = small_world
        return [p for p in profiles if p.kind == KIND_REGULAR]

    def test_agent_row_independent_of_population(self, small_world):
        ids = [p.agent_id for p in self.regulars(small_world)]
        block = engine.activation_draws(13, ids, 24)
        assert block.shape == (len(ids), 24, 2)
        for i in (0, len(ids) // 2, len(ids) - 1):
            alone = engine.activation_draws(13, [ids[i]], 24)
            assert np.array_equal(block[i], alone[0])
        reversed_block = engine.activation_draws(13, ids[::-1], 24)
        assert np.array_equal(block, reversed_block[::-1])

    def test_vectorized_active_set_matches_scalar_rule(self, small_world):
        scenario, _, _, _, _ = small_world
        regulars = self.regulars(small_world)
        total = scenario.params.total_steps
        draws = engine.activation_draws(13, [p.agent_id for p in regulars], total)
        probs = np.array([p.activation_probs for p in regulars])
        fired = 0
        for t in range(1, total + 1):
            expected = [
                i
                for i, profile in enumerate(regulars)
                if draws[i, t - 1, 0] < activation_probability(profile, t)
            ]
            assert engine.active_agents(draws, probs, t) == expected
            fired += len(expected)
        assert fired > 0
