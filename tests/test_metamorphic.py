"""Metamorphic relations between engine runs on the small world.

No oracle says what a run's report should be, but some changes to the input
must leave it unchanged: the order users and catalog items are listed in,
the cadence rows are recorded at (on the steps both record), and the arms
run before it. Reports are compared without ``scenario_digest``, which
hashes the input's listed order. A save and load of the scenario leaves
the report whole, digest included. The order of ``communities`` is input
too, but unlike the users' order it moves the report, not only the digest.
An arm and control at one (seed, topic) are paired: every arm's rows equal
control's until its first legitimate send.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madd import engine
from madd.attributes import KIND_LBOT
from madd.content import CONTROL_PLAN, WINDOW_STAGES, make_plan
from madd.evaluator import make_evaluator
from madd.scenario import load_scenario, save_scenario

from conftest import build_world

SEED = 3


def run_report(world, plan, **kw):
    scenario, profiles, _, network, fit = world
    return engine.run(
        scenario,
        network,
        profiles,
        plan,
        make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
        seed=SEED,
        fit=fit,
        **kw,
    )


def content(report) -> dict:
    data = report.to_dict()
    del data["scenario_digest"]
    return data


def early_fact(world):
    return make_plan(world[0].params, "early", "fact_based")


@pytest.fixture(scope="module")
def reference(small_world):
    """The small world's early-fact run at cadence 1, with trajectories."""
    report = run_report(
        small_world, early_fact(small_world), topic="alpha",
        record_cadence=1, collect_trajectories=True,
    )
    # a run with both kinds of spreader, so the relations cover sharing
    assert report.final_states[engine.SPREADER_INFECTED]
    assert report.final_states[engine.SPREADER_UNINFECTED]
    return report


def test_permuted_user_list(small_world, reference):
    scenario = small_world[0]
    users = list(scenario.users)
    random.Random(SEED).shuffle(users)
    assert users != list(scenario.users)
    world = build_world(replace(scenario, users=tuple(users)))
    report = run_report(
        world, early_fact(world), topic="alpha", record_cadence=1, collect_trajectories=True
    )
    assert content(report) == content(reference)


def test_reversed_catalog_with_explicit_topic(small_world, reference):
    scenario = small_world[0]
    world = build_world(replace(scenario, content_catalog=scenario.content_catalog[::-1]))
    report = run_report(
        world, early_fact(world), topic="alpha", record_cadence=1, collect_trajectories=True
    )
    assert content(report) == content(reference)


@pytest.mark.parametrize("cadence", [4, 5])
def test_cadence_rows_are_cadence_one_rows(small_world, reference, cadence):
    report = run_report(
        small_world, early_fact(small_world), topic="alpha",
        record_cadence=cadence, collect_trajectories=True,
    )
    last = reference.total_steps

    def kept(rows):
        return [row for row in rows if row[0] % cadence == 0 or row[0] == last]

    full, sparse = reference.to_dict(), report.to_dict()
    for section in ("ratios", "trust", "trajectories"):
        assert set(sparse[section]) == set(full[section])
        for key, rows in full[section].items():
            assert sparse[section][key] == kept(rows)
    assert sparse["final_states"] == full["final_states"]
    assert sparse["resource_ledger"] == full["resource_ledger"]


def test_arm_after_other_arms_equals_fresh_run(small_world):
    fresh = run_report(small_world, early_fact(small_world))
    run_report(small_world, CONTROL_PLAN)
    run_report(small_world, make_plan(small_world[0].params, "late", "narrative_based"))
    after = run_report(small_world, early_fact(small_world))
    assert after.to_json() == fresh.to_json()


def test_replay_across_save_and_load(small_world, reference, tmp_path):
    saved, resaved = tmp_path / "saved.json", tmp_path / "resaved.json"
    save_scenario(small_world[0], saved)
    loaded = load_scenario(saved)
    save_scenario(loaded, resaved)
    assert resaved.read_bytes() == saved.read_bytes()
    world = build_world(loaded)
    report = run_report(
        world, early_fact(world), topic="alpha", record_cadence=1, collect_trajectories=True
    )
    assert report.to_json() == reference.to_json()


def test_community_order_is_input(small_world, reference):
    """The list order reaches every profile request and breaks assignment
    ties, so reversing it is a different scenario with its own digest."""
    scenario = small_world[0]
    reordered = replace(scenario, communities=scenario.communities[::-1])
    assert scenario.digest().startswith("3f7a98f9a96a")
    assert reordered.digest().startswith("803dfca331bc")
    world = build_world(reordered)
    report = run_report(
        world, early_fact(world), topic="alpha", record_cadence=1, collect_trajectories=True
    )
    assert content(report) != content(reference)


ARMS = [
    (stage, strategy) for stage in WINDOW_STAGES for strategy in ("fact_based", "narrative_based")
]


def first_legitimate_send(world, plan, topic, seed) -> int:
    """The least step any legitimate bot homed in the topic broadcasts at
    under ``plan``, or one past the run when none does."""
    scenario, profiles = world[0], world[1]
    bots = [p for p in profiles if p.is_bot and p.home_community() == topic]
    schedules = engine.build_bot_schedules(bots, scenario.params, plan, seed)
    steps = [s for p in bots if p.kind == KIND_LBOT for s in schedules[p.agent_id]]
    return min(steps, default=scenario.params.total_steps + 1)


def assert_arms_paired_with_control(world, seed, topic) -> None:
    """Every arm's rows equal control's before its first legitimate send:
    the plan reaches a run only through its correction and its legitimate
    schedules, and every draw is keyed by agent id, so until a correction
    is sent an arm replays control."""
    scenario, profiles, _, network, fit = world

    def series(plan):
        evaluator = make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
        return engine.run(scenario, network, profiles, plan, evaluator,
                          seed=seed, fit=fit, topic=topic, record_cadence=1).series

    control = series(CONTROL_PLAN)
    for stage, strategy in ARMS:
        plan = make_plan(scenario.params, stage, strategy)
        first = first_legitimate_send(world, plan, topic, seed)
        arm = series(plan)
        for community, rows in control.items():
            before = [row for row in rows if row.step < first]
            assert [row for row in arm[community] if row.step < first] == before, (
                stage, strategy, community, first)


@pytest.mark.parametrize("topic", ["alpha", "beta"])
@pytest.mark.parametrize("seed", range(1, 9))
def test_arms_equal_control_until_the_first_legitimate_send(small_world, seed, topic):
    assert_arms_paired_with_control(small_world, seed, topic)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), topic=st.sampled_from(["alpha", "beta"]))
def test_arms_equal_control_until_the_first_legitimate_send_any_seed(small_world, seed, topic):
    assert_arms_paired_with_control(small_world, seed, topic)
