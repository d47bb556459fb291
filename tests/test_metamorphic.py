"""Metamorphic relations between engine runs on the small world.

No oracle says what a run's report should be, but some changes to the input
must leave it unchanged: the order users and catalog items are listed in,
the cadence rows are recorded at (on the steps both record), and the arms
run before it. Reports are compared without ``scenario_digest``, which
hashes the input's listed order.
"""

import random
from dataclasses import replace

import pytest

from madd import engine
from madd.content import CONTROL_PLAN, make_plan
from madd.evaluator import make_evaluator

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
