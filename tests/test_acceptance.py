"""Acceptance gate: the release criteria, one test and one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside pytest's own pass/fail report.
"""

import math
import statistics
import sys
import time

import numpy as np
import pytest

from madd import engine
from madd.attributes import dissemination_tendency
from madd.content import CONTROL_PLAN, make_plan
from madd.dynamics import discernment, update_trust
from madd.evaluator import SyntheticEvaluator, make_evaluator
from madd.network import build_network, community_overlap_matrix, degree_distribution
from madd.powerlaw import fit_truncated_power_law
from madd.scenario import SimulationParams
from madd.synthdata import build_synthetic_scenario
from tests.test_network import uniform_profiles
from tests.test_powerlaw import sample_truncated_power_law

CANONICAL_SEED = 42
BATTERY_SEEDS = (1, 2, 3, 4, 5)
TOPIC = "politics"


def report_line(number, text):
    sys.stderr.write(f"[criterion {number:2d}] PASS  {text}\n")


@pytest.fixture(scope="module")
def canonical_run(paper_world):
    """The reference full-scale control run used by criteria 6, 8 and 9."""
    scenario, profiles, _, network, fit = paper_world
    states = []
    evaluator = make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
    started = time.perf_counter()
    report = engine.run(
        scenario,
        network,
        profiles,
        CONTROL_PLAN,
        evaluator,
        seed=CANONICAL_SEED,
        topic=TOPIC,
        fit=fit,
        collect_trajectories=True,
        state_out=states,
    )
    elapsed = time.perf_counter() - started
    return report, states[0], elapsed


def test_criterion_01_equation_unit_suite():
    started = time.perf_counter()
    # influence-weighted corrective sum = 2, gamma = beta = delta = 0.5
    enhanced = update_trust(0.5, ((1.0, 1.0), (1.0, 1.0)), (), 0.5, 0.5, 0.5)
    expected = 0.5 + 0.5 * (1.0 - math.exp(-1.0))
    assert abs(enhanced - expected) < 1e-9
    assert abs(enhanced - 0.8160602794142788) < 1e-9

    da = discernment(0.6, 0.5)
    assert abs(da - 0.8) < 1e-9

    floor = update_trust(0.01, (), ((1.0, 1.0),) * 30, 0.5, 0.5, 0.5)
    ceiling = update_trust(0.99, ((1.0, 1.0),) * 30, (), 0.5, 0.5, 0.5)
    assert floor == 0.0 and ceiling == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report_line(1, f"trust update {enhanced:.10f}, discernment {da:.3f}, clips ok ({elapsed:.3f}s)")


def test_criterion_02_mle_recovery():
    started = time.perf_counter()
    samples = sample_truncated_power_law(1.5, 0.01, 10, 10_000, seed=20240817)
    fit = fit_truncated_power_law(samples)
    elapsed = time.perf_counter() - started
    assert abs(fit.alpha - 1.5) <= 0.1
    assert abs(fit.x_min - 10) <= 1  # grid step: consecutive observed values
    assert elapsed < 10.0
    report_line(
        2,
        f"alpha {fit.alpha:.3f} (true 1.5), lam {fit.lam:.4f}, x_min {fit.x_min} ({elapsed:.1f}s)",
    )


def test_criterion_03_network_properties():
    started = time.perf_counter()
    members = uniform_profiles(1000, seed=4)
    index = {"only": [p.agent_id for p in members]}
    params = SimulationParams(m0=5, m=2)
    net = build_network(members, index, params, seed=4)
    expected_edges = math.comb(5, 2) + (1000 - 5) * 2
    assert len(net.edges) == expected_edges
    _, fit = degree_distribution(net, min_degree=2)
    assert fit is not None and 2.2 <= fit.alpha <= 3.5
    rebuilt = build_network(members, index, params, seed=4)
    assert rebuilt.edges == net.edges
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report_line(
        3,
        f"edges {len(net.edges)} (= C(5,2)+995*2), degree tail alpha {fit.alpha:.2f}, "
        f"deterministic rebuild ({elapsed:.1f}s)",
    )


def test_criterion_04_community_structure(paper_world):
    scenario, profiles, index, net, _ = paper_world
    membership = {}
    for community, members in index.items():
        for m in members:
            membership.setdefault(m, set()).add(community)
    intra_edges = sum(1 for a, b in net.edges if membership[a] & membership[b])
    inter_edges = len(net.edges) - intra_edges
    nodes = net.nodes
    same = cross = 0
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if membership[a] & membership[b]:
                same += 1
            else:
                cross += 1
    intra_density = intra_edges / same
    inter_density = inter_edges / cross if cross else 0.0
    assert intra_density > inter_density

    matrix = community_overlap_matrix(index)
    assert np.array_equal(matrix, matrix.T)
    for i, community in enumerate(index):
        assert matrix[i, i] == len(index[community])
    sizes = [len(index[c]) for c in scenario.communities]
    assert all(60 <= s for s in sizes)
    report_line(
        4,
        f"intra density {intra_density:.2e} > inter {inter_density:.2e}; overlap matrix "
        f"symmetric, diag {sizes}",
    )


def test_criterion_05_attribute_distributions(paper_world):
    scenario, profiles, _, _, fit = paper_world
    regs = [p for p in profiles if not p.is_bot]

    trust = np.array(
        [p.trust_thresholds[c] for p in regs for c in scenario.communities]
    )
    mean = float(trust.mean())
    assert abs(mean - 0.5) < 0.05
    counts, _ = np.histogram(trust, bins=10, range=(0.0, 1.0))
    peaks = [
        i
        for i in range(len(counts))
        if (i == 0 or counts[i] > counts[i - 1])
        and (i == len(counts) - 1 or counts[i] >= counts[i + 1])
    ]
    assert len(peaks) == 1

    tendencies = np.array(
        [
            dissemination_tendency(p, c, fit, scenario.params, 0)
            for p in regs
            for c in scenario.communities
        ]
    )
    ordered = np.sort(tendencies)[::-1]
    top_share = ordered[: len(ordered) // 10].sum() / ordered.sum()
    assert top_share > 0.25
    report_line(
        5,
        f"trust mean {mean:.3f} (unimodal), top-decile tendency mass {top_share:.1%}",
    )


def test_criterion_06_simulation_invariants_at_scale(paper_world, canonical_run):
    scenario, profiles, _, network, fit = paper_world
    report, state, first_elapsed = canonical_run

    for community, series in report.series.items():
        previous_er = 0.0
        for record in series:
            assert abs(record.sr + record.er - 1.0) < 1e-9
            assert record.er >= previous_er - 1e-12
            assert record.ir + record.ur <= record.er + 1e-9
            previous_er = record.er
    for series in report.trajectories.values():
        assert all(0.0 <= tt <= 1.0 for _, tt in series)
    for agent in state.agents.values():
        received = set(agent.exposure_counts)
        shared = {content_id for _, content_id, _ in agent.outbox}
        assert shared <= received

    started = time.perf_counter()
    evaluator = make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
    rerun = engine.run(
        scenario,
        network,
        profiles,
        CONTROL_PLAN,
        evaluator,
        seed=CANONICAL_SEED,
        topic=TOPIC,
        fit=fit,
        collect_trajectories=True,
    )
    second_elapsed = time.perf_counter() - started
    assert rerun.to_json() == report.to_json()
    assert first_elapsed < 60.0 and second_elapsed < 60.0
    n_regular = sum(1 for p in profiles if not p.is_bot)
    assert n_regular == 689
    report_line(
        6,
        f"689 regular users, 72 steps: partitions, monotonicity, bounds ok; "
        f"byte-identical rerun ({first_elapsed:.1f}s / {second_elapsed:.1f}s)",
    )


def test_criterion_07_intervention_direction(paper_world):
    scenario, profiles, _, network, fit = paper_world
    finals = {"control": [], "early_fact": [], "late_fact": []}
    plans = {
        "control": CONTROL_PLAN,
        "early_fact": make_plan(scenario.params, "early", "fact_based"),
        "late_fact": make_plan(scenario.params, "late", "fact_based"),
    }
    for seed in BATTERY_SEEDS:
        for label, plan in plans.items():
            evaluator = make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
            report = engine.run(
                scenario, network, profiles, plan, evaluator,
                seed=seed, fit=fit, topic=TOPIC,
            )
            finals[label].append(report.final_ir(TOPIC))
    med = {label: statistics.median(values) for label, values in finals.items()}
    assert med["early_fact"] <= med["control"]
    assert med["early_fact"] <= med["late_fact"]
    report_line(
        7,
        f"median final infected ratio: early fact {med['early_fact']:.4f} <= "
        f"control {med['control']:.4f}; early {med['early_fact']:.4f} <= "
        f"late {med['late_fact']:.4f} (seeds {BATTERY_SEEDS})",
    )


def test_criterion_08_control_trust_drifts_up(canonical_run):
    report, _, _ = canonical_run
    series = report.series[TOPIC]
    assert series[-1].tt_mean >= series[0].tt_mean
    report_line(
        8,
        f"control trust mean {series[0].tt_mean:.6f} -> {series[-1].tt_mean:.6f} "
        f"over {report.total_steps} steps",
    )


def test_criterion_09_resource_ledger(paper_world):
    scenario, profiles, _, network, fit = paper_world

    class CountingEvaluator(SyntheticEvaluator):
        def __init__(self, seed):
            super().__init__(seed)
            self.invocations = 0

        def evaluate(self, request):
            self.invocations += 1
            return super().evaluate(request)

    evaluator = CountingEvaluator(seed=scenario.params.rng_seed)
    report = engine.run(
        scenario, network, profiles, CONTROL_PLAN, evaluator,
        seed=CANONICAL_SEED, topic=TOPIC, fit=fit,
    )
    ledger = report.resource_ledger
    assert ledger["totals"]["llm_calls"] == evaluator.invocations
    for key in ("llm_calls", "tokens", "wall_time"):
        assert ledger["totals"][key] == pytest.approx(
            sum(entry[key] for entry in ledger["per_community"].values())
        )
    report_line(
        9,
        f"ledger calls {ledger['totals']['llm_calls']} == instrumented count; "
        f"per-community totals consistent",
    )


def test_criterion_10_long_run_smoke():
    started = time.perf_counter()
    scenario = build_synthetic_scenario(
        n_users=150, communities=("business",), seed=11, total_steps=120
    )
    evaluator = make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
    from madd.attributes import derive_profiles
    from madd.network import assign_communities

    profiles = derive_profiles(scenario, evaluator)
    index = assign_communities(profiles, scenario.params.tau, scenario.communities)
    network = build_network(profiles, index, scenario.params, scenario.params.rng_seed)
    fit = fit_truncated_power_law(
        [p.share_total for p in profiles if not p.is_bot and p.share_total >= 1]
    )
    states = []
    report = engine.run(
        scenario,
        network,
        profiles,
        make_plan(scenario.params, "early", "fact_based"),
        make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
        seed=11,
        fit=fit,
        collect_trajectories=True,
        state_out=states,
    )
    elapsed = time.perf_counter() - started
    assert report.complete
    assert report.total_steps == 120
    assert [r.step for r in report.series["business"]][-1] == 120
    for record in report.series["business"]:
        assert abs(record.sr + record.er - 1.0) < 1e-9
        assert record.ir + record.ur <= record.er + 1e-9
    ers = [r.er for r in report.series["business"]]
    assert all(b >= a - 1e-12 for a, b in zip(ers, ers[1:]))
    for series in report.trajectories.values():
        assert all(0.0 <= tt <= 1.0 for _, tt in series)
    for agent in states[0].agents.values():
        received = set(agent.exposure_counts)
        assert {cid for _, cid, _ in agent.outbox} <= received
    assert elapsed < 30.0
    report_line(
        10,
        f"120-step single-community run complete, all invariants hold ({elapsed:.1f}s)",
    )
