import hashlib
import json
import re

import pytest

from madd import engine
from madd.content import CONTROL_PLAN, make_plan
from madd.errors import MismatchedRuns, UnknownCommunity
from madd.evaluator import make_evaluator
from madd.report import RunReport, StepRecord, compare_interventions, population_stats

COMMUNITIES = ["business", "education", "entertainment", "politics", "sports", "technology"]
STEPS = [0, 12, 24, 36, 48, 60, 72]


def make_report(strategy="none", stage="control", seed=9, digest="abc", ir_bump=0.0):
    series = {}
    for ci, community in enumerate(COMMUNITIES):
        rows = []
        for si, step in enumerate(STEPS):
            er = min(1.0, 0.1 * si)
            ir = min(er, max(0.0, 0.02 * si + ir_bump)) if si else 0.0
            ur = max(0.0, er - ir - 0.01) if si else 0.0
            rows.append(StepRecord(step, 1.0 - er, er, ir, ur, 0.5 + 0.001 * si, 0.1))
        series[community] = rows
    return RunReport(
        scenario_digest=digest,
        seed=seed,
        topic="politics",
        plan_stage=stage,
        plan_strategy=strategy,
        record_cadence=12,
        total_steps=72,
        series=series,
        final_states={"susceptible": [], "exposed": [], "infected_spreader": [], "uninfected_spreader": []},
        resource_ledger={"per_community": {}, "totals": {"llm_calls": 0, "tokens": 0, "wall_time": 0.0}, "approximate": True},
    )


def set_ratios(report, community, row, sr, er, ir, ur):
    """Overwrite the ratios of one row, keeping its step and trust statistics."""
    rows = report.series[community]
    rows[row] = rows[row]._replace(sr=sr, er=er, ir=ir, ur=ur)


def set_cell(table, community, row, column, value):
    """A tamper that overwrites one cell of a report dict."""
    def tamper(data):
        data[table][community][row][column] = value
    return tamper


class TestTrustStats:
    def test_constant_values(self):
        mean, std = population_stats([0.5, 0.5, 0.5])
        assert (mean, std) == (0.5, 0.0)

    def test_empty_population(self):
        assert population_stats([]) == (0.0, 0.0)

    def test_two_point_population_std(self):
        mean, std = population_stats([0.4, 0.6])
        assert abs(mean - 0.5) < 1e-12
        assert abs(std - 0.1) < 1e-12


class TestSerialization:
    def test_csv_row_count(self):
        lines = make_report().to_csv().strip().splitlines()
        assert lines[0] == "step,community,SR,ER,IR,UR,tt_mean,tt_std"
        assert len(lines) == 1 + len(COMMUNITIES) * len(STEPS)  # 42 data rows

    def test_reexport_identical_bytes(self):
        report = make_report()
        assert report.to_csv() == report.to_csv()
        assert report.to_json() == report.to_json()

    def test_json_round_trip_full_precision(self):
        report = make_report()
        set_ratios(report, "politics", 1, 1 - 0.123456789123, 0.123456789123, 0.1, 0.01)
        again = RunReport.from_dict(json.loads(report.to_json()))
        assert again.series["politics"][1].er == 0.123456789123
        assert again.to_json() == report.to_json()

    def test_csv_nine_decimal_places(self):
        report = make_report()
        set_ratios(report, "politics", 1, 1 - 0.1234567891234, 0.1234567891234, 0.0, 0.0)
        row = [l for l in report.to_csv().splitlines() if l.startswith("12,politics")][0]
        assert row.split(",")[3] == "0.123456789"

    def test_trajectories_omitted_when_empty(self):
        assert "trajectories" not in json.loads(make_report().to_json())


class TestValidation:
    def test_partition_violation_caught(self):
        report = make_report()
        set_ratios(report, "politics", 2, 0.5, 0.6, 0.0, 0.0)
        with pytest.raises(ValueError, match="SR \\+ ER"):
            report.validate()

    def test_er_decrease_caught(self):
        report = make_report()
        set_ratios(report, "politics", 3, 0.9, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError, match="ER decreased"):
            report.validate()

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (set_cell("ratios", "politics", 2, 3, 0.1), "IR + UR > ER at step 24 in 'politics'"),
            (set_cell("trust", "sports", 1, 1, 1.5),
             "trust stats out of range at step 12 in 'sports'"),
            (set_cell("trust", "sports", 1, 1, -0.2),
             "trust stats out of range at step 12 in 'sports'"),
            (lambda data: data["trust"]["sports"].pop(3),
             "trust records of 'sports' are not at the steps of its ratio records"),
            (lambda data: data["ratios"].update(cooking=data["ratios"]["sports"]),
             "trust and ratio records cover different communities"),
        ],
        ids=["ir-plus-ur-above-er", "trust-mean-above-1", "trust-mean-below-0",
             "trust-row-dropped", "extra-ratio-community"],
    )
    def test_tampered_dict_rejected_on_ingest(self, tamper, message):
        data = make_report().to_dict()
        tamper(data)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunReport.from_dict(data)

    def test_ir_series_of_unknown_community(self):
        report = RunReport.from_dict(make_report().to_dict())
        with pytest.raises(UnknownCommunity, match=r"^unknown community 'cooking' \(report ratios\)$"):
            report.ir_series("cooking")

    def test_final_ir_of_unknown_community(self):
        report = RunReport.from_dict(make_report().to_dict())
        assert report.final_ir("politics") == report.series["politics"][-1].ir
        with pytest.raises(UnknownCommunity, match=r"^unknown community 'cooking' \(report ratios\)$"):
            report.final_ir("cooking")


class TestComparison:
    def test_control_vs_itself_all_zero(self):
        control = make_report()
        shadow = make_report()
        comparison = compare_interventions([control, shadow])
        label = "control:none"
        assert all(
            delta == 0.0
            for series in comparison.deltas[label].values()
            for _, delta in series
        )

    def test_deltas_and_summaries(self):
        control = make_report()
        fact = make_report(strategy="fact_based", stage="early", ir_bump=-0.01)
        comparison = compare_interventions([control, fact])
        label = "early:fact_based"
        for community in COMMUNITIES:
            assert comparison.final_step_deltas[label][community] < 0
            assert comparison.peak_ir_deltas[label][community] < 0

    def test_antisymmetric_under_swap(self):
        control = make_report()
        fact = make_report(strategy="fact_based", stage="early", ir_bump=-0.01)
        forward = compare_interventions([control, fact])
        # swap: treat the fact run as baseline by relabeling strategies
        control2 = make_report(strategy="fact_based", stage="early")
        fact2 = make_report(strategy="none", stage="control", ir_bump=-0.01)
        backward = compare_interventions([fact2, control2])
        f = forward.final_step_deltas["early:fact_based"]
        b = backward.final_step_deltas["early:fact_based"]
        assert all(abs(f[c] + b[c]) < 1e-12 for c in COMMUNITIES)

    def test_mismatched_seed_rejected(self):
        with pytest.raises(MismatchedRuns):
            compare_interventions([make_report(seed=1), make_report(seed=2, strategy="fact_based", stage="early")])

    def test_mismatched_digest_rejected(self):
        with pytest.raises(MismatchedRuns):
            compare_interventions(
                [make_report(digest="a"), make_report(digest="b", strategy="fact_based", stage="early")]
            )

    def test_single_report_rejected(self):
        with pytest.raises(MismatchedRuns, match="^need at least two reports to compare$"):
            compare_interventions([make_report()])

    def test_mismatched_communities_rejected(self):
        fact = make_report(strategy="fact_based", stage="early")
        del fact.series["sports"]
        message = "run early:fact_based covers different communities than control"
        with pytest.raises(MismatchedRuns, match=f"^{message}$"):
            compare_interventions([make_report(), fact])

    def test_step_missing_in_control_rejected(self):
        control = make_report()
        for series in control.series.values():
            del series[-1]
        message = "run early:fact_based recorded step 72 missing in control"
        with pytest.raises(MismatchedRuns, match=f"^{message}$"):
            compare_interventions([control, make_report(strategy="fact_based", stage="early")])

    def test_missing_control_rejected(self):
        with pytest.raises(MismatchedRuns):
            compare_interventions(
                [
                    make_report(strategy="fact_based", stage="early"),
                    make_report(strategy="narrative_based", stage="early"),
                ]
            )


def test_small_world_comparison_bytes(small_world):
    """Pins ComparisonReport.to_json() bytes for control, early fact and early
    narrative runs at seed 13; they move only with the trajectories."""
    scenario, profiles, _, network, fit = small_world
    plans = [CONTROL_PLAN] + [
        make_plan(scenario.params, "early", strategy)
        for strategy in ("fact_based", "narrative_based")
    ]
    reports = [
        engine.run(
            scenario,
            network,
            profiles,
            plan,
            make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
            seed=13,
            fit=fit,
        )
        for plan in plans
    ]
    comparison = compare_interventions(reports).to_json()
    assert hashlib.sha256(comparison.encode()).hexdigest() == (
        "810fd135bff50d39bd94fd29c4f03ef8aea5d11dc534e136974d405489dc0bfb"
    )


def test_small_world_report_with_trajectories_round_trips(small_world):
    scenario, profiles, _, network, fit = small_world
    report = engine.run(
        scenario,
        network,
        profiles,
        make_plan(scenario.params, "early", "fact_based"),
        make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
        seed=13,
        fit=fit,
        record_cadence=1,
        collect_trajectories=True,
    )
    text = report.to_json()
    assert json.loads(text)["trajectories"]
    assert RunReport.from_dict(json.loads(text)).to_json() == text
