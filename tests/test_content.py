import re

import pytest

from madd.attributes import KIND_LBOT, AgentProfile
from madd.content import (
    CONTROL_PLAN,
    ContentItem,
    InterventionPlan,
    correction_for,
    make_plan,
    score_plausibility,
    stage_window,
)
from madd.engine import build_bot_schedules
from madd.errors import NoCorrectionAvailable, RangeViolation, ScenarioError
from madd.evaluator import SyntheticEvaluator
from madd.scenario import SimulationParams


def catalog():
    return [
        ContentItem("d1", "politics", "disinformation", text="claim!!"),
        ContentItem("fb", "politics", "correction", "fact_based", "the 12 page audit"),
        ContentItem("fa", "politics", "correction", "fact_based", "another fact text"),
        ContentItem("nb", "politics", "correction", "narrative_based", "i was there"),
    ]


class TestContentItem:
    def test_correction_needs_strategy(self):
        with pytest.raises(RangeViolation):
            ContentItem("c", "politics", "correction", "none", "text")

    def test_disinformation_carries_no_strategy(self):
        with pytest.raises(RangeViolation):
            ContentItem("d", "politics", "disinformation", "fact_based", "text")

    def test_correction_never_scored(self):
        with pytest.raises(RangeViolation):
            ContentItem("c", "politics", "correction", "fact_based", "t", plausibility=0.5)

    def test_round_trip(self):
        item = ContentItem("d", "politics", "disinformation", text="t", plausibility=0.4)
        assert ContentItem.from_dict(item.to_dict()) == item

    @pytest.mark.parametrize("name", ["topic", "kind", "strategy", "text"])
    def test_non_string_field_rejected_naming_the_item(self, name):
        data = {"content_id": "d7", "topic": "politics", "kind": "disinformation",
                "strategy": "none", "text": "t", name: 5}
        with pytest.raises(RangeViolation, match=rf"^{name}\(d7\) = 5 violates a string"):
            ContentItem.from_dict(data)

    def test_unknown_key_rejected_naming_the_item(self):
        # a misspelt plausibility would otherwise be scored by the evaluator
        data = {"content_id": "disinfo_business", "topic": "business",
                "kind": "disinformation", "plausability": 0.9}
        message = "unknown key(s) in content item 'disinfo_business': ['plausability']"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            ContentItem.from_dict(data)

    @pytest.mark.parametrize("name, value, message", [
        ("kind", "rumour", "kind(d7) = 'rumour' violates one of ('disinformation', 'correction')"),
        ("strategy", "satire",
         "strategy(d7) = 'satire' violates one of ('none', 'fact_based', 'narrative_based')"),
    ])
    def test_unknown_kind_or_strategy_rejected_naming_the_item(self, name, value, message):
        data = {"content_id": "d7", "topic": "politics", "kind": "disinformation", name: value}
        with pytest.raises(RangeViolation, match=f"^{re.escape(message)}$"):
            ContentItem.from_dict(data)


class TestCorrectionLookup:
    def test_fact_based_selected(self):
        item = correction_for(catalog()[0], "fact_based", catalog())
        assert item.strategy == "fact_based"

    def test_lowest_content_id_wins_ties(self):
        assert correction_for(catalog()[0], "fact_based", catalog()).content_id == "fa"

    def test_narrative_selected(self):
        assert correction_for(catalog()[0], "narrative_based", catalog()).content_id == "nb"

    def test_empty_catalog_raises(self):
        with pytest.raises(NoCorrectionAvailable):
            correction_for(catalog()[0], "fact_based", [])


class TestInterventionPlans:
    def params(self):
        return SimulationParams()

    def test_early_window_matches_config(self):
        plan = make_plan(self.params(), "early", "fact_based")
        assert plan == InterventionPlan("early", "fact_based")
        assert stage_window(self.params(), plan.stage) == (12, 72)

    def test_full_count_schedules_every_window_step(self):
        bot = AgentProfile(agent_id="l0", kind=KIND_LBOT, interest_scores={"alpha": 10.0})
        for stage in ("early", "mid", "late"):
            lo, hi = SimulationParams().intervention_windows[stage]
            params = SimulationParams(
                legitimate_freq_range=(hi - lo + 1, hi - lo + 1),
                intervention_windows={stage: (lo, hi)},
            )
            plan = make_plan(params, stage, "narrative_based")
            schedules = build_bot_schedules([bot], params, plan, seed=5)
            assert schedules["l0"] == frozenset(range(lo, hi + 1))

    def test_control_plan_rejects_strategy(self):
        with pytest.raises(RangeViolation):
            InterventionPlan(stage="control", strategy="fact_based")

    def test_staged_plan_requires_strategy(self):
        with pytest.raises(RangeViolation):
            InterventionPlan(stage="early", strategy="none")

    @pytest.mark.parametrize("stage, strategy, message", [
        ("never", "fact_based",
         "stage = 'never' violates one of ('early', 'mid', 'late', 'control')"),
        ("early", "satire",
         "strategy = 'satire' violates one of ('none', 'fact_based', 'narrative_based')"),
    ])
    def test_malformed_plan_rejected(self, stage, strategy, message):
        with pytest.raises(RangeViolation, match=f"^{re.escape(message)}$"):
            InterventionPlan(stage=stage, strategy=strategy)

    def test_stage_without_window_rejected(self):
        params = SimulationParams(intervention_windows={"early": (12, 72)})
        message = "stage = 'late' violates a stage with a configured window"
        with pytest.raises(RangeViolation, match=f"^{re.escape(message)}$"):
            make_plan(params, "late", "fact_based")


class TestPlausibilityScoring:
    def test_score_stored_on_item(self):
        item = ContentItem("d1", "politics", "disinformation", text="a claim")
        value = score_plausibility(item, SyntheticEvaluator(seed=4))
        assert item.plausibility is None
        assert 0.0 <= value <= 1.0

    def test_stable_across_repeated_calls(self):
        a = ContentItem("d1", "politics", "disinformation", text="a claim")
        b = ContentItem("d1", "politics", "disinformation", text="a claim")
        evaluator = SyntheticEvaluator(seed=4)
        assert score_plausibility(a, evaluator) == score_plausibility(b, evaluator)

    def test_corrections_rejected(self):
        item = ContentItem("c", "politics", "correction", "fact_based", "t")
        with pytest.raises(ValueError):
            score_plausibility(item, SyntheticEvaluator(seed=4))
