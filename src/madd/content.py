"""Disinformation items, corrective content and intervention plans."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MissingField, NoCorrectionAvailable, RangeViolation, ScenarioError
from .evaluator import EvaluationRequest, Evaluator

CONTENT_KINDS = ("disinformation", "correction")
STRATEGIES = ("none", "fact_based", "narrative_based")
WINDOW_STAGES = ("early", "mid", "late")  # each acts inside its window in the run parameters
STAGES = (*WINDOW_STAGES, "control")


@dataclass(frozen=True)
class ContentItem:
    """One message in circulation: a false claim or a correction for one.

    ``plausibility`` exists only for disinformation; when it arrives unset,
    each run scores it with :func:`score_plausibility` without storing the
    score. Items are immutable, and so is the catalog they form.
    """

    content_id: str
    topic: str
    kind: str
    strategy: str = "none"
    text: str = ""
    plausibility: float | None = None

    def __post_init__(self):
        for name in ("content_id", "topic", "kind", "strategy", "text"):
            if not isinstance(getattr(self, name), str):
                raise RangeViolation(name, getattr(self, name), "a string")
        if self.kind not in CONTENT_KINDS:
            raise RangeViolation("kind", self.kind, f"one of {CONTENT_KINDS}")
        if self.strategy not in STRATEGIES:
            raise RangeViolation("strategy", self.strategy, f"one of {STRATEGIES}")
        if self.kind == "correction" and self.strategy == "none":
            raise RangeViolation("strategy", self.strategy, "correction requires a strategy")
        if self.kind == "disinformation" and self.strategy != "none":
            raise RangeViolation("strategy", self.strategy, "disinformation carries no strategy")
        if self.kind == "correction" and self.plausibility is not None:
            raise RangeViolation("plausibility", self.plausibility, "only disinformation is scored")
        if self.plausibility is not None and not (
            isinstance(self.plausibility, (int, float))
            and not isinstance(self.plausibility, bool)
            and 0.0 <= self.plausibility <= 1.0
        ):
            raise RangeViolation("plausibility", self.plausibility, "[0, 1]")

    def to_dict(self) -> dict:
        """The fields in declaration order, less a plausibility left unset (None)."""
        return {name: value for name, value in vars(self).items() if value is not None}

    @classmethod
    def from_dict(cls, data) -> "ContentItem":
        if not isinstance(data, dict):
            raise RangeViolation("content item", data, "a JSON object")
        where = f"content item {data['content_id']!r}" if "content_id" in data else "content item"
        for name in ("content_id", "topic", "kind"):
            if name not in data:
                raise MissingField(name, where)
        unknown = set(data) - cls.__dataclass_fields__.keys()
        if unknown:
            raise ScenarioError(f"unknown key(s) in {where}: {sorted(unknown)}")
        try:
            return cls(**data)
        except RangeViolation as exc:
            raise RangeViolation(
                f"{exc.field}({data['content_id']})", exc.value, exc.constraint
            ) from exc


@dataclass(frozen=True)
class InterventionPlan:
    """Which corrective strategy legitimate bots push, and at which stage;
    the stage's window comes from the run parameters (:func:`stage_window`)."""

    stage: str
    strategy: str

    def __post_init__(self):
        if self.stage not in STAGES:
            raise RangeViolation("stage", self.stage, f"one of {STAGES}")
        if self.strategy not in STRATEGIES:
            raise RangeViolation("strategy", self.strategy, f"one of {STRATEGIES}")
        if self.stage == "control":
            if self.strategy != "none":
                raise RangeViolation(
                    "strategy", self.strategy, "control plans have no strategy or window"
                )
        elif self.strategy == "none":
            raise RangeViolation("strategy", self.strategy, "staged plans need a strategy")


CONTROL_PLAN = InterventionPlan(stage="control", strategy="none")


def stage_window(params, stage: str) -> tuple[int, int]:
    """The inclusive step range configured for ``stage`` in the run parameters."""
    window = params.intervention_windows.get(stage)
    if window is None:
        raise RangeViolation("stage", stage, "a stage with a configured window")
    return window


def make_plan(params, stage: str, strategy: str) -> InterventionPlan:
    """Plan for a stage that has a window in the run parameters."""
    stage_window(params, stage)  # a stage without a window raises here, as in the engine
    return InterventionPlan(stage=stage, strategy=strategy)


def score_plausibility(item: ContentItem, evaluator: Evaluator) -> float:
    """How credible a disinformation item reads, scored by the evaluator."""
    if item.kind != "disinformation":
        raise ValueError("only disinformation items get plausibility scores")
    return evaluator.evaluate(
        EvaluationRequest(
            kind="plausibility",
            subject_texts=(item.text,),
            context={"content_id": item.content_id, "community": item.topic},
        )
    )["score"]


def correction_for(disinfo: ContentItem, strategy: str, catalog) -> ContentItem:
    """The catalog correction countering ``disinfo`` under ``strategy``.

    Deterministic: ties resolve to the lowest content_id.
    """
    matches = [
        item
        for item in catalog
        if item.kind == "correction"
        and item.topic == disinfo.topic
        and item.strategy == strategy
    ]
    if not matches:
        raise NoCorrectionAvailable(disinfo.topic, strategy)
    return min(matches, key=lambda item: item.content_id)
