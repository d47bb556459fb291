"""Run reports and intervention comparisons.

A RunReport carries one row per community and recorded step (the group
ratios beside the trust statistics), the final state sets and the resource
ledger for one simulation. Reports serialize byte-stably (sorted keys,
fixed float formatting) so determinism can be checked by comparing files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .errors import MismatchedRuns, UnknownCommunity

CSV_HEADER = "step,community,SR,ER,IR,UR,tt_mean,tt_std"


class StepRecord(NamedTuple):
    """One community at one recorded step: its SR/ER/IR/UR ratios and the
    mean and population standard deviation of its members' trust."""

    step: int
    sr: float
    er: float
    ir: float
    ur: float
    tt_mean: float
    tt_std: float


@dataclass
class RunReport:
    scenario_digest: str
    seed: int
    topic: str
    plan_stage: str
    plan_strategy: str
    record_cadence: int
    total_steps: int
    series: dict = field(default_factory=dict)  # community -> [StepRecord]
    trajectories: dict = field(default_factory=dict)  # agent -> [[step, tt]] (optional)
    final_states: dict = field(default_factory=dict)  # status -> sorted agent ids
    resource_ledger: dict = field(default_factory=dict)
    complete: bool = True

    def ir_series(self, community: str) -> list:
        if community not in self.series:
            raise UnknownCommunity(community, "report ratios")
        return [(r.step, r.ir) for r in self.series[community]]

    def final_ir(self, community: str) -> float:
        return self.ir_series(community)[-1][1]

    def validate(self) -> None:
        """Re-check the engine's structural guarantees on ingest."""
        for community, rows in self.series.items():
            prev_er = -1.0
            for record in rows:
                where = f"at step {record.step} in {community!r}"
                if abs(record.sr + record.er - 1.0) > 1e-9:
                    raise ValueError(f"SR + ER != 1 {where}")
                if record.ir + record.ur > record.er + 1e-9:
                    raise ValueError(f"IR + UR > ER {where}")
                if record.er + 1e-12 < prev_er:
                    raise ValueError(f"ER decreased {where}")
                if not 0.0 <= record.tt_mean <= 1.0 or record.tt_std < 0.0:
                    raise ValueError(f"trust stats out of range {where}")
                prev_er = record.er

    def to_dict(self) -> dict:
        out = {
            "scenario_digest": self.scenario_digest,
            "seed": self.seed,
            "topic": self.topic,
            "plan": {"stage": self.plan_stage, "strategy": self.plan_strategy},
            "record_cadence": self.record_cadence,
            "total_steps": self.total_steps,
            "ratios": {c: [list(r[:5]) for r in rows] for c, rows in self.series.items()},
            "trust": {c: [[r.step, *r[5:]] for r in rows] for c, rows in self.series.items()},
            "final_states": {k: list(v) for k, v in self.final_states.items()},
            "resource_ledger": self.resource_ledger,
            "complete": self.complete,
        }
        if self.trajectories:
            out["trajectories"] = {
                agent: [list(point) for point in series]
                for agent, series in self.trajectories.items()
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """The report of ``to_dict``'s data; each ``ratios`` row is paired with
        the ``trust`` row of its community and step, then ``validate`` runs."""
        ratios, trust = data["ratios"], data["trust"]
        if trust.keys() != ratios.keys():
            raise ValueError("trust and ratio records cover different communities")
        paired = {}
        for community, rows in ratios.items():
            if [t[0] for t in trust[community]] != [r[0] for r in rows]:
                raise ValueError(
                    f"trust records of {community!r} are not at the steps of its ratio records"
                )
            paired[community] = [
                StepRecord(step, sr, er, ir, ur, mean, std)
                for (step, sr, er, ir, ur), (_, mean, std) in zip(rows, trust[community])
            ]
        report = cls(
            scenario_digest=data["scenario_digest"],
            seed=data["seed"],
            topic=data["topic"],
            plan_stage=data["plan"]["stage"],
            plan_strategy=data["plan"]["strategy"],
            record_cadence=data["record_cadence"],
            total_steps=data["total_steps"],
            series=paired,
            trajectories={
                agent: [tuple(point) for point in series]
                for agent, series in data.get("trajectories", {}).items()
            },
            final_states={k: list(v) for k, v in data["final_states"].items()},
            resource_ledger=data["resource_ledger"],
            complete=data["complete"],
        )
        report.validate()
        return report

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        """One line per community and recorded step, communities sorted."""
        lines = [CSV_HEADER]
        for community in sorted(self.series):
            for r in self.series[community]:
                lines.append(
                    f"{r.step},{community},{r.sr:.9f},{r.er:.9f},{r.ir:.9f},{r.ur:.9f}"
                    f",{r.tt_mean:.9f},{r.tt_std:.9f}"
                )
        return "\n".join(lines) + "\n"


def population_stats(values) -> tuple:
    """Mean and population (not sample) standard deviation. Both totals add
    left to right from 0.0: from Python 3.12 on, the builtin ``sum``
    compensates float rounding, which would move their bits."""
    values = list(values)
    if not values:
        return 0.0, 0.0
    total = 0.0
    for v in values:
        total += v
    mean = total / len(values)
    total = 0.0
    for v in values:
        total += (v - mean) ** 2
    return mean, math.sqrt(total / len(values))


@dataclass
class ComparisonReport:
    scenario_digest: str
    seed: int
    control_stage: str
    deltas: dict = field(default_factory=dict)  # strategy -> community -> [[step, dIR]]
    final_step_deltas: dict = field(default_factory=dict)  # strategy -> community -> float
    peak_ir_deltas: dict = field(default_factory=dict)  # strategy -> community -> float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def compare_interventions(reports) -> ComparisonReport:
    """Per-community infected-ratio deltas of each strategy run against the
    control run sharing its scenario digest and seed."""
    reports = list(reports)
    if len(reports) < 2:
        raise MismatchedRuns("need at least two reports to compare")
    digests = {r.scenario_digest for r in reports}
    seeds = {r.seed for r in reports}
    if len(digests) != 1 or len(seeds) != 1:
        raise MismatchedRuns(
            f"reports span {len(digests)} digests and {len(seeds)} seeds; expected one of each"
        )
    controls = [r for r in reports if r.plan_strategy == "none"]
    if not controls:
        raise MismatchedRuns("no control run (strategy 'none') among the reports")
    control = controls[0]
    others = [r for r in reports if r is not control]

    comparison = ComparisonReport(
        scenario_digest=control.scenario_digest,
        seed=control.seed,
        control_stage=control.plan_stage,
    )
    control_ir = {c: dict(control.ir_series(c)) for c in control.series}
    for run in others:
        label = f"{run.plan_stage}:{run.plan_strategy}"
        if set(run.series) != set(control.series):
            raise MismatchedRuns(f"run {label} covers different communities than control")
        per_community = {}
        finals = {}
        peaks = {}
        for community in sorted(run.series):
            base = control_ir[community]
            series = []
            for step, ir in run.ir_series(community):
                if step not in base:
                    raise MismatchedRuns(f"run {label} recorded step {step} missing in control")
                series.append([step, ir - base[step]])
            per_community[community] = series
            finals[community] = series[-1][1]
            peak_run = max(ir for _, ir in run.ir_series(community))
            peak_control = max(base.values())
            peaks[community] = peak_run - peak_control
        comparison.deltas[label] = per_community
        comparison.final_step_deltas[label] = finals
        comparison.peak_ir_deltas[label] = peaks
    return comparison

