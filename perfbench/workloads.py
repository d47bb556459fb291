"""The benchmark's workloads: input generation and one timed job each.

Inputs come from ``madd.synthdata`` under the workload seed and are saved as
a scenario file before any clock starts; a job then hands that file to the
program the way a user would. A job is one closed-loop batch in this
process, with no extra threads: set up, run every (run seed, arm) pair in
turn, and write the artifacts.

A workload's ``phases`` generator runs one job. It yields a phase name each
time a timed phase ends, so the runner can time each phase and sample
machine speed during it; then it yields None, and the code after that is
untimed bookkeeping. Its return value is the JobResult.

Everything a job returns that must repeat exactly between repetitions sits
in a ``fingerprint`` dict. Values that depend on madd internals are read
defensively and come back as ``None`` (absent) when the internal is gone.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from madd import (
    attributes,
    cli,
    content,
    engine,
    evaluator as evaluator_mod,
    network,
    powerlaw,
    report as report_mod,
    scenario as scenario_mod,
    synthdata,
)

TOPIC = "politics"

# label -> (stage, strategy); the stages' windows come from the scenario
ARMS = {
    "control": ("control", "none"),
    "early_fact": ("early", "fact_based"),
    "late_fact": ("late", "fact_based"),
}


@dataclass
class RunOutcome:
    """One engine run (or the whole network export, on large_setup)."""

    seed: int | None = None  # run seed and arm; None for the network export
    arm: str | None = None
    fingerprint: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    report: object = None  # RunReport, kept until the post-job checks

    @property
    def key(self) -> str:
        return f"seed={self.seed} arm={self.arm}" if self.arm else "network"


@dataclass
class JobResult:
    agent_steps: int = 0
    runs: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    report_bytes: int = 0
    # (check name, passed, detail) for checks a job makes on its own outputs
    checks: list = field(default_factory=list)
    # (name, raw s, sampling s, mean relative speed), filled in by the runner
    phases: list = field(default_factory=list)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _optional(read):
    """Value of ``read()``, or None when the internal it reads is gone."""
    try:
        return read()
    except (AttributeError, KeyError, TypeError):
        return None


def _takes_state_out() -> bool:
    return "state_out" in inspect.signature(engine.run).parameters


class EngineWorkload:
    """Setup once, then every arm for every run seed, like ``madd experiment``."""

    def __init__(self, name, n_users, communities, arms, overrides=None,
                 fixed_scenario_seed=None, runs_per_job=1, check_edge_formula=False):
        self.name = name
        self.n_users = n_users
        self.communities = tuple(communities)
        self.arms = tuple(arms)
        self.overrides = dict(overrides or {})
        self.fixed_scenario_seed = fixed_scenario_seed
        self.runs_per_job = runs_per_job
        self.check_edge_formula = check_edge_formula

    def scenario_seed(self, seed: int) -> int:
        return seed if self.fixed_scenario_seed is None else self.fixed_scenario_seed

    def run_seeds(self, seed: int) -> tuple:
        if self.runs_per_job == 1:
            return (seed,)
        return tuple(10 * seed + k for k in range(1, self.runs_per_job + 1))

    def describe(self, seed: int) -> dict:
        return {
            "kind": "engine",
            "users": self.n_users,
            "communities": list(self.communities),
            "param_overrides": self.overrides,
            "scenario_seed": self.scenario_seed(seed),
            "run_seeds": list(self.run_seeds(seed)),
            "arms": list(self.arms),
            "topic": TOPIC,
        }

    def generate(self, seed: int, workdir: Path) -> Path:
        scenario = synthdata.build_synthetic_scenario(
            n_users=self.n_users,
            communities=self.communities,
            seed=self.scenario_seed(seed),
            **self.overrides,
        )
        path = workdir / "scenario.json"
        scenario_mod.save_scenario(scenario, path)
        return path

    def phases(self, scenario_path: Path, out_dir: Path, seed: int):
        """One job; see the module docstring for the phase protocol."""
        job = JobResult()
        run_seeds = self.run_seeds(seed)
        state_kw = _takes_state_out()
        try:
            scenario = scenario_mod.load_scenario(scenario_path)
            params = scenario.params
            setup_evaluator = evaluator_mod.make_evaluator(scenario.evaluator_config, params.rng_seed)
            profiles = attributes.derive_profiles(scenario, setup_evaluator)
            index = network.assign_communities(profiles, params.tau, scenario.communities)
            net = network.build_network(profiles, index, params, params.rng_seed)
            fit = powerlaw.fit_truncated_power_law(
                [p.share_total for p in profiles if not p.is_bot and p.share_total >= 1]
            )
        except Exception as exc:  # a broken setup fails every planned run
            job.runs = [RunOutcome(s, a, failures=[f"setup: {exc!r}"])
                        for s in run_seeds for a in self.arms]
            yield "setup"
            yield None
            return job
        yield "setup"

        regulars = sum(1 for p in profiles if not p.is_bot)
        writer = cli.ArtifactWriter(out_dir)
        plans = {}
        for label in self.arms:
            stage, strategy = ARMS[label]
            plans[label] = (content.CONTROL_PLAN if stage == "control"
                            else content.make_plan(params, stage, strategy))

        for run_seed in run_seeds:
            reports = []
            outcomes = [RunOutcome(run_seed, label) for label in self.arms]
            job.runs.extend(outcomes)
            for label, outcome in zip(self.arms, outcomes):
                states: list = []
                run_evaluator = evaluator_mod.make_evaluator(scenario.evaluator_config, params.rng_seed)
                try:
                    report = engine.run(
                        scenario, net, profiles, plans[label], run_evaluator,
                        seed=run_seed, topic=TOPIC, fit=fit,
                        **({"state_out": states} if state_kw else {}),
                    )
                    job.agent_steps += regulars * params.total_steps
                except Exception as exc:  # counted as a failed run, the job goes on
                    outcome.failures.append(f"engine.run raised {exc!r}")
                    report = None
                if report is not None:
                    try:
                        text = report.to_json()
                        csv = report.to_csv()
                        writer.write_text(f"seed_{run_seed}/{label}/report.json", text + "\n")
                        writer.write_text(f"seed_{run_seed}/{label}/report.csv", csv)
                        job.report_bytes += len(text) + 1 + len(csv)
                        outcome.report = report
                        outcome.fingerprint = _run_fingerprint(report, text, states)
                        reports.append(report)
                    except Exception as exc:
                        outcome.failures.append(f"serialize/write raised {exc!r}")
                    states.clear()
                if label == self.arms[-1] and len(reports) == len(self.arms):
                    try:
                        comparison = report_mod.compare_interventions(reports)
                        text = comparison.to_json()
                        writer.write_text(f"seed_{run_seed}/comparison.json", text + "\n")
                        job.report_bytes += len(text) + 1
                    except Exception as exc:
                        for failed in outcomes:
                            failed.failures.append(f"compare raised {exc!r}")
                if run_seed == run_seeds[-1] and label == self.arms[-1]:
                    manifest = writer.write_manifest(scenario.digest(), params.rng_seed)
                yield "run"
        yield None

        job.fingerprint = {
            "profiles": len(profiles),
            "regular_agents": regulars,
            "nodes": _optional(lambda: len(net.nodes)),
            "edges": _optional(lambda: len(net.edges)),
            "setup_llm_calls": _optional(lambda: setup_evaluator.ledger_snapshot()["totals"]["llm_calls"]),
            "fit": _optional(lambda: [fit.alpha, fit.lam, fit.x_min]),
            "manifest_sha256": _sha256(Path(manifest).read_text(encoding="utf-8")),
        }
        if self.check_edge_formula:
            job.checks.append(_edge_formula_check(index, net, params))
        return job


def _run_fingerprint(report, text: str, states: list) -> dict:
    state = states[0] if states else None
    return {
        "sha256": _sha256(text),
        "report_bytes": len(text),
        "llm_calls": _optional(lambda: report.resource_ledger["totals"]["llm_calls"]),
        "exposed_final": _optional(lambda: len(report.final_states["exposed"])),
        "final_ir": _optional(lambda: report.final_ir(TOPIC)),
        "deliveries": _optional(lambda: len(state.delivery_log)),
        "shares": _optional(lambda: sum(len(a.outbox) for a in state.agents.values())),
    }


def _edge_formula_check(index: dict, net, params) -> tuple:
    """A single community grows C(m0, 2) seed edges plus m per later arrival."""
    (members,) = index.values()
    n = len(members)
    expected = comb(params.m0, 2) + (n - params.m0) * params.m
    edges = _optional(lambda: len(net.edges))
    detail = f"C({params.m0},2) + ({n} - {params.m0})*{params.m} = {expected}, got {edges}"
    return ("edge_count_formula", edges == expected, detail)


class NetworkWorkload:
    """The ``madd network`` path: setup and export, no engine."""

    def __init__(self, name, n_users, communities):
        self.name = name
        self.n_users = n_users
        self.communities = tuple(communities)

    def describe(self, seed: int) -> dict:
        return {
            "kind": "network",
            "users": self.n_users,
            "communities": list(self.communities),
            "scenario_seed": seed,
            "command": "madd network --scenario scenario.json --out <dir>",
        }

    def generate(self, seed: int, workdir: Path) -> Path:
        scenario = synthdata.build_synthetic_scenario(
            n_users=self.n_users, communities=self.communities, seed=seed
        )
        path = workdir / "scenario.json"
        scenario_mod.save_scenario(scenario, path)
        return path

    def phases(self, scenario_path: Path, out_dir: Path, seed: int):
        """One job; see the module docstring for the phase protocol."""
        argv = ["network", "--scenario", str(scenario_path), "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        yield "setup"
        yield None

        outcome = RunOutcome()
        job = JobResult(runs=[outcome])
        if code != 0:
            outcome.failures.append(f"madd network exited {code}")
            return job
        try:
            manifest_text = (out_dir / "manifest.json").read_text(encoding="utf-8")
            manifest = json.loads(manifest_text)
            stale = [name for name, digest in manifest["files"].items()
                     if hashlib.sha256((out_dir / name).read_bytes()).hexdigest() != digest]
            edge_lines = (out_dir / "edges.txt").read_text(encoding="utf-8").splitlines()
            exported = json.loads((out_dir / "network.json").read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError) as exc:
            outcome.failures.append(f"reading artifacts failed: {exc!r}")
            return job
        job.checks.append(("manifest_digests", not stale, f"stale files: {stale}"))
        job.checks.append((
            "edges_consistent", len(edge_lines) == len(exported["edges"]),
            f"edges.txt {len(edge_lines)} lines, network.json {len(exported['edges'])} edges",
        ))
        job.fingerprint = {
            "manifest_sha256": _sha256(manifest_text),
            "nodes": len(exported["nodes"]),
            "edges": len(edge_lines),
        }
        outcome.fingerprint = dict(job.fingerprint)
        return job


WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload(
            "paper_battery",
            n_users=689,
            communities=synthdata.DEFAULT_COMMUNITIES,
            arms=("control", "early_fact", "late_fact"),
            fixed_scenario_seed=7,
            runs_per_job=2,
        ),
        EngineWorkload(
            "viral_topic",
            n_users=600,
            communities=(TOPIC,),
            arms=("control", "early_fact"),
            overrides={
                "m0": 7,
                "m": 6,
                "malicious_ratio": 0.3,
                "malicious_freq_range": (36, 72),
                "xi": 0.0,
                "theta": 0.2,
            },
            check_edge_formula=True,
        ),
        NetworkWorkload(
            "large_setup",
            n_users=6000,
            communities=(TOPIC, "technology"),
        ),
    )
}
