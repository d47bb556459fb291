"""Command-line entry point.

Subcommands: validate, defaults, profiles, network, run, experiment.
Data artifacts land under --out together with a manifest.json naming every
file written (with content digests), the scenario digest and the seed, so
reruns can be compared byte-for-byte. Diagnostics go to stderr; exit codes:
0 success, 1 validation failure, 2 runtime failure. A run that an evaluator
failure cut short still writes its artifacts, then exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import engine
from .attributes import derive_profiles
from .content import CONTROL_PLAN, WINDOW_STAGES, correction_for, make_plan
from .errors import DegenerateSamples, InsufficientData, MaddError, ScenarioError
from .evaluator import make_evaluator
from .network import assign_communities, build_network
from .powerlaw import MIN_DISTINCT, MIN_SAMPLES, fit_truncated_power_law
from .report import compare_interventions
from .scenario import defaults_as_json, load_scenario, with_seed

_STRATEGY_BY_FLAG = {"fact": "fact_based", "narrative": "narrative_based"}


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); map to validation failure
        raise _CliError(message)


class ArtifactWriter:
    """Writes files under the output directory and records them for the
    manifest; nothing is written outside this path."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, str] = {}

    def write_text(self, relpath: str, text: str) -> Path:
        path = self.out_dir / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        data = text.encode("utf-8")
        path.write_bytes(data)
        self.files[relpath] = hashlib.sha256(data).hexdigest()
        return path

    def write_manifest(self, scenario_digest: str, seed: int) -> Path:
        manifest = {
            "scenario_digest": scenario_digest,
            "seed": seed,
            "files": dict(sorted(self.files.items())),
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        path = self.out_dir / "manifest.json"
        path.write_text(text, encoding="utf-8")
        return path


def _record_cadence(text: str) -> int:
    """--record-cadence, checked while parsing so a bad value writes nothing."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"record_cadence = {text} violates >= 1")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="madd", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add_common(p, *, seed_required=False):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, required=seed_required,
                       help="run seed (overrides the scenario's rng_seed)")
        p.add_argument("--backend", choices=["synthetic", "remote"],
                       help="evaluator backend override")

    sub.add_parser("defaults", help="print default parameters")

    p = sub.add_parser("validate", help="validate a scenario file")
    add_common(p)

    p = sub.add_parser("profiles", help="derive agent profiles")
    add_common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("network", help="build the propagation network")
    add_common(p)
    p.add_argument("--out", required=True)

    def add_engine_run(p):
        add_common(p, seed_required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--topic", help="disinformation topic (default: first in catalog)")
        p.add_argument("--record-cadence", type=_record_cadence,
                       default=engine.DEFAULT_RECORD_CADENCE)
        p.add_argument("--dump-profiles", action="store_true")
        p.add_argument("--dump-network", action="store_true")

    p = sub.add_parser("run", help="run one simulation")
    add_engine_run(p)
    p.add_argument("--stage", choices=WINDOW_STAGES,
                   help="intervention stage (requires --strategy; omit both for a control run)")
    p.add_argument("--strategy", choices=["fact", "narrative"],
                   help="correction strategy (requires --stage)")
    p.add_argument("--trajectories", action="store_true",
                   help="record per-agent trust trajectories")

    p = sub.add_parser("experiment", help="control + strategy runs + comparison")
    add_engine_run(p)
    p.add_argument("--stage", choices=WINDOW_STAGES, required=True)
    p.add_argument("--strategy", choices=["fact", "narrative", "both"], default="both")
    return parser


def _load(args):
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = with_seed(scenario, args.seed)
    if args.backend:
        scenario = replace(
            scenario,
            evaluator_config=replace(scenario.evaluator_config, backend=args.backend),
        )
    return scenario


def _progress_printer(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _prepare(scenario, *, trust: bool):
    """Profiles and propagation network for a scenario; ``trust`` scores the
    trust thresholds too, which only the engine reads."""
    seed = scenario.params.rng_seed
    evaluator = make_evaluator(scenario.evaluator_config, seed)
    profiles = derive_profiles(scenario, evaluator, trust=trust)
    index = assign_communities(profiles, scenario.params.tau, scenario.communities)
    return profiles, build_network(profiles, index, scenario.params, seed)


def _share_fit(scenario):
    """Power-law fit of the share counts of the users who shared, for the
    engine; too few of them, or too few distinct counts, is a validation
    error."""
    shares = [u.share_total for u in scenario.users if u.share_total >= 1]
    try:
        return fit_truncated_power_law(shares)
    except (InsufficientData, DegenerateSamples) as exc:
        raise _CliError(
            f"the share-count fit needs >= {MIN_SAMPLES} users who shared, with >= "
            f"{MIN_DISTINCT} distinct counts; got {len(shares)} users / {len(set(shares))} distinct"
        ) from exc


def _finish(reports, message: str) -> int:
    """Exit 0 with ``message``, or 2 naming each arm an evaluator failure cut short."""
    cut = [
        r.plan_stage if r.plan_stage == "control" else f"{r.plan_stage}:{r.plan_strategy}"
        for r in reports
        if not r.complete
    ]
    if cut:
        sys.stderr.write(
            f"runtime error: evaluator failed mid-run, incomplete arm(s): {', '.join(cut)}\n"
        )
        return 2
    print(message)
    return 0


def _write_profiles(writer, profiles) -> None:
    writer.write_text(
        "profiles.json",
        json.dumps([p.to_dict() for p in profiles], indent=2, sort_keys=True) + "\n",
    )


def _write_network(writer, net) -> None:
    writer.write_text("edges.txt", net.edge_text())
    writer.write_text("network.json", net.json_text())


def _cmd_validate(args) -> int:
    scenario = _load(args)  # loading raises on the first violation
    scenario.disinformation_for(None)  # every run needs a claim
    _share_fit(scenario)
    if scenario.evaluator_config.backend == "synthetic":
        _prepare(scenario, trust=False)  # community sizes come from scoring every user's interests
    else:
        make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
        sys.stderr.write("note: community sizes not checked: they need remote evaluator calls\n")
    print(
        f"OK: {len(scenario.users)} users, {len(scenario.communities)} communities, "
        f"{len(scenario.content_catalog)} content items, digest {scenario.digest()[:12]}"
    )
    return 0


def _cmd_profiles(args) -> int:
    scenario = _load(args)
    evaluator = make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
    profiles = derive_profiles(scenario, evaluator)
    writer = ArtifactWriter(Path(args.out))
    _write_profiles(writer, profiles)
    writer.write_manifest(scenario.digest(), scenario.params.rng_seed)
    print(f"wrote {len(profiles)} profiles to {args.out}")
    return 0


def _cmd_network(args) -> int:
    scenario = _load(args)
    _, net = _prepare(scenario, trust=False)
    writer = ArtifactWriter(Path(args.out))
    _write_network(writer, net)
    writer.write_manifest(scenario.digest(), scenario.params.rng_seed)
    print(f"network: {len(net.nodes)} nodes, {len(net.edges)} edges -> {args.out}")
    return 0


def _simulate(args, scenario, plans: dict, trajectories: bool = False):
    """Setup, then one engine run per plan, each report written under the
    path prefix that keys its plan; returns the writer and the reports.
    Catalog, fit and setup errors raise before anything is written, and the
    fit reads the users before any evaluator call."""
    disinfo = scenario.disinformation_for(args.topic)
    for plan in plans.values():
        if plan.strategy != "none":
            correction_for(disinfo, plan.strategy, scenario.content_catalog)
    fit = _share_fit(scenario)
    profiles, net = _prepare(scenario, trust=True)
    writer = ArtifactWriter(Path(args.out))
    reports = []
    for prefix, plan in plans.items():
        report = engine.run(
            scenario,
            net,
            profiles,
            plan,
            make_evaluator(scenario.evaluator_config, scenario.params.rng_seed),
            seed=scenario.params.rng_seed,
            topic=args.topic,
            record_cadence=args.record_cadence,
            collect_trajectories=trajectories,
            progress=_progress_printer,
            fit=fit,
        )
        writer.write_text(f"{prefix}report.json", report.to_json() + "\n")
        writer.write_text(f"{prefix}report.csv", report.to_csv())
        reports.append(report)
    if args.dump_profiles:
        _write_profiles(writer, profiles)
    if args.dump_network:
        _write_network(writer, net)
    return writer, reports


def _cmd_run(args) -> int:
    scenario = _load(args)
    if bool(args.stage) != bool(args.strategy):
        given, missing = ("--stage", "--strategy") if args.stage else ("--strategy", "--stage")
        raise _CliError(f"{given} requires {missing}")
    plan = CONTROL_PLAN
    if args.stage:
        plan = make_plan(scenario.params, args.stage, _STRATEGY_BY_FLAG[args.strategy])
    writer, (report,) = _simulate(args, scenario, {"": plan}, args.trajectories)
    writer.write_manifest(scenario.digest(), scenario.params.rng_seed)
    final = {c: report.series[c][-1] for c in sorted(report.series)}
    for community, record in final.items():
        sys.stderr.write(
            f"final {community}: SR={record.sr:.3f} ER={record.er:.3f} "
            f"IR={record.ir:.3f} UR={record.ur:.3f}\n"
        )
    return _finish([report], f"run complete: {args.out}/report.json")


def _cmd_experiment(args) -> int:
    scenario = _load(args)
    strategies = (
        list(_STRATEGY_BY_FLAG.values())
        if args.strategy == "both"
        else [_STRATEGY_BY_FLAG[args.strategy]]
    )
    plans = {"control/": CONTROL_PLAN}
    for strategy in strategies:
        plans[f"{strategy}/"] = make_plan(scenario.params, args.stage, strategy)
    writer, reports = _simulate(args, scenario, plans)
    comparison = compare_interventions(reports)
    writer.write_text("comparison.json", comparison.to_json() + "\n")
    writer.write_manifest(scenario.digest(), scenario.params.rng_seed)
    return _finish(reports, f"experiment complete: {len(reports)} runs -> {args.out}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "defaults":
            sys.stdout.write(defaults_as_json() + "\n")
            return 0
        if args.command is None:
            raise _CliError("a subcommand is required (see --help)")
        handler = {
            "validate": _cmd_validate,
            "profiles": _cmd_profiles,
            "network": _cmd_network,
            "run": _cmd_run,
            "experiment": _cmd_experiment,
        }[args.command]
        return handler(args)
    except (_CliError, ScenarioError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MaddError as exc:
        sys.stderr.write(f"runtime error: {exc}\n")
        return 2
    except Exception as exc:  # never panic on malformed input
        sys.stderr.write(f"unexpected error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
