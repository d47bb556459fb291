"""madd benchmark: one workload per invocation, as one closed-loop batch job.

    python3 perfbench/run.py --workload paper_battery --seed 1 --seconds 20 --trace 0

Run from anywhere; madd is imported from ``src/`` beside this directory, so
the benchmark measures the checkout it sits in. Input generation and imports
happen before any clock starts and are not part of ``setup_s``.

``--trace 0`` repeats the job untraced until ``--seconds`` have passed (at
least twice) and reports the end-to-end metrics as medians over the jobs.
``--trace 1`` runs the job once untraced and once under the span tracer and
reports the per-layer metrics; their difference in wall time is the tracing
overhead. Every repetition is checked; the last stdout line is the JSON
result. Span records and a details file land in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from speed import SpeedMeter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_REPETITIONS = 2
# a first job slower than this is not repeated, so even a badly regressed
# build exits inside the three-minute limit a run has
REPEAT_LIMIT_S = 60.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_madd():
    """Put this checkout's sources first on the path and import them."""
    if not (SRC / "madd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no madd sources at {SRC}; run inside a checkout of the repo")
    sys.path.insert(0, str(SRC))
    import madd

    if Path(madd.__file__).resolve().parent != (SRC / "madd").resolve():
        raise SystemExit(f"perfbench: imported madd from {madd.__file__}, not from {SRC}")
    return madd


def last_level_cache() -> str:
    """Size of the highest cache level cpu0 reports, or 'unknown'."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level >= best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else "unknown"


def provenance(madd, workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload_params": workload.describe(seed),
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "madd": getattr(madd, "__version__", "unknown"),
        "machine": platform.machine(),
        "last_level_cache": last_level_cache(),
        "setup_s_excludes": "interpreter start, imports and input generation",
    }


class Checks:
    """Named pass/fail tallies; a failure also marks the runs it concerns."""

    def __init__(self):
        self.tally: dict[str, list] = {}
        self.details: list[str] = []

    def record(self, name: str, ok: bool, runs, detail: str = "") -> None:
        entry = self.tally.setdefault(name, [0, 0])
        entry[0 if ok else 1] += 1
        if not ok:
            self.details.append(f"{name}: {detail}")
            for run in runs:
                run.failures.append(f"{name}: {detail}")


def check_job(job, checks: Checks, reference=None) -> None:
    """Checks on one finished job; ``reference`` is a job it must replay."""
    from madd.report import RunReport

    for name, ok, detail in job.checks:
        checks.record(name, ok, job.runs, detail)
    for run in job.runs:
        if run.report is not None:
            ok = run.report.complete
            checks.record("run_complete", ok, [run], f"{run.key} finished incomplete")
            try:
                RunReport.from_dict(run.report.to_dict())
                ok, detail = True, ""
            except Exception as exc:  # any raise means the report does not validate
                ok, detail = False, f"{run.key}: {exc!r}"
            checks.record("report_roundtrip_validates", ok, [run], detail)
            run.report = None  # free it; its digest stays in the fingerprint
        else:
            # a run without a report failed inside the job, which said why
            checks.record("run_complete", not run.failures, [], f"{run.key}: {run.failures}")
    if reference is None:
        return
    name = "replay_identical"
    same = job.fingerprint == reference.fingerprint
    checks.record(name, same, job.runs,
                  f"job counters {job.fingerprint} != {reference.fingerprint}")
    ref_runs = {run.key: run for run in reference.runs}
    for run in job.runs:
        ref = ref_runs.get(run.key)
        ok = ref is not None and run.fingerprint == ref.fingerprint
        checks.record(name, ok, [run],
                      f"{run.key}: {run.fingerprint} != {ref.fingerprint if ref else None}")


def drive(workload, scenario_path, out_dir, seed, tracer=None):
    """Run one job phase by phase under the speed meter.

    Each phase is recorded as (name, raw s, sampling s, mean relative
    speed); ``seconds`` turns these into raw or normalized times.
    """
    from workloads import JobResult, RunOutcome

    job_phases = workload.phases(scenario_path, out_dir, seed)
    meter = SpeedMeter(tracer)
    phases = []
    try:
        while True:
            with tracer.span("job") if tracer else contextlib.nullcontext():
                meter.start()
                started = time.perf_counter()
                try:
                    name = next(job_phases)
                finally:
                    meter.stop()
                elapsed = time.perf_counter() - started
            if name is None:
                break
            phases.append((name, elapsed, meter.sampled_s, meter.mean_speed()))
        try:
            next(job_phases)
        except StopIteration as stop:
            job = stop.value
    except Exception as exc:  # the runner keeps going and counts the failure
        job = JobResult(runs=[RunOutcome(failures=[f"job raised {exc!r}"])])
    job.phases = phases
    return job


def seconds(job, phase=None, normalized=True) -> float:
    """Raw or speed-normalized seconds of a job's phases (all, or one name).

    A phase too short to get a sample takes the job's mean speed.
    """
    speeds = [speed for _, _, _, speed in job.phases if speed is not None]
    fallback = sum(speeds) / len(speeds) if speeds else 1.0
    total = 0.0
    for name, elapsed, sampled, speed in job.phases:
        if phase is not None and name != phase:
            continue
        if normalized:
            total += (elapsed - sampled) * (fallback if speed is None else speed)
        else:
            total += elapsed
    return total


def sampled(job) -> float:
    """Seconds a job spent in speed samples."""
    return sum(sampling for _, _, sampling, _ in job.phases)


def timed_jobs(workload, scenario_path, workdir, seed, budget_s, checks):
    jobs = []
    started = time.perf_counter()
    while True:
        gc.collect()
        out = workdir / f"job{len(jobs)}"
        job = drive(workload, scenario_path, out, seed)
        shutil.rmtree(out, ignore_errors=True)
        check_job(job, checks, jobs[0] if jobs else None)
        jobs.append(job)
        elapsed = time.perf_counter() - started
        if len(jobs) >= MIN_REPETITIONS and elapsed >= budget_s:
            return jobs
        if len(jobs) == 1 and elapsed >= REPEAT_LIMIT_S:
            checks.record("replay_identical", False, job.runs,
                          f"first job took {elapsed:.1f} s, too slow to repeat")
            return jobs


def traced_job(workload, scenario_path, workdir, seed, checks):
    from spans import Tracer

    gc.collect()
    untraced = drive(workload, scenario_path, workdir / "untraced", seed)
    check_job(untraced, checks)
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        traced = drive(workload, scenario_path, workdir / "traced", seed, tracer)
    finally:
        tracer.uninstall()
    check_job(traced, checks, reference=untraced)
    return untraced, traced, tracer


def failure_counts(jobs) -> tuple:
    """(runs attempted, runs failed) over the jobs."""
    runs = [run for job in jobs for run in job.runs]
    return len(runs), sum(1 for run in runs if run.failures)


def engine_totals(job) -> dict:
    """Run counters summed over a job's engine runs; None when one is absent."""
    engine_runs = [run for run in job.runs if "sha256" in run.fingerprint]
    totals = {}
    for key in ("deliveries", "shares", "exposed_final"):
        values = [run.fingerprint.get(key) for run in engine_runs]
        totals[key] = None if None in values else sum(values)
    return totals


def layer_metrics(tracer, untraced, traced) -> dict:
    """Per-layer metric values; None marks a metric whose layer is gone."""
    installed = set(tracer.names)  # spans with a live wrapper

    def calls(span):
        return tracer.calls.get(span, 0) if span in installed else None

    def total(*span_names):
        if not any(s in installed for s in span_names):
            return None
        return sum(tracer.total_s.get(s, 0.0) for s in span_names)

    engine = engine_totals(traced)
    deliveries = engine["deliveries"]
    engine_run_s = tracer.total_s.get("engine.run", 0.0)
    agent_steps_per_s = agent_steps_rate(untraced)
    attempted, failed = failure_counts([untraced, traced])
    return {
        "rng.substreams": calls("rng.substream"),
        "rng.substream_s": total("rng.substream"),
        "attributes.activation_probability.calls": calls("attributes.activation_probability"),
        "attributes.dissemination_tendency.calls": calls("attributes.dissemination_tendency"),
        "powerlaw.cdf.calls": calls("powerlaw.cdf"),
        "engine.runs": calls("engine.run"),
        "engine.run_s": total("engine.run"),
        "engine.self_s": tracer.self_s.get("engine.run", 0.0),
        "engine.rng_share": (tracer.engine_self_s.get("rng.substream", 0.0) / engine_run_s
                             if engine_run_s else 0.0),
        "engine.deliver_s": total("engine.deliver"),
        "engine.trust_update_s": total("engine.trust_update"),
        "engine.deliveries": deliveries,
        "engine.shares": engine["shares"],
        "engine.exposed_final": engine["exposed_final"],
        "engine.deliveries_per_agent_step": (
            None if deliveries is None
            else deliveries / traced.agent_steps if traced.agent_steps else 0.0
        ),
        "agent_steps_per_s": agent_steps_per_s,
        "dynamics.update_trust.calls": calls("dynamics.update_trust"),
        "dynamics.discernment.calls": calls("dynamics.discernment"),
        "dynamics.believe_disinformation.calls": calls("dynamics.believe_disinformation"),
        "dynamics_s": total("dynamics.update_trust", "dynamics.discernment",
                            "dynamics.believe_disinformation"),
        "evaluator.calls.interest_community": tracer.counters.get("evaluator.calls.interest_community", 0),
        "evaluator.calls.trust_threshold": tracer.counters.get("evaluator.calls.trust_threshold", 0),
        "evaluator.calls.plausibility": tracer.counters.get("evaluator.calls.plausibility", 0),
        "evaluator.calls.persuasiveness": tracer.counters.get("evaluator.calls.persuasiveness", 0),
        "evaluator.evaluate_s": total("evaluator.evaluate"),
        "evaluator.failures": tracer.counters.get("evaluator.failures", 0),
        "attributes.derive_profiles_s": (tracer.self_s.get("attributes.derive_profiles", 0.0)
                                         if "attributes.derive_profiles" in installed else None),
        "network.build_s": total("network.build"),
        "network.edges": traced.fingerprint.get("edges"),
        "network.assign_s": total("network.assign"),
        "network.export_s": total("network.export"),
        "network.neighbors.calls": calls("network.neighbors"),
        "powerlaw.fit_s": total("powerlaw.fit"),
        "powerlaw.fit.samples": tracer.counters.get("powerlaw.fit.samples", 0),
        "scenario.load_s": total("scenario.load"),
        "scenario.digest.calls": calls("scenario.digest"),
        "scenario.digest_s": total("scenario.digest"),
        "report.serialize_s": total("report.serialize"),
        "report.compare_s": total("report.compare"),
        "report.bytes": traced.report_bytes,
        "cli.write_s": total("cli.write"),
        "cli.self_s": tracer.self_s.get("cli.main", 0.0),
        "failed_ratio": failed / attempted,
        "trace.overhead_s": seconds(traced) - seconds(untraced),
        "trace.unattributed_s": tracer.self_s.get("job", 0.0),
    }


def agent_steps_rate(job) -> float:
    """Agent-steps per normalized second of the engine-run phases."""
    run_s = seconds(job, "run")
    return job.agent_steps / run_s if run_s else 0.0


def span_table(tracer) -> list:
    rows = [
        {"span": name, "calls": tracer.calls[name],
         "total_s": round(tracer.total_s[name], 6), "self_s": round(tracer.self_s[name], 6)}
        for name in tracer.calls
    ]
    return sorted(rows, key=lambda row: -row["self_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    madd = import_madd()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    checks = Checks()
    details = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "provenance": provenance(madd, workload, args.seed)}
    try:
        scenario_path = workload.generate(args.seed, workdir)
        gc.collect()
        if args.trace:
            untraced, traced, tracer = traced_job(workload, scenario_path, workdir, args.seed, checks)
            jobs = [untraced, traced]
            values = layer_metrics(tracer, untraced, traced)
            tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
            details["spans"] = span_table(tracer)
            details["engine_self_s"] = dict(sorted(tracer.engine_self_s.items()))
            details["missing_targets"] = tracer.missing
            # span times are raw; scale them by the traced job's own speed
            scale = seconds(traced) / (seconds(traced, normalized=False) - sampled(traced))
            details["coverage_s"] = {
                "layer_self_sum": scale * sum(v for k, v in tracer.self_s.items() if k != "job"),
                "unattributed": scale * tracer.self_s.get("job", 0.0),
                "traced_job": seconds(traced),
                "untraced_job": seconds(untraced),
            }
        else:
            jobs = timed_jobs(workload, scenario_path, workdir, args.seed, args.seconds, checks)
            values = {
                "wall_s": statistics.median(seconds(j) for j in jobs),
                "setup_s": statistics.median(seconds(j, "setup") for j in jobs),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = failure_counts(jobs)
    absent = sorted(name for name, value in values.items() if value is None)
    unproduced = sorted({m["name"] for m in declared} - set(values))
    undeclared = sorted(set(values) - set(units))
    if unproduced or undeclared:
        raise SystemExit(f"perfbench: BENCHMARK.json and the code disagree: declared but not "
                         f"produced {unproduced}, produced but not declared {undeclared}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if values[m["name"]] is not None
    }

    first = jobs[0]
    details.update({
        "repetitions": [{"wall_s": seconds(j), "setup_s": seconds(j, "setup"),
                         "raw_wall_s": seconds(j, normalized=False),
                         "raw_setup_s": seconds(j, "setup", normalized=False),
                         "agent_steps": j.agent_steps,
                         "phases": j.phases} for j in jobs],
        "counters": {"job": first.fingerprint,
                     "runs": {run.key: run.fingerprint for run in first.runs}},
        # report digest per run; the manifest digest for the network export
        "output_sha256": {run.key: run.fingerprint.get("sha256", run.fingerprint.get("manifest_sha256"))
                          for run in first.runs},
        "checks": {name: {"passed": p, "failed": f} for name, (p, f) in checks.tally.items()},
        "check_failures": checks.details,
        "absent_metrics": absent,
        "all_metrics": {name: {"value": value, "unit": units.get(name)}
                        for name, value in values.items() if value is not None},
    })
    effect = paired_effect(first)
    if effect:
        details["effect_early_fact_minus_control"] = effect
    (OUT_DIR / f"details-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print_summary(details, values, units, jobs, attempted, failed, args)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


def paired_effect(job) -> dict | None:
    """Per run seed: early_fact minus control final infected ratio in the topic."""
    final = {}
    for run in job.runs:
        if run.fingerprint.get("final_ir") is not None:
            final.setdefault(run.seed, {})[run.arm] = run.fingerprint["final_ir"]
    deltas = {seed: arms["early_fact"] - arms["control"]
              for seed, arms in final.items() if {"early_fact", "control"} <= set(arms)}
    if not deltas:
        return None
    return {
        "per_seed": deltas,
        "negative": sum(1 for d in deltas.values() if d < 0),
        "zero": sum(1 for d in deltas.values() if d == 0),
        "positive": sum(1 for d in deltas.values() if d > 0),
    }


def print_summary(details, values, units, jobs, attempted, failed, args) -> None:
    out = sys.stdout
    mode = "traced" if args.trace else "untraced"
    out.write(f"# perfbench {details['workload']} seed {args.seed}: {len(jobs)} {mode} "
              f"jobs, {attempted} runs\n")
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g} {units[name]}"
        out.write(f"metric {name} = {shown}\n")
    if not args.trace:
        raw_wall = statistics.median(seconds(j, normalized=False) for j in jobs)
        raw_setup = statistics.median(seconds(j, "setup", normalized=False) for j in jobs)
        out.write(f"info raw_wall_s = {raw_wall:.6g} s, raw_setup_s = {raw_setup:.6g} s "
                  f"(unscaled medians)\n")
        out.write(f"info agent_steps_per_s = "
                  f"{statistics.median(agent_steps_rate(j) for j in jobs):.6g} 1/s\n")
        out.write(f"info failed_ratio = {failed / attempted:.6g} ratio\n")
    for name, entry in details["checks"].items():
        status = "pass" if entry["failed"] == 0 else "FAIL"
        out.write(f"check {name}: {status} ({entry['passed']} passed, {entry['failed']} failed)\n")
    for line in details["check_failures"]:
        out.write(f"check-failure {line}\n")
    for key, digest in details["output_sha256"].items():
        out.write(f"output-sha256 {key} {digest}\n")
    effect = details.get("effect_early_fact_minus_control")
    if effect:
        out.write(f"effect early_fact - control final IR: {effect['per_seed']} "
                  f"(negative {effect['negative']}, zero {effect['zero']}, "
                  f"positive {effect['positive']})\n")
    if args.trace:
        cover = details["coverage_s"]
        out.write(f"info coverage: layer self times {cover['layer_self_sum']:.4f} s + "
                  f"unattributed {cover['unattributed']:.4f} s = traced job "
                  f"{cover['traced_job']:.4f} s; untraced job {cover['untraced_job']:.4f} s "
                  f"(all speed-normalized)\n")
        for row in details["spans"]:
            out.write(f"span {row['span']}: calls {row['calls']}, total {row['total_s']:.4f} s, "
                      f"self {row['self_s']:.4f} s\n")
    out.write(f"provenance {json.dumps(details['provenance'], sort_keys=True)}\n")


if __name__ == "__main__":
    sys.exit(main())
