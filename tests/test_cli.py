import codecs
import contextlib
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import madd
from madd import cli as cli_module
from madd.cli import main
from madd.content import ContentItem
from madd.errors import EvaluatorFailure
from madd.evaluator import EvaluatorConfig, RemoteEvaluator, SyntheticEvaluator, load_template
from madd.scenario import SimulationParams, UserRecord, save_scenario
from madd.synthdata import DEFAULT_COMMUNITIES, build_synthetic_scenario
from madd.synthdata import main as synthdata_main


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scen") / "scenario.json"
    scenario = build_synthetic_scenario(
        n_users=140, communities=("alpha", "beta"), seed=3, total_steps=24
    )
    save_scenario(scenario, path)
    return path


def test_defaults_subcommand_prints_reference_values(capsys):
    assert main(["defaults"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta"] == 0.5
    assert payload["gamma"] == 0.5
    assert payload["beta"] == 0.5
    assert payload["delta"] == 0.5
    assert payload["tau"] == 8.0
    assert payload["m0"] == 5
    assert payload["total_steps"] == 72
    assert payload["malicious_ratio"] == 0.15
    assert payload["legitimate_ratio"] == 0.05
    assert payload["malicious_freq_range"] == [1, 18]
    assert payload["legitimate_freq_range"] == [1, 12]
    assert payload["intervention_windows"] == {
        "early": [12, 72],
        "mid": [36, 72],
        "late": [48, 72],
    }


def test_print_defaults_flag(capsys):
    # `madd defaults` is the one way to print them
    assert main(["--print-defaults"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--print-defaults" in captured.err


def test_validate_ok(scenario_path, capsys):
    assert main(["validate", "--scenario", str(scenario_path)]) == 0
    assert capsys.readouterr().out.startswith("OK")


@pytest.fixture(scope="module")
def small_community_path(tmp_path_factory):
    """60 users at seed 6 clear the share-count pre-flight, and m0 = 61 is
    above the whole population, so every community is below m0 however
    the users are scored: the first configured one is reported."""
    path = tmp_path_factory.mktemp("small") / "scenario.json"
    save_scenario(build_synthetic_scenario(n_users=60, seed=6, m0=61), path)
    return path


TOO_SMALL = re.compile(
    rf"error: community '{DEFAULT_COMMUNITIES[0]}' has \d+ members, fewer than m0 = 61\n"
)


def test_validate_rejects_community_below_m0(small_community_path, capsys):
    assert main(["validate", "--scenario", str(small_community_path)]) == 1
    assert TOO_SMALL.fullmatch(capsys.readouterr().err)


def test_network_on_community_below_m0_exits_1(small_community_path, tmp_path, capsys):
    out = tmp_path / "net"
    assert main(["network", "--scenario", str(small_community_path), "--out", str(out)]) == 1
    assert TOO_SMALL.fullmatch(capsys.readouterr().err)
    assert not out.exists()


def _without(scenario_path, tmp_path, drop) -> str:
    """The scenario at ``scenario_path`` minus the catalog items ``drop`` picks."""
    data = json.loads(scenario_path.read_text())
    data["content_catalog"] = [c for c in data["content_catalog"] if not drop(c)]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


def _is_claim(item) -> bool:
    return item["kind"] == "disinformation"


def test_validate_rejects_catalog_without_disinformation(scenario_path, tmp_path, capsys):
    path = _without(scenario_path, tmp_path, _is_claim)
    assert main(["validate", "--scenario", path]) == 1
    assert capsys.readouterr().err == "error: content catalog holds no disinformation item\n"


def test_run_without_disinformation_exits_1_and_writes_nothing(
    scenario_path, tmp_path, capsys
):
    path, out = _without(scenario_path, tmp_path, _is_claim), tmp_path / "run"
    assert main(["run", "--scenario", path, "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: content catalog holds no disinformation item\n"
    assert not out.exists()


def test_experiment_without_correction_exits_1_and_writes_nothing(
    scenario_path, tmp_path, capsys
):
    path = _without(scenario_path, tmp_path, lambda c: c["strategy"] == "narrative_based")
    out = tmp_path / "exp"
    argv = ["experiment", "--scenario", path, "--seed", "1", "--stage", "early", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: no narrative_based correction")
    assert not out.exists()


@pytest.fixture(scope="module")
def short_window_path(tmp_path_factory):
    """A late window of 3 steps under a legitimate minimum of 10 activations."""
    data = build_synthetic_scenario(n_users=200, seed=7).to_dict()
    data["params"]["legitimate_freq_range"] = [10, 12]
    data["params"]["intervention_windows"]["late"] = [70, 72]
    path = tmp_path_factory.mktemp("window") / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


SHORT_WINDOW = (
    "error: params.intervention_windows[late] = (70, 72) violates "
    "at least legitimate_freq_range[0] = 10 steps\n"
)


def test_validate_rejects_window_below_legitimate_minimum(short_window_path, capsys):
    assert main(["validate", "--scenario", short_window_path]) == 1
    assert capsys.readouterr().err == SHORT_WINDOW


@pytest.mark.parametrize("command", ["run", "experiment"])
def test_short_window_exits_1_and_writes_nothing(short_window_path, tmp_path, capsys, command):
    out = tmp_path / command
    argv = [command, "--scenario", short_window_path, "--seed", "1", "--stage", "late",
            "--strategy", "fact", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == SHORT_WINDOW
    assert not out.exists()


def test_validate_remote_backend_skips_community_sizes(tmp_path, capsys):
    scenario = build_synthetic_scenario(n_users=60, seed=6)
    remote = replace(
        scenario.evaluator_config, backend="remote", endpoint="http://localhost:9/v1"
    )
    path = tmp_path / "remote.json"
    save_scenario(replace(scenario, evaluator_config=remote), path)
    assert main(["validate", "--scenario", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("OK")
    assert "community sizes not checked" in captured.err
    # without an endpoint the run's evaluator cannot be built
    save_scenario(replace(scenario, evaluator_config=replace(remote, endpoint="")), path)
    assert main(["validate", "--scenario", str(path)]) == 1
    assert "requires an endpoint" in capsys.readouterr().err


def test_synthdata_main_defaults_are_the_builders(tmp_path):
    out = tmp_path / "cli.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert synthdata_main(["--out", str(out)]) == 0
    reference = tmp_path / "reference.json"
    save_scenario(build_synthetic_scenario(), reference)
    assert out.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("users", ["-5", "0"])
def test_synthdata_rejects_users_below_one(tmp_path, capsys, users):
    out = tmp_path / "cli.json"
    with pytest.raises(SystemExit) as exit_info:
        synthdata_main(["--users", users, "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"error: argument --users: users = {users} violates >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_synthdata_reports_a_parameter_error_in_one_line(tmp_path, capsys):
    out = tmp_path / "cli.json"
    assert synthdata_main(["--total-steps", "0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: total_steps = 0 violates >= 1\n"
    assert captured.out == ""
    assert not out.exists()


def test_synthdata_rejects_a_community_name_with_a_comma(tmp_path, capsys):
    out = tmp_path / "cli.json"
    assert synthdata_main(["--communities", "a,b", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: communities = 'a,b' violates a name free of tabs, line breaks, ',' and '\"'\n")
    assert not out.exists()


def test_validate_reports_violations(tmp_path, capsys):
    scenario = build_synthetic_scenario(n_users=60, communities=("alpha",), seed=3)
    data = scenario.to_dict()
    data["params"]["gamma"] = 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(path)]) == 1


def _few_sharers():
    """30 users in one community: 26 of them shared, with 13 distinct counts."""
    return build_synthetic_scenario(n_users=30, communities=("politics",), seed=3)


def _equal_share_counts():
    scenario = build_synthetic_scenario(n_users=60, communities=("politics",), seed=3)
    users = tuple(replace(u, retweet_count=4, quote_count=0) for u in scenario.users)
    return replace(scenario, users=users)


def _without_claim():
    scenario = build_synthetic_scenario(n_users=60, seed=6)
    catalog = tuple(c for c in scenario.content_catalog if c.kind != "disinformation")
    return replace(scenario, content_catalog=catalog)


def _remote_without_endpoint():
    scenario = build_synthetic_scenario(n_users=60, seed=6)
    remote = replace(scenario.evaluator_config, backend="remote", endpoint="")
    return replace(scenario, evaluator_config=remote)


FIT_NEEDS = (
    "error: the share-count fit needs >= 50 users who shared, with >= 10 distinct counts; "
)


@pytest.mark.parametrize(
    "build, expected",
    [
        (_few_sharers, re.escape(f"{FIT_NEEDS}got 29 users / 13 distinct\n")),
        (_equal_share_counts, re.escape(f"{FIT_NEEDS}got 60 users / 1 distinct\n")),
        (lambda: build_synthetic_scenario(n_users=60, seed=6, m0=61), TOO_SMALL.pattern),
        (_without_claim, "error: content catalog holds no disinformation item\n"),
        (_remote_without_endpoint, "error: remote backend requires an endpoint URL\n"),
    ],
    ids=["too-few-sharers", "equal-share-counts", "community-below-m0", "no-claim",
         "remote-without-endpoint"],
)
def test_validate_agrees_with_run_on_malformed_scenario(tmp_path, capsys, build, expected):
    """`validate`, `run` and `experiment` walk one setup path: on a scenario
    that cannot run, all three exit 1 with the same `error:` line, and
    none creates its --out."""
    path = tmp_path / "scenario.json"
    save_scenario(build(), path)
    common = ["--scenario", str(path), "--seed", "3"]
    outs = {"run": tmp_path / "run", "experiment": tmp_path / "exp"}
    results = []
    for argv in (
        ["validate", *common],
        ["run", *common, "--out", str(outs["run"])],
        ["experiment", *common, "--stage", "early", "--out", str(outs["experiment"])],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results == [(1, "", results[0][2])] * 3
    assert re.fullmatch(expected, results[0][2])
    assert not any(out.exists() for out in outs.values())


def test_remote_run_without_enough_sharers_makes_no_evaluator_call(
    tmp_path, monkeypatch, capsys
):
    """The share-count fit reads the users before any profile is scored."""
    scenario = _few_sharers()
    remote = replace(scenario.evaluator_config, endpoint="http://127.0.0.1:9/v1")
    path = tmp_path / "scenario.json"
    save_scenario(replace(scenario, evaluator_config=remote), path)
    posts = []
    monkeypatch.setattr(RemoteEvaluator, "_post", lambda self, prompt: posts.append(prompt))
    out = tmp_path / "run"
    argv = ["run", "--backend", "remote", "--scenario", str(path), "--seed", "3",
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: the share-count fit needs")
    assert len(posts) == 0
    assert not out.exists()


def test_missing_scenario_file_is_validation_failure(tmp_path):
    assert main(["validate", "--scenario", str(tmp_path / "absent.json")]) == 1


def test_bad_arguments_do_not_crash():
    assert main(["run", "--scenario"]) == 1
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("cadence", ["0", "-5"])
def test_record_cadence_below_one_exits_1(scenario_path, tmp_path, capsys, cadence):
    out = tmp_path / "run"
    args = ["--scenario", str(scenario_path), "--seed", "13", "--out", str(out)]
    assert main(["run", *args, "--record-cadence", cadence]) == 1
    assert main(["experiment", *args, "--stage", "early", "--record-cadence", cadence]) == 1
    assert "record_cadence" in capsys.readouterr().err
    assert not out.exists()


class _FailsPersuasiveness(SyntheticEvaluator):
    def evaluate(self, request):
        if request.kind == "persuasiveness":
            raise EvaluatorFailure("backend down")
        return super().evaluate(request)


@pytest.mark.parametrize("command", ["run", "experiment"])
def test_incomplete_run_writes_artifacts_then_exits_2(
    scenario_path, tmp_path, monkeypatch, capsys, command
):
    monkeypatch.setattr(
        "madd.cli.make_evaluator",
        lambda config, seed: _FailsPersuasiveness(seed=seed),
    )
    out = tmp_path / command
    args = [command, "--scenario", str(scenario_path), "--seed", "13", "--out", str(out)]
    if command == "experiment":
        args += ["--stage", "early"]
    assert main(args) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert all((out / relpath).exists() for relpath in manifest["files"])
    reports = [
        json.loads((out / relpath).read_text())
        for relpath in manifest["files"]
        if relpath.endswith("report.json")
    ]
    assert len(reports) == (1 if command == "run" else 3)
    assert all(report["complete"] is False for report in reports)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "runtime error: evaluator failed mid-run, incomplete arm(s): control" in captured.err


def _remote_scenario(scenario_path, tmp_path) -> Path:
    data = json.loads(scenario_path.read_text())
    data["evaluator"]["endpoint"] = "http://localhost:9/v1"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def test_remote_network_posts_one_interest_prompt_per_user(
    scenario_path, tmp_path, monkeypatch, capsys
):
    """`madd network` asks no trust question: the network reads none."""
    path = _remote_scenario(scenario_path, tmp_path)
    content = {
        "Interest Community Scores": [{"Community": c, "Score": 9} for c in ("alpha", "beta")],
    }
    body = {"choices": [{"message": {"content": json.dumps(content)}}]}
    posts = []
    monkeypatch.setattr(
        RemoteEvaluator, "_post", lambda self, prompt: posts.append(prompt) or body
    )
    argv = ["network", "--backend", "remote", "--scenario", str(path),
            "--out", str(tmp_path / "net")]
    assert main(argv) == 0
    capsys.readouterr()
    interest = load_template("interest_community").partition("{")[0]
    assert len(posts) == len(json.loads(path.read_text())["users"])
    assert all(prompt.startswith(interest) for prompt in posts)


def test_remote_boolean_score_leaves_run_incomplete(scenario_path, tmp_path, monkeypatch, capsys):
    """A boolean score is malformed: retried once, then the run stops
    incomplete and exits 2, with its report and manifest written."""
    path = _remote_scenario(scenario_path, tmp_path)
    content = {
        "Interest Community Scores": [{"Community": c, "Score": 9} for c in ("alpha", "beta")],
        "Trust Threshold Scores": [{"Community": c, "Score": 0.5} for c in ("alpha", "beta")],
        "PlausibilityScore": 0.7,
        "Score": True,
    }
    body = {"choices": [{"message": {"content": json.dumps(content)}}]}
    monkeypatch.setattr(RemoteEvaluator, "_post", lambda self, prompt: body)
    out = tmp_path / "run"
    args = ["run", "--backend", "remote", "--scenario", str(path), "--seed", "13"]
    assert main([*args, "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == {"report.json", "report.csv"}
    assert json.loads((out / "report.json").read_text())["complete"] is False
    assert "incomplete arm(s): control" in capsys.readouterr().err


def test_remote_malformed_usage_is_estimated(scenario_path, tmp_path, monkeypatch):
    """A usage count that is not an integer is no count: the run completes
    and its ledger is marked approximate."""
    path = _remote_scenario(scenario_path, tmp_path)
    content = {
        "Interest Community Scores": [{"Community": c, "Score": 9} for c in ("alpha", "beta")],
        "Trust Threshold Scores": [{"Community": c, "Score": 0.5} for c in ("alpha", "beta")],
        "PlausibilityScore": 0.7,
        "Score": 0.5,
    }
    body = {
        "choices": [{"message": {"content": json.dumps(content)}}],
        "usage": {"prompt_tokens": "n/a", "completion_tokens": 20},
    }
    monkeypatch.setattr(RemoteEvaluator, "_post", lambda self, prompt: body)
    out = tmp_path / "run"
    args = ["run", "--backend", "remote", "--scenario", str(path), "--seed", "13"]
    assert main([*args, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["resource_ledger"]["approximate"] is True


def _refused(self, prompt):
    raise ConnectionError("refused")


@pytest.mark.parametrize(
    "post, reason",
    [
        (_refused, "remote evaluator failed after retry: refused"),
        (lambda self, prompt: {"choices": [{"message": {"content": "Score: 9"}}]},
         "reply is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["refused", "reply-not-json"],
)
def test_remote_failure_during_setup_exits_2_and_writes_nothing(
    scenario_path, tmp_path, monkeypatch, capsys, post, reason
):
    monkeypatch.setattr(RemoteEvaluator, "_post", post)
    out = tmp_path / "profiles"
    argv = ["profiles", "--backend", "remote", "--scenario",
            str(_remote_scenario(scenario_path, tmp_path)), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"runtime error: scoring interest_community for user 'user_00000': {reason}\n")
    assert not out.exists()


def test_unexpected_exception_exits_2(scenario_path, tmp_path, monkeypatch, capsys):
    def broken(scenario, evaluator):
        raise RuntimeError("scorer broke")

    monkeypatch.setattr("madd.cli.derive_profiles", broken)
    out = tmp_path / "profiles"
    assert main(["profiles", "--scenario", str(scenario_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "unexpected error: RuntimeError: scorer broke\n"
    assert not out.exists()


def test_strategy_without_stage_is_a_usage_error(scenario_path, tmp_path, capsys):
    out = tmp_path / "run"
    args = ["run", "--scenario", str(scenario_path), "--seed", "13", "--strategy", "fact",
            "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: --strategy requires --stage\n"
    assert not out.exists()


def test_stage_without_strategy_is_a_usage_error(scenario_path, tmp_path, capsys):
    """A stage alone used to run, and report, a control plan."""
    out = tmp_path / "run"
    args = ["run", "--scenario", str(scenario_path), "--seed", "13", "--stage", "late",
            "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: --stage requires --strategy\n"
    assert not out.exists()


def test_run_writes_report_and_manifest(scenario_path, tmp_path, capsys):
    out = tmp_path / "run1"
    code = main(
        [
            "run",
            "--scenario", str(scenario_path),
            "--seed", "13",
            "--out", str(out),
            "--record-cadence", "8",
            "--dump-profiles",
            "--dump-network",
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 13
    for relpath, digest in manifest["files"].items():
        assert (out / relpath).exists()
    assert set(manifest["files"]) == {
        "report.json",
        "report.csv",
        "profiles.json",
        "edges.txt",
        "network.json",
    }
    report = json.loads((out / "report.json").read_text())
    assert report["complete"] is True


def test_run_determinism_manifests_match(scenario_path, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(
            ["run", "--scenario", str(scenario_path), "--seed", "42", "--out", str(out)]
        ) == 0
        outs.append((out / "manifest.json").read_text())
    assert outs[0] == outs[1]


def test_run_topic_and_trajectories(tmp_path):
    """--topic picks a claim other than the catalog's first, and --trajectories
    records every regular agent (each user) at every step."""
    scenario = build_synthetic_scenario(
        n_users=140, communities=("alpha", "politics"), seed=3, total_steps=24
    )
    path, out = tmp_path / "scenario.json", tmp_path / "run"
    save_scenario(scenario, path)
    argv = ["run", "--scenario", str(path), "--seed", "5", "--out", str(out),
            "--topic", "politics", "--trajectories", "--record-cadence", "1"]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["topic"] == "politics" != scenario.disinformation_for(None).topic
    assert sorted(report["trajectories"]) == sorted(u.user_id for u in scenario.users)
    rows = {len(series) for series in report["trajectories"].values()}
    assert rows == {scenario.params.total_steps + 1}


def test_run_topic_without_claim_exits_1_and_writes_nothing(scenario_path, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["run", "--scenario", str(scenario_path), "--seed", "5", "--out", str(out),
            "--topic", "politics"]
    assert main(argv) == 1
    assert "unknown community 'politics'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_exits_1_and_writes_nothing(scenario_path, tmp_path, capsys, seed):
    out = tmp_path / "run"
    argv = ["run", "--scenario", str(scenario_path), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: rng_seed = {seed} violates within [0, 2**64)\n"
    assert not out.exists()


def test_largest_seed_runs(scenario_path, tmp_path):
    out = tmp_path / "run"
    seed = 2**64 - 1
    argv = ["run", "--scenario", str(scenario_path), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == seed


_OUT_COMMANDS = {
    "profiles": [],
    "network": [],
    "run": ["--seed", "1"],
    "experiment": ["--seed", "1", "--stage", "early"],
}


@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_out_at_or_under_a_file_exits_1_before_setup(
    scenario_path, tmp_path, monkeypatch, capsys, command, under
):
    """An --out that is an existing file, or lies under one, fails before the
    scenario is loaded: exit 1, no evaluator made and nothing created."""
    blocker = tmp_path / "blocker.json"
    blocker.write_text("{}")
    out = blocker / "sub" / "dir" if under else blocker
    calls = []
    monkeypatch.setattr(cli_module, "load_scenario", lambda *a: calls.append("load"))
    monkeypatch.setattr(cli_module, "make_evaluator", lambda *a: calls.append("evaluator"))
    argv = [command, "--scenario", str(scenario_path), *_OUT_COMMANDS[command], "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: --out {out}: {blocker} exists and is not a directory\n"
    )
    assert calls == []
    assert blocker.read_text() == "{}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker.json"]


def test_run_seed_required(scenario_path, tmp_path):
    assert main(["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "x")]) == 1


def test_experiment_produces_three_runs_and_comparison(scenario_path, tmp_path):
    out = tmp_path / "exp"
    code = main(
        [
            "experiment",
            "--scenario", str(scenario_path),
            "--seed", "13",
            "--stage", "early",
            "--out", str(out),
        ]
    )
    assert code == 0
    for sub in ("control", "fact_based", "narrative_based"):
        assert (out / sub / "report.json").exists()
        assert (out / sub / "report.csv").exists()
    comparison = json.loads((out / "comparison.json").read_text())
    assert set(comparison["final_step_deltas"]) == {
        "early:fact_based",
        "early:narrative_based",
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert "comparison.json" in manifest["files"]


def test_network_subcommand(scenario_path, tmp_path, capsys):
    out = tmp_path / "net"
    assert main(["network", "--scenario", str(scenario_path), "--out", str(out)]) == 0
    edges = (out / "edges.txt").read_text().strip().splitlines()
    payload = json.loads((out / "network.json").read_text())
    assert len(edges) == len(payload["edges"])
    assert all(len(line.split("\t")) == 2 for line in edges)


def test_profiles_subcommand(scenario_path, tmp_path):
    out = tmp_path / "prof"
    assert main(["profiles", "--scenario", str(scenario_path), "--out", str(out)]) == 0
    payload = json.loads((out / "profiles.json").read_text())
    kinds = {p["kind"] for p in payload}
    assert kinds == {"regular", "malicious_bot", "legitimate_bot"}


# Runs in a fresh interpreter, since this process already holds scipy: prints, as
# one JSON line, each command's exit code and the scipy modules loaded after it.
# Given "block", it first makes every scipy import fail.
_SCIPY_PROBE = """
import contextlib, io, json, sys

scenario, out, mode = sys.argv[1:]
if mode == "block":
    sys.modules["scipy"] = None

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded, codes = {}, {}
import madd.engine, madd.network, madd.attributes, madd.powerlaw
loaded["import"] = scipy_modules()
from madd.cli import main
loaded["import madd.cli"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["network", "--scenario", scenario, "--out", out + "/network"],
                 ["profiles", "--scenario", scenario, "--out", out + "/profiles"],
                 ["defaults"],
                 ["validate", "--scenario", scenario],
                 ["run", "--scenario", scenario, "--seed", "3", "--out", out + "/run"],
                 ["experiment", "--scenario", scenario, "--seed", "3", "--stage", "early",
                  "--out", out + "/experiment"]):
        codes[argv[0]] = main(argv)
        loaded[argv[0]] = scipy_modules()
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def run_scipy_probe(scenario_path, out, mode):
    src = str(Path(madd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(scenario_path), str(out), mode],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
        check=True,
    )
    return json.loads(done.stdout)


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_no_command_loads_scipy(scenario_path, tmp_path):
    """No command imports scipy, and with every scipy import failing each one
    exits 0 and writes the same bytes."""
    free = run_scipy_probe(scenario_path, tmp_path / "free", "free")
    blocked = run_scipy_probe(scenario_path, tmp_path / "blocked", "block")
    commands = ["network", "profiles", "defaults", "validate", "run", "experiment"]
    assert list(free["loaded"]) == ["import", "import madd.cli", *commands]
    assert not [m for ms in free["loaded"].values() for m in ms]
    assert free["codes"] == blocked["codes"] == dict.fromkeys(commands, 0)
    written = tree_bytes(tmp_path / "free")
    assert {name.split("/")[0] for name in written} == {"network", "profiles", "run", "experiment"}
    assert tree_bytes(tmp_path / "blocked") == written


# -- malformed input: validation failures exit 1, never "unexpected error" ---

DELETE = object()


@lru_cache(maxsize=1)
def _valid_scenario_json() -> str:
    scenario = build_synthetic_scenario(n_users=60, communities=("alpha",), seed=3)
    return json.dumps(scenario.to_dict())


def _replaced(path: tuple, value) -> dict:
    """A valid scenario dict with the entry at ``path`` set to ``value``
    (or removed, for DELETE)."""
    data = json.loads(_valid_scenario_json())
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return data


def _validate(data: dict) -> tuple:
    """(exit code, stderr) of ``madd validate`` on ``data``."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", "--scenario", str(path)])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "path, value",
    [
        (("evaluator",), {"bogus": 1}),
        # a file saved before the synthetic distributions became constants
        (("evaluator", "synthetic"), {}),
        (("evaluator", "timeout"), "x"),
        (("params", "theta"), "x"),
        (("params", "intervention_windows"), [1, 2]),
        (("users", 0, "follower_count"), "many"),
        (("users", 0, "activity_histogram"), "abc"),
        (("users", 0, "follower_count"), 12.7),
        (("users", 0, "retweet_count"), True),
        (("users", 0, "activity_histogram"), [2.5] * 24),
        (("users",), 5),
        (("content_catalog", 0, "content_id"), DELETE),
        (("params", "total_steps"), 72.0),
        (("content_catalog", 0, "content_id"), [1]),
        (("content_catalog", 0, "text"), 5),
        (("content_catalog", 0, "topic"), 5),
        (("content_catalog", 0, "kind"), ["disinformation"]),
        (("content_catalog", 0, "strategy"), None),
        (("content_catalog", 0, "plausibility"), True),
        (("evaluator", "max_in_flight"), 0),
        (("evaluator", "timeout"), 0),
        (("params", "xi"), float("inf")),
        (("users", 0, "historical_texts"), {"ab": 1}),
        (("users", 0, "historical_texts"), ["ok"]),
        # a file saved before repost_probability was removed
        (("params", "repost_probability"), 0.7),
        # two items under one id: the catalog's correction renamed after its claim
        (("content_catalog", 1, "content_id"), "disinfo_alpha"),
        # user strings are taken as given, never str() of another JSON value
        (("users", 0, "user_id"), None),
        (("users", 0, "user_id"), True),
        (("users", 0, "user_id"), 1.5e18),
        (("users", 0, "description"), None),
        (("users", 0, "historical_texts"), [[1, None]]),
        # a misspelt key is an error, not a silent default
        (("users", 0, "retweets_count"), 522),
        # a share total the share-count fit cannot hold in int64
        (("users", 0, "retweet_count"), 2**63),
        # the id derive_profiles gives alpha's first malicious bot
        (("users", 0, "user_id"), "mbot_alpha_000"),
        # edges.txt writes ids unquoted, tab-separated, one edge a line
        (("users", 0, "user_id"), "user\t00000"),
        (("users", 0, "user_id"), "user\n00000"),
    ],
    ids=[
        "evaluator-unknown-key", "synthetic-removed", "evaluator-timeout-string",
        "theta-string", "windows-list", "follower-count-word", "histogram-string",
        "follower-count-fraction", "retweet-count-bool", "histogram-fractions",
        "users-number", "item-without-id", "total-steps-float",
        "item-id-list", "item-text-number", "item-topic-number", "item-kind-list",
        "item-strategy-null", "item-plausibility-bool", "max-in-flight-zero",
        "timeout-zero", "xi-infinity", "history-object", "history-string-item",
        "repost-probability-removed",
        "duplicate-content-id",
        "user-id-null", "user-id-bool", "user-id-float", "description-null",
        "history-non-string-pair", "user-unknown-key", "share-total-past-int64",
        "user-id-of-a-bot", "user-id-tab", "user-id-newline",
    ],
)
def test_malformed_input_exits_1(path, value):
    code, err = _validate(_replaced(path, value))
    assert code == 1, err
    assert err.startswith("error:") and "unexpected error" not in err


@pytest.mark.parametrize(
    "path, value, line",
    [
        (("users", 0, "activity_histogram"), [1] * 23 + [2.5],
         f"activity_histogram(user_00000) = {[1] * 23 + [2.5]} violates a list of integer counts"),
        (("users", 0, "retweet_count"), True, "retweet_count(user_00000) = True violates an integer"),
        (("users", 0, "quote_count"), -3, "quote_count(user_00000) = -3 violates >= 0"),
        (("users", 0, "activity_histogram"), [1] * 23,
         "activity_histogram(user_00000) = 23 violates exactly 24 buckets"),
        (("users", 0, "activity_histogram"), [-1] + [1] * 23,
         f"activity_histogram(user_00000) = {(-1,) + (1,) * 23} violates counts >= 0"),
        (("users", 0, "historical_texts"), 0,
         "historical_texts(user_00000) = 0 violates a list of [kind, text] pairs"),
        (("users", 0, "retweet_count"), 2**63,
         # user_00000 quotes nothing
         f"retweet_count+quote_count(user_00000) = {2**63} violates < 2**63"),
    ],
    ids=["histogram-cell-fraction", "count-bool", "count-negative", "histogram-23-cells",
         "histogram-cell-negative", "history-zero", "share-total-past-int64"],
)
def test_user_record_error_line_pinned(path, value, line):
    assert _validate(_replaced(path, value)) == (1, f"error: {line}\n")


def test_community_name_with_a_comma_exits_1_and_writes_nothing(tmp_path, capsys):
    """report.csv writes community names unquoted: 'al,pha' would split its rows."""
    data = _replaced(("communities",), ["al,pha"])
    for item in data["content_catalog"]:
        item["topic"] = "al,pha"
    line = "error: communities = 'al,pha' violates a name free of tabs, line breaks, ',' and '\"'\n"
    assert _validate(data) == (1, line)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(path), "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == line
    assert not out.exists()


@pytest.mark.parametrize(
    "data, line",
    [
        ([1, 2], "scenario = [1, 2] violates a JSON object"),
        (_replaced(("communities",), DELETE), "missing required field 'communities' in scenario"),
        (_replaced(("communities",), "alpha"),
         "communities = 'alpha' violates a JSON array of names"),
        (_replaced(("communities",), ["alpha", 3]),
         "communities = ['alpha', 3] violates a JSON array of names"),
        (_replaced(("users", 0), 5), "user record = 5 violates a JSON object"),
        (_replaced(("users", 0, "user_id"), DELETE),
         "missing required field 'user_id' in user record"),
        (_replaced(("users", 0, "follower_count"), DELETE),
         "missing required field 'follower_count' in user record 'user_00000'"),
        (_replaced(("evaluator", "backend"), "foo"), "unknown evaluator backend 'foo'"),
        # a value whose repr runs past 200 characters shows its first 200, then "..."
        (json.loads(_valid_scenario_json())["users"],
         f"scenario = {repr(json.loads(_valid_scenario_json())['users'])[:200]}... "
         "violates a JSON object"),
    ],
    ids=["top-level-array", "no-communities", "communities-string", "communities-number",
         "user-number", "user-without-id", "user-without-follower-count", "backend-unknown",
         "top-level-user-array"],
)
def test_scenario_shape_error_line_pinned(data, line):
    assert _validate(data) == (1, f"error: {line}\n")


@lru_cache(maxsize=1)
def _users_120() -> str:
    scenario = build_synthetic_scenario(n_users=120, communities=("alpha", "beta"), seed=3)
    return json.dumps(scenario.to_dict())


def _write_users_csv(path, users) -> None:
    columns = ["user_id", "follower_count", "following_count", "post_count",
               "retweet_count", "quote_count", "description", "activity_histogram"]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, columns, extrasaction="ignore")
        writer.writeheader()
        for user in users:
            cells = " ".join(map(str, user["activity_histogram"]))
            writer.writerow({**user, "activity_histogram": f"[{cells}]"})


def _unreadable_scenario(tmp_path, case) -> tuple:
    """(scenario path, its expected error line) for an input the JSON or CSV
    reader refuses, or one whose offending value is the whole file."""
    data = json.loads(_users_120())
    path = tmp_path / "scenario.json"
    if case == "communities-5000-deep":
        del data["communities"]
        path.write_text(json.dumps(data)[:-1] + ', "communities": ' + "[" * 5000 + "]" * 5000 + "}")
        return path, f"error: scenario file {path} is nested too deep for the JSON reader\n"
    if case == "csv-cell-200000-chars":
        users = data.pop("users")
        users[0]["description"] = "x" * 200_000
        data["users_file"] = "users.csv"
        _write_users_csv(tmp_path / "users.csv", users)
        path.write_text(json.dumps(data))
        return path, (f"error: users_file {tmp_path / 'users.csv'} line 2: "
                      "field larger than field limit (131072)\n")
    path.write_text(json.dumps(data["users"]))  # the user list saved as the scenario
    return path, None


@pytest.mark.parametrize(
    "args",
    [["validate"], ["profiles"], ["network"], ["run", "--seed", "1"],
     ["experiment", "--seed", "1", "--stage", "early"]],
    ids=lambda args: args[0],
)
@pytest.mark.parametrize(
    "case", ["communities-5000-deep", "csv-cell-200000-chars", "bare-user-array"]
)
def test_unreadable_scenario_exits_1_and_writes_nothing(tmp_path, capsys, args, case):
    path, line = _unreadable_scenario(tmp_path, case)
    out = tmp_path / "out"
    argv = [*args, "--scenario", str(path)] + (["--out", str(out)] if args[0] != "validate" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    if line is None:  # the value shown is cut at 200 characters of its repr
        assert err.startswith("error: scenario = [{")
        assert err.endswith("... violates a JSON object\n")
        assert len(err.encode()) <= 300
    else:
        assert err == line
    assert csv.field_size_limit() == 131072  # a process-wide setting, left as it is
    assert not out.exists()


@pytest.mark.parametrize("bom_file", ["scenario.json", "users.json", "users.csv"])
def test_byte_order_mark_validates_as_its_twin(tmp_path, capsys, bom_file):
    """A scenario or user file saved with a leading UTF-8 byte-order mark, as
    spreadsheet "CSV UTF-8" exports are, validates with its twin's digest."""
    data = json.loads(_users_120())
    if bom_file != "scenario.json":
        users = data.pop("users")
        data["users_file"] = bom_file
    outputs = []
    for name, bom in (("plain", b""), ("bom", codecs.BOM_UTF8)):
        folder = tmp_path / name
        folder.mkdir()
        if bom_file == "users.csv":
            _write_users_csv(folder / "users.csv", users)
        elif bom_file == "users.json":
            (folder / "users.json").write_text(json.dumps(users))
        (folder / "scenario.json").write_text(json.dumps(data))
        path = folder / bom_file
        path.write_bytes(bom + path.read_bytes())
        assert main(["validate", "--scenario", str(folder / "scenario.json")]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]
    assert outputs[1].out.startswith("OK: 120 users, 2 communities")


@pytest.mark.parametrize("value", ["12", 12.0])
def test_whole_count_validates_as_the_integer(value):
    """A numeric string or an integral float reads as the integer: the
    scenario digest `madd validate` prints is that of ``12``."""
    def ok_line(v):
        data = _replaced(("users", 0, "follower_count"), v)
        data["users"][0]["activity_histogram"] = [v] * 24
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(data))
            with contextlib.redirect_stdout(out):
                assert main(["validate", "--scenario", str(path)]) == 0
        return out.getvalue()

    assert ok_line(value) == ok_line(12)


def test_network_subcommand_needs_no_share_fit(tmp_path):
    """30 users have too few sharers for the power-law fit, which only the
    engine uses; building the network does not need it."""
    path = tmp_path / "scenario.json"
    save_scenario(build_synthetic_scenario(n_users=30, seed=3), path)
    out = tmp_path / "net"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["network", "--scenario", str(path), "--out", str(out)]) == 0
    assert (out / "edges.txt").read_text().strip()
    assert set(json.loads((out / "manifest.json").read_text())["files"]) == {
        "edges.txt", "network.json",
    }


def _field_paths() -> list:
    sections = {
        ("params",): SimulationParams,
        ("evaluator",): EvaluatorConfig,
        ("users", 0): UserRecord,
        ("content_catalog", 0): ContentItem,
    }
    paths = list(sections)
    for prefix, cls in sections.items():
        paths += [prefix + (f.name,) for f in fields(cls)]
    return paths


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(_field_paths()), value=JSON_VALUES)
@example(path=("users", 0, "retweet_count"), value=2**63)
@example(path=("users", 0, "user_id"), value="user\t00000")
def test_any_field_value_keeps_exit_code_contract(path, value):
    code, err = _validate(_replaced(path, value))
    assert code in (0, 1), err
    assert "unexpected error" not in err
