import copy
import hashlib
import json
import re
from dataclasses import asdict, replace

import pytest

from madd import cli
from madd.errors import (
    DuplicateUserId,
    MissingField,
    RangeViolation,
    ScenarioError,
    UnknownCommunity,
)
from madd.evaluator import EvaluatorConfig
from madd.scenario import (
    SimulationParams,
    UserRecord,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    with_seed,
)
from madd.synthdata import build_synthetic_scenario


def minimal_scenario_dict(n_users=3, **params):
    return {
        "version": 1,
        "params": params,
        "communities": ["alpha", "beta"],
        "users": [
            {
                "user_id": f"u{i}",
                "follower_count": 10 * (i + 1),
                "retweet_count": 4,
                "quote_count": 2,
                "activity_histogram": [1] * 24,
            }
            for i in range(n_users)
        ],
        "content_catalog": [
            {"content_id": "d1", "topic": "alpha", "kind": "disinformation", "text": "x"}
        ],
    }


class TestLoading:
    def test_defaults_applied_when_theta_omitted(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_scenario_dict()))
        scenario = load_scenario(path)
        assert scenario.params.theta == 0.5
        assert scenario.params.gamma == 0.5
        assert scenario.params.malicious_freq_range == (1, 18)

    def test_m_exceeding_m0_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_scenario_dict(m=7, m0=5)))
        with pytest.raises(RangeViolation, match="m <= m0"):
            load_scenario(path)

    def test_reference_population_loads(self, tmp_path):
        scenario = build_synthetic_scenario(n_users=689, seed=7)
        path = tmp_path / "paper.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert len(loaded.users) == 689
        assert len(loaded.communities) == 6

    def test_version_required(self, tmp_path):
        data = minimal_scenario_dict()
        del data["version"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        with pytest.raises(MissingField, match="version"):
            load_scenario(path)

    @pytest.mark.parametrize("version", [True, 1.0, 2, "1", None])
    def test_version_must_be_integer_one(self, version):
        data = minimal_scenario_dict()
        data["version"] = version
        line = f"version = {version!r} violates 1"
        with pytest.raises(RangeViolation, match=f"^{re.escape(line)}$"):
            scenario_from_dict(data)

    def test_wrong_version_exits_1_naming_the_value(self, tmp_path, capsys):
        data = minimal_scenario_dict()
        data["version"] = 2
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert cli.main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == "error: version = 2 violates 1\n"

    def test_users_required(self):
        data = minimal_scenario_dict()
        del data["users"]
        with pytest.raises(MissingField, match="users"):
            scenario_from_dict(data)

    def test_duplicate_user_rejected(self):
        data = minimal_scenario_dict()
        data["users"].append(dict(data["users"][0]))
        with pytest.raises(DuplicateUserId):
            scenario_from_dict(data)

    def test_duplicate_content_id_rejected(self):
        # engine state keys items by content_id
        data = minimal_scenario_dict()
        data["content_catalog"].append(
            {"content_id": "d1", "topic": "beta", "kind": "disinformation", "text": "y"}
        )
        with pytest.raises(ScenarioError, match="duplicate content_id 'd1'"):
            scenario_from_dict(data)

    def test_default_windows_follow_total_steps(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_scenario_dict(total_steps=36)))
        assert load_scenario(path).params.intervention_windows == {
            "early": (6, 36), "mid": (18, 36), "late": (24, 36),
        }
        assert SimulationParams().intervention_windows == {
            "early": (12, 72), "mid": (36, 72), "late": (48, 72),
        }

    def test_windows_are_read_only_once_checked(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(build_synthetic_scenario(n_users=40, seed=7), path)
        scenario = load_scenario(path)
        digest, windows = scenario.digest(), dict(scenario.params.intervention_windows)
        for params in (scenario.params, SimulationParams(), copy.deepcopy(scenario.params)):
            with pytest.raises(TypeError):
                params.intervention_windows["late"] = (72, 72)
        assert scenario.params.intervention_windows == windows
        late = SimulationParams(intervention_windows={"late": [48, 72]}).intervention_windows["late"]
        assert late == (48, 72)  # a tuple: a list would stay open to edits
        assert scenario.digest() == load_scenario(path).digest() == digest
        # the JSON forms stay plain dicts that a caller may edit
        data = scenario.to_dict()
        for plain in (data["params"]["intervention_windows"],
                      asdict(scenario.params)["intervention_windows"]):
            assert type(plain) is dict and plain == windows
            plain["late"] = (72, 72)
        assert scenario.to_dict()["params"]["intervention_windows"] == windows
        assert json.dumps(data, sort_keys=True) != json.dumps(scenario.to_dict(), sort_keys=True)

    def test_unknown_topic_rejected(self):
        data = minimal_scenario_dict()
        data["content_catalog"][0]["topic"] = "nowhere"
        with pytest.raises(UnknownCommunity):
            scenario_from_dict(data)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ScenarioError, match="unknown parameter"):
            scenario_from_dict(minimal_scenario_dict(thetta=0.4))

    def test_unknown_top_level_key_rejected(self):
        # a misspelt "params" would otherwise run every default
        data = minimal_scenario_dict(total_steps=36)
        data["param"] = data.pop("params")
        with pytest.raises(ScenarioError, match=r"^unknown key\(s\) in scenario: \['param'\]$"):
            scenario_from_dict(data)

    def test_unknown_catalog_item_key_rejected(self):
        data = minimal_scenario_dict()
        data["content_catalog"][0]["plausability"] = 0.9
        with pytest.raises(ScenarioError, match=r"in content item 'd1': \['plausability'\]"):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("m0", True), ("m0", 5.0), ("theta", False), ("malicious_freq_range", [1, 2, 3]),
            ("xi", float("inf")), ("theta", float("nan")), ("tau", float("-inf")),
            ("xi", 10**400),
        ],
    )
    def test_parameter_types_checked(self, name, value):
        with pytest.raises(RangeViolation, match=f"params.{name}"):
            scenario_from_dict(minimal_scenario_dict(**{name: value}))

    @pytest.mark.parametrize("seed", [-1, 2**64, 10**23])
    def test_rng_seed_outside_64_bits_rejected(self, seed):
        # the streams key on the seed's low 64 bits, so these would alias a seed inside
        line = f"params.rng_seed = {seed!r} violates within [0, 2**64)"
        with pytest.raises(RangeViolation, match=f"^{re.escape(line)}$"):
            scenario_from_dict(minimal_scenario_dict(rng_seed=seed))

    @pytest.mark.parametrize(
        "texts",
        [{"ab": 1}, ["ok"], [["post", "text", "extra"]]],
        ids=["object", "string-item", "three-item"],
    )
    def test_malformed_historical_texts_rejected(self, texts):
        data = minimal_scenario_dict()
        data["users"][0]["historical_texts"] = texts
        with pytest.raises(RangeViolation, match=r"historical_texts\(u0\)"):
            scenario_from_dict(data)

    def test_float_parameter_takes_an_integer(self):
        assert scenario_from_dict(minimal_scenario_dict(tau=8)).params.tau == 8

    def test_bad_histogram_rejected(self):
        data = minimal_scenario_dict()
        data["users"][0]["activity_histogram"] = [1] * 23
        with pytest.raises(RangeViolation, match="24"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("value", [12, 12.0, "12"])
    def test_whole_counts_load(self, value):
        data = minimal_scenario_dict()
        data["users"][0]["follower_count"] = value
        data["users"][0]["activity_histogram"] = [value] * 24
        user = scenario_from_dict(data).users[0]
        assert user.follower_count == 12 and user.activity_histogram == (12,) * 24

    @pytest.mark.parametrize(
        "field, value",
        [("follower_count", 12.7), ("retweet_count", True), ("activity_histogram", [2.5] * 24)],
    )
    def test_fractional_or_boolean_count_names_the_user(self, field, value):
        data = minimal_scenario_dict()
        data["users"][1][field] = value
        with pytest.raises(RangeViolation, match=rf"{field}\(u1\)"):
            scenario_from_dict(data)

    def test_integer_user_id_reads_as_its_decimal_string(self):
        data = minimal_scenario_dict()
        data["users"][0]["user_id"] = 1234567890123456789
        assert scenario_from_dict(data).users[0].user_id == "1234567890123456789"

    def test_malformed_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)


class TestRoundTrip:
    def test_save_load_equality(self, tmp_path):
        scenario = build_synthetic_scenario(n_users=60, communities=("alpha",), seed=5)
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        again = load_scenario(path)
        assert again == scenario
        assert again.digest() == scenario.digest()

    def test_digest_cached_per_instance(self):
        scenario = build_synthetic_scenario(n_users=60, communities=("alpha",), seed=5)
        cached = scenario.digest()
        assert scenario.digest() is cached  # hashed once
        assert replace(scenario).digest() == cached  # an equal, uncached copy
        reseeded = with_seed(scenario, 6)
        assert reseeded.digest() != cached
        assert reseeded.digest() == replace(reseeded).digest()

    def test_identical_bytes_identical_scenario(self, tmp_path):
        data = json.dumps(minimal_scenario_dict())
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(data)
        b.write_text(data)
        assert load_scenario(a) == load_scenario(b)


class TestSidecarUsers:
    def test_json_sidecar(self, tmp_path):
        data = minimal_scenario_dict()
        users = data.pop("users")
        data["users_file"] = "users.json"
        (tmp_path / "users.json").write_text(json.dumps(users))
        (tmp_path / "scenario.json").write_text(json.dumps(data))
        scenario = load_scenario(tmp_path / "scenario.json")
        assert len(scenario.users) == 3

    def test_csv_sidecar_with_bracketed_histogram(self, tmp_path):
        data = minimal_scenario_dict()
        data.pop("users")
        data["users_file"] = "users.csv"
        histogram = "[" + " ".join(["2"] * 24) + "]"
        rows = [
            "user_id,follower_count,following_count,post_count,retweet_count,quote_count,description,activity_histogram",
            f'u0,100,5,3,4,2,hello,"{histogram}"',
            f'u1,50,5,3,1,0,there,"{histogram}"',
            f'u2,10,5,3,0,0,works,"{histogram}"',
        ]
        (tmp_path / "users.csv").write_text("\n".join(rows))
        (tmp_path / "scenario.json").write_text(json.dumps(data))
        scenario = load_scenario(tmp_path / "scenario.json")
        assert scenario.users[0].activity_histogram == tuple([2] * 24)
        assert scenario.users[0].share_total == 6

    def test_csv_empty_cells_take_the_defaults(self, tmp_path):
        data = minimal_scenario_dict()
        data.pop("users")
        data["users_file"] = "users.csv"
        rows = ["user_id,follower_count,retweet_count,activity_histogram", "u0,100,,"]
        (tmp_path / "users.csv").write_text("\n".join(rows))
        (tmp_path / "scenario.json").write_text(json.dumps(data))
        user = load_scenario(tmp_path / "scenario.json").users[0]
        assert user == UserRecord(user_id="u0", follower_count=100)

    def test_csv_bad_count_names_the_user(self, tmp_path):
        data = minimal_scenario_dict()
        data.pop("users")
        data["users_file"] = "users.csv"
        rows = ["user_id,follower_count", "u0,100", "u1,many"]
        (tmp_path / "users.csv").write_text("\n".join(rows))
        (tmp_path / "scenario.json").write_text(json.dumps(data))
        with pytest.raises(RangeViolation, match=r"follower_count\(u1\)"):
            load_scenario(tmp_path / "scenario.json")
        # a misspelt column is an error naming the row's user, even when its cell is empty
        (tmp_path / "users.csv").write_text("user_id,follower_count,retweets_count\nu0,100,")
        with pytest.raises(ScenarioError, match=r"'u0'.*'retweets_count'"):
            load_scenario(tmp_path / "scenario.json")


class TestScenarioShape:
    def test_duplicate_community_names_rejected(self):
        data = minimal_scenario_dict()
        data["communities"] = ["alpha", "beta", "alpha"]
        with pytest.raises(ScenarioError, match="^community names must be unique$"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("users_file, error, message", [
        (5, RangeViolation, "users_file = 5 violates a file name"),
        ("users.txt", ScenarioError, "unsupported users_file extension: '.txt'"),
    ])
    def test_bad_users_file_rejected(self, tmp_path, users_file, error, message):
        data = minimal_scenario_dict()
        data.pop("users")
        data["users_file"] = users_file
        (tmp_path / "users.txt").write_text("u0 100\n")
        (tmp_path / "scenario.json").write_text(json.dumps(data))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_scenario(tmp_path / "scenario.json")

    def test_inline_users_and_users_file_rejected_together(self, tmp_path, capsys):
        # the sidecar named here does not exist: the pair is refused before any read
        data = minimal_scenario_dict()
        data["users_file"] = "users.json"
        (tmp_path / "scenario.json").write_text(json.dumps(data))
        message = "scenario holds both users and users_file; give one of them"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            load_scenario(tmp_path / "scenario.json")
        assert cli.main(["validate", "--scenario", str(tmp_path / "scenario.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_users_file_needs_a_scenario_path(self):
        data = minimal_scenario_dict()
        data.pop("users")
        data["users_file"] = "users.json"
        message = "users_file reference requires a scenario path"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            scenario_from_dict(data)


class TestValidateParams:
    def test_defaults_are_clean(self):
        SimulationParams()

    def test_gamma_boundary_excluded(self):
        with pytest.raises(RangeViolation) as exc:
            SimulationParams(gamma=1.0)
        assert exc.value.field == "gamma"

    def test_window_beyond_total_steps(self):
        with pytest.raises(RangeViolation) as exc:
            SimulationParams(
                total_steps=72,
                intervention_windows={"early": (12, 80), "mid": (36, 72), "late": (48, 72)},
            )
        assert "early" in exc.value.field

    def test_reversed_window_rejected(self):
        message = "intervention_windows[early] = (20, 10) violates sub-range of [1, 72]"
        with pytest.raises(RangeViolation, match=f"^{re.escape(message)}$"):
            SimulationParams(intervention_windows={"early": (20, 10)})

    def test_ratio_sum_capped(self):
        with pytest.raises(RangeViolation) as exc:
            SimulationParams(malicious_ratio=0.6, legitimate_ratio=0.5)
        assert "ratio" in exc.value.field

    def test_violation_names_field_value_constraint(self):
        with pytest.raises(RangeViolation) as exc:
            SimulationParams(xi=-1.0)
        assert exc.value.field == "xi"
        assert exc.value.value == -1.0
        assert ">= 0" in exc.value.constraint


@pytest.mark.parametrize(
    "build",
    [
        lambda: replace(SimulationParams(), gamma=1.0),
        lambda: replace(build_synthetic_scenario(n_users=30, seed=3), communities=()),
        lambda: UserRecord("u", follower_count=-1),
        lambda: EvaluatorConfig(timeout=0),
    ],
    ids=["params-replace", "scenario-replace", "user", "evaluator-config"],
)
def test_no_invalid_record_can_be_built(build):
    with pytest.raises(ScenarioError):
        build()


@pytest.mark.parametrize(
    "section, name, value, field",
    [
        ("params", "gamma", 1.0, "params.gamma"),
        ("evaluator", "timeout", 0, "evaluator.timeout"),
    ],
    ids=["gamma", "timeout"],
)
def test_file_range_error_names_field_path(section, name, value, field):
    data = minimal_scenario_dict()
    data[section] = {name: value}
    with pytest.raises(RangeViolation) as exc:
        scenario_from_dict(data)
    assert exc.value.field == field


def test_share_total_is_retweets_plus_quotes():
    user = UserRecord(user_id="u", follower_count=1, retweet_count=7, quote_count=5)
    assert user.share_total == 12


def test_all_model_inputs_reachable_from_scenario():
    """Every quantity the attribute formulas, network build and engine read
    must be reachable from a loaded Scenario."""
    scenario = build_synthetic_scenario(n_users=60, communities=("alpha",), seed=5)
    paths = {
        "theta": scenario.params.theta,
        "xi": scenario.params.xi,
        "gamma": scenario.params.gamma,
        "beta": scenario.params.beta,
        "delta": scenario.params.delta,
        "tau": scenario.params.tau,
        "m0": scenario.params.m0,
        "m": scenario.params.m,
        "total_steps": scenario.params.total_steps,
        "malicious_ratio": scenario.params.malicious_ratio,
        "legitimate_ratio": scenario.params.legitimate_ratio,
        "malicious_freq_range": scenario.params.malicious_freq_range,
        "legitimate_freq_range": scenario.params.legitimate_freq_range,
        "early_window": scenario.params.intervention_windows["early"],
        "mid_window": scenario.params.intervention_windows["mid"],
        "late_window": scenario.params.intervention_windows["late"],
        "rng_seed": scenario.params.rng_seed,
        "follower_count": scenario.users[0].follower_count,
        "share_total": scenario.users[0].share_total,
        "activity_histogram": scenario.users[0].activity_histogram,
        "historical_texts": scenario.users[0].historical_texts,
        "communities": scenario.communities,
        "disinformation": scenario.disinformation_for("alpha"),
        "evaluator_backend": scenario.evaluator_config.backend,
    }
    for name, value in paths.items():
        assert value is not None, name


@pytest.mark.parametrize(
    "which, digest, saved",
    [
        (
            "paper",
            "21dca087e8f8e62cb9c1db839cc9194cb10a58789b8d0b688b3e149d64db8564",
            "c70c5aaa285ddfe36dfd3d0ec0921473eada8f5abe6987ed9ba6df01b2488807",
        ),
        (
            "small",
            "1fcf8ab4599a42abcb0d1722dc9cd83d9bf83981a3a6c207d9b79a341b571895",
            "805591a1c927097e0a9116c43a742fd8bfd9f631bafb6c8a47f581941ad5ce6e",
        ),
    ],
    ids=["paper", "small"],
)
def test_serialization_bytes_pinned(which, digest, saved, small_scenario, tmp_path):
    """Scenario.digest() and the save_scenario file bytes of two reference
    scenarios; they move only when the scenario format does."""
    scenario = build_synthetic_scenario(689, seed=7) if which == "paper" else small_scenario
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    assert scenario.digest() == digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == saved

