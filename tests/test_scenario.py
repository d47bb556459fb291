import codecs
import copy
import csv
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

    @pytest.mark.parametrize("depth", [987, 5000])
    def test_json_nested_too_deep_reported(self, tmp_path, depth):
        """The JSON reader raises RecursionError past its nesting limit."""
        data = minimal_scenario_dict()
        del data["communities"]
        path = tmp_path / "deep.json"
        nested = "[" * depth + "]" * depth
        path.write_text(json.dumps(data)[:-1] + f', "communities": {nested}}}')
        message = f"scenario file {path} is nested too deep for the JSON reader"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            load_scenario(path)

    @pytest.mark.parametrize("where", ["scenario", "users"])
    def test_long_offending_value_shown_cut(self, where):
        """A value whose repr runs past 200 characters shows its first 200;
        the exception keeps the whole value."""
        data = build_synthetic_scenario(n_users=120, communities=("alpha", "beta"), seed=3)
        data = json.loads(json.dumps(data.to_dict()))
        value = data["users"] if where == "scenario" else {"users": data["users"]}
        if where == "users":
            data["users"] = value
        with pytest.raises(RangeViolation) as exc:
            scenario_from_dict(value if where == "scenario" else data)
        assert exc.value.value == value
        constraint = "a JSON object" if where == "scenario" else "a JSON array"
        assert str(exc.value) == f"{where} = {repr(value)[:200]}... violates {constraint}"


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

    @pytest.mark.parametrize("bom_file", ["scenario.json", "users.json", "users.csv"])
    def test_byte_order_mark_loads_as_its_twin(self, tmp_path, bom_file):
        """A file saved with a leading UTF-8 byte-order mark, as spreadsheet
        "CSV UTF-8" exports are, loads as the same file without it."""
        data = minimal_scenario_dict()
        texts = {}
        if bom_file == "users.json":
            texts[bom_file] = json.dumps(data.pop("users"))
        elif bom_file == "users.csv":
            data.pop("users")
            texts[bom_file] = "user_id,follower_count,retweet_count\nu0,100,4\nu1,50,1\nu2,10,0\n"
        if bom_file != "scenario.json":
            data["users_file"] = bom_file
        texts["scenario.json"] = json.dumps(data)
        loaded = []
        for name, bom in (("plain", b""), ("bom", codecs.BOM_UTF8)):
            folder = tmp_path / name
            folder.mkdir()
            for file, text in texts.items():
                (folder / file).write_bytes((bom if file == bom_file else b"") + text.encode())
            loaded.append(load_scenario(folder / "scenario.json"))
        plain, with_bom = loaded
        assert [u.user_id for u in with_bom.users] == ["u0", "u1", "u2"]
        assert with_bom == plain and with_bom.digest() == plain.digest()

    def test_json_sidecar_nested_too_deep_reported(self, tmp_path):
        data = minimal_scenario_dict()
        data.pop("users")
        data["users_file"] = "users.json"
        (tmp_path / "users.json").write_text("[" * 5000 + "]" * 5000)
        (tmp_path / "scenario.json").write_text(json.dumps(data))
        message = f"users_file {tmp_path / 'users.json'} is nested too deep for the JSON reader"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            load_scenario(tmp_path / "scenario.json")

    def test_csv_cell_past_field_limit_names_file_and_line(self, tmp_path):
        """The csv module refuses a cell over 131,072 characters; the loader
        names the file and the line, and leaves the process-wide limit alone.
        The same description loads inline."""
        description = "x" * 200_000
        data = minimal_scenario_dict()
        data["users"][1]["description"] = description
        assert scenario_from_dict(data).users[1].description == description
        data.pop("users")
        data["users_file"] = "users.csv"
        rows = ["user_id,follower_count,description", "u0,10,a", f"u1,20,{description}", "u2,30,b"]
        (tmp_path / "users.csv").write_text("\n".join(rows))
        (tmp_path / "scenario.json").write_text(json.dumps(data))
        limit = csv.field_size_limit()
        message = (f"users_file {tmp_path / 'users.csv'} line 3: "
                   f"field larger than field limit ({limit})")
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            load_scenario(tmp_path / "scenario.json")
        assert csv.field_size_limit() == limit == 131072


class TestScenarioShape:
    def test_duplicate_community_names_rejected(self):
        data = minimal_scenario_dict()
        data["communities"] = ["alpha", "beta", "alpha"]
        with pytest.raises(ScenarioError, match="^community names must be unique$"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("name", [
        "al,pha", 'al"pha', "al\tpha", "al\npha", "alpha\r", "al\u2028pha", "al\x1cpha",
    ])
    def test_community_name_artifacts_cannot_write_rejected(self, name):
        data = minimal_scenario_dict()
        data["communities"] = [name, "beta"]
        data["content_catalog"][0]["topic"] = name
        with pytest.raises(RangeViolation) as exc:
            scenario_from_dict(data)
        assert (exc.value.field, exc.value.value) == ("communities", name)

    @pytest.mark.parametrize("user_id", ["u\t0", "u\n0", "u0\r\n", "\x0b", "u\x850"])
    def test_user_id_artifacts_cannot_write_rejected(self, user_id):
        data = minimal_scenario_dict()
        data["users"][0]["user_id"] = user_id
        with pytest.raises(RangeViolation) as exc:
            scenario_from_dict(data)
        assert (exc.value.field, exc.value.value) == ("user_id", user_id)

    @pytest.mark.parametrize("user_id", [
        "mbot_alpha_000", "lbot_beta_007", "mbot_alpha_999", "lbot_alpha_1000",
    ])
    def test_generated_bot_id_rejected(self, user_id):
        data = minimal_scenario_dict()
        data["users"][1]["user_id"] = user_id
        with pytest.raises(RangeViolation) as exc:
            scenario_from_dict(data)
        assert str(exc.value) == f"user_id = {user_id!r} violates an id no generated bot takes"

    @pytest.mark.parametrize("user_id", [
        "mbot_gamma_000", "mbot_alpha_00", "mbot_alpha_0001", "xbot_alpha_000", "mbot_alpha_x",
        "mbot_alpha_\u0663\u0663\u0663", "mbot_alpha",
    ])
    def test_id_no_bot_takes_loads(self, user_id):
        data = minimal_scenario_dict()
        data["users"][1]["user_id"] = user_id
        assert scenario_from_dict(data).users[1].user_id == user_id

    def test_bot_ids_follow_the_community_names(self):
        """A community whose name holds '_' still reserves its bots' ids."""
        data = minimal_scenario_dict()
        data["communities"] = ["alpha", "alpha_000"]
        data["users"][0]["user_id"] = "lbot_alpha_000_012"
        with pytest.raises(RangeViolation, match="no generated bot takes"):
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

    def test_violation_shows_at_most_200_characters_of_the_value(self):
        """A repr of 200 characters is shown whole; a longer one is cut to
        its first 200, then "..."; the exception keeps the whole value."""
        for length, shown in [(198, "'" + "x" * 198 + "'"), (199, "'" + "x" * 199 + "..."),
                              (5000, "'" + "x" * 199 + "...")]:
            exc = RangeViolation("description", "x" * length, "short")
            assert str(exc) == f"description = {shown} violates short"
            assert exc.value == "x" * length


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


@pytest.mark.parametrize("retweets, quotes", [(2**63, 0), (2**63 - 1, 1), (0, 10**30)])
def test_share_total_past_int64_rejected(retweets, quotes):
    with pytest.raises(RangeViolation) as exc:
        UserRecord(user_id="u", follower_count=1, retweet_count=retweets, quote_count=quotes)
    assert str(exc.value) == f"retweet_count+quote_count(u) = {retweets + quotes} violates < 2**63"


def test_largest_share_total_loads():
    user = UserRecord(user_id="u", follower_count=1, retweet_count=2**63 - 2, quote_count=1)
    assert user.share_total == 2**63 - 1


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
            "30f784c1ff76dca2d687d91e2767ac27c928d2e7a797be3b2e3dfc5f51d113c8",
            "4c751aa663c01ef9bf67d23b69d444d8169d38b1d175774af580d2fb99c10f57",
        ),
        (
            "small",
            "3f7a98f9a96ab8cbeb04bc6842134e97f6ffb9ea9ce2f37d8531df28914b657a",
            "9f02514aa8d8cb4b9f08cc168f6107e953fba68bea7552872313b99e6d4e3b8a",
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

