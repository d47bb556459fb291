import json
from dataclasses import asdict
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from madd import evaluator as evaluator_module
from madd.attributes import _profile_requests
from madd.errors import MalformedEvaluatorResponse, RemoteUnavailable, ScenarioError
from madd.evaluator import (
    EvaluationRequest,
    EvaluatorConfig,
    RemoteEvaluator,
    ResourceLedger,
    SyntheticEvaluator,
    make_evaluator,
    render_prompt,
)
from madd.scenario import UserRecord, config_from_dict

COMMUNITIES = ["business", "education", "entertainment", "politics", "sports", "technology"]


def ic_request(user_id="u1"):
    return EvaluationRequest(
        kind="interest_community",
        subject_texts=("post one", "post two"),
        context={"user_id": user_id, "communities": COMMUNITIES},
    )


def tt_request(user_id="u1"):
    return EvaluationRequest(
        kind="trust_threshold",
        subject_texts=("post one",),
        context={"user_id": user_id, "communities": COMMUNITIES},
    )


class TestSynthetic:
    def test_same_request_same_response(self):
        evaluator = SyntheticEvaluator(seed=11)
        a = evaluator.evaluate(ic_request())
        b = evaluator.evaluate(ic_request())
        assert a == b

    def test_different_seed_different_scores(self):
        a = SyntheticEvaluator(seed=1).evaluate(tt_request())
        b = SyntheticEvaluator(seed=2).evaluate(tt_request())
        assert a != b

    def test_interest_scores_cover_all_communities_in_range(self):
        scores = SyntheticEvaluator(seed=11).evaluate(ic_request())
        assert set(scores) == set(COMMUNITIES)
        assert all(1.0 <= v <= 10.0 for v in scores.values())

    def test_trust_scores_in_unit_range(self):
        scores = SyntheticEvaluator(seed=11).evaluate(tt_request())
        assert all(0.0 <= v <= 1.0 for v in scores.values())

    def test_plausibility_deterministic_and_in_range(self):
        evaluator = SyntheticEvaluator(seed=11)
        request = EvaluationRequest(
            kind="plausibility", subject_texts=("Some claim about things.",), context={}
        )
        a = evaluator.evaluate(request)["score"]
        b = evaluator.evaluate(request)["score"]
        assert a == b
        assert 0.0 <= a <= 1.0

    def test_persuasiveness_empty_text_scores_zero(self):
        evaluator = SyntheticEvaluator(seed=11)
        value = evaluator.persuasiveness(
            "",
            content_kind="correction",
            strategy="fact_based",
            stance="endorse",
            receiver_history="h",
            community="politics",
        )
        assert value == 0.0

    def test_persuasiveness_identical_inputs_identical_outputs(self):
        evaluator = SyntheticEvaluator(seed=11)
        kwargs = dict(
            content_kind="correction",
            strategy="fact_based",
            stance="endorse",
            receiver_history="history summary",
            community="politics",
        )
        assert evaluator.persuasiveness("text", **kwargs) == evaluator.persuasiveness(
            "text", **kwargs
        )

    def test_fact_corrections_more_persuasive_than_disinfo_on_average(self):
        evaluator = SyntheticEvaluator(seed=11)
        fact, dis = [], []
        for i in range(200):
            fact.append(
                evaluator.persuasiveness(
                    f"the 2023 audit found {i} issues",
                    content_kind="correction",
                    strategy="fact_based",
                    stance="endorse",
                    receiver_history=str(i),
                    community="politics",
                )
            )
            dis.append(
                evaluator.persuasiveness(
                    "they are hiding everything!!",
                    content_kind="disinformation",
                    strategy="none",
                    stance="endorse",
                    receiver_history=str(i),
                    community="politics",
                )
            )
        assert sum(fact) / len(fact) > sum(dis) / len(dis) + 0.2

    def test_persuasiveness_metered_on_every_call(self):
        class Counting(SyntheticEvaluator):
            invocations = 0

            def evaluate(self, request):
                self.invocations += 1
                return super().evaluate(request)

        kwargs = dict(content_kind="disinformation", strategy="none", stance="endorse",
                      receiver_history="h", community="politics")
        evaluator = Counting(seed=11)
        scores = [evaluator.persuasiveness("ballots were shredded", **kwargs) for _ in range(4)]
        # every call reaches evaluate() and the ledger, repeats included
        assert evaluator.invocations == 4
        totals = evaluator.ledger_snapshot()["totals"]
        assert totals["llm_calls"] == 4
        once = SyntheticEvaluator(seed=11)
        fresh = once.persuasiveness("ballots were shredded", **kwargs)
        assert scores == [fresh] * 4
        assert totals["tokens"] == 4 * once.ledger_snapshot()["totals"]["tokens"] > 0

    def test_context_insertion_order_gives_same_score(self):
        context = {"content_kind": "correction", "strategy": "narrative_based",
                   "stance": "endorse", "history": "h", "community": "politics"}
        texts = ("a neighbour tells how the count really went",)
        a = EvaluationRequest(kind="persuasiveness", subject_texts=texts, context=context)
        b = EvaluationRequest(kind="persuasiveness", subject_texts=texts,
                              context=dict(reversed(context.items())))
        assert list(a.context) != list(b.context)
        assert a.canonical_bytes() == b.canonical_bytes()
        evaluator = SyntheticEvaluator(seed=11)
        assert evaluator.evaluate(a) == evaluator.evaluate(b)

    @pytest.mark.parametrize("score", [1.5, -0.1, float("nan")])
    def test_persuasiveness_out_of_range_rejected(self, monkeypatch, score):
        # the trust update takes persuasiveness unchecked: this is its boundary
        evaluator = SyntheticEvaluator(seed=11)
        monkeypatch.setattr(evaluator, "_eval_persuasiveness", lambda request, rng: {"score": score})
        with pytest.raises(MalformedEvaluatorResponse):
            evaluator.persuasiveness(
                "text", content_kind="correction", strategy="fact_based", stance="endorse",
                receiver_history="", community="alpha",
            )

    def test_unknown_kind_rejected(self):
        for kind in ("mood", "belief_check"):
            with pytest.raises(ValueError):
                EvaluationRequest(kind=kind, subject_texts=(), context={})


class TestLedger:
    def test_starts_at_zero(self):
        snapshot = SyntheticEvaluator(seed=1).ledger_snapshot()
        assert snapshot["totals"] == {"llm_calls": 0, "tokens": 0, "wall_time": 0.0}

    def test_counts_calls_and_tokens(self):
        ledger = ResourceLedger()
        for _ in range(3):
            ledger.record("politics", 100, 0.0, True)
        snapshot = ledger.snapshot()
        assert snapshot["totals"]["llm_calls"] == 3
        assert snapshot["totals"]["tokens"] == 300

    def test_totals_equal_per_community_sums(self):
        evaluator = SyntheticEvaluator(seed=1)
        evaluator.evaluate(ic_request("a"))
        evaluator.evaluate(tt_request("b"))
        evaluator.persuasiveness(
            "text",
            content_kind="correction",
            strategy="fact_based",
            stance="endorse",
            receiver_history="h",
            community="politics",
        )
        snapshot = evaluator.ledger_snapshot()
        for key in ("llm_calls", "tokens"):
            assert snapshot["totals"][key] == sum(
                entry[key] for entry in snapshot["per_community"].values()
            )


def reply(payload, usage=None):
    out = {"choices": [{"message": {"content": json.dumps(payload)}}]}
    if usage:
        out["usage"] = usage
    return out


def remote(monkeypatch, replies):
    """RemoteEvaluator whose transport plays back canned replies."""
    evaluator = RemoteEvaluator(
        EvaluatorConfig(backend="remote", endpoint="https://example.invalid/v1/chat", model="m")
    )
    queue = list(replies)

    def fake_post(prompt):
        item = queue.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    monkeypatch.setattr(evaluator, "_post", fake_post)
    return evaluator


class TestRemote:
    def test_plausibility_parse(self, monkeypatch):
        evaluator = remote(monkeypatch, [reply({"PlausibilityScore": 0.7, "Reasoning": "ok"})])
        request = EvaluationRequest(kind="plausibility", subject_texts=("claim",), context={})
        assert evaluator.evaluate(request)["score"] == 0.7

    def test_plausibility_out_of_range_rejected(self, monkeypatch):
        evaluator = remote(
            monkeypatch,
            [reply({"PlausibilityScore": 1.4}), reply({"PlausibilityScore": 1.4})],
        )
        request = EvaluationRequest(kind="plausibility", subject_texts=("claim",), context={})
        with pytest.raises(MalformedEvaluatorResponse):
            evaluator.evaluate(request)

    def test_trust_threshold_parses_all_communities(self, monkeypatch):
        rows = [{"Community": c, "Score": 0.5, "Reasoning": "r"} for c in COMMUNITIES]
        evaluator = remote(monkeypatch, [reply({"Trust Threshold Scores": rows})])
        scores = evaluator.evaluate(tt_request())
        assert set(scores) == set(COMMUNITIES)
        assert all(v == 0.5 for v in scores.values())

    def test_missing_community_rejected(self, monkeypatch):
        rows = [{"Community": c, "Score": 0.5} for c in COMMUNITIES[:-1]]
        evaluator = remote(
            monkeypatch,
            [reply({"Trust Threshold Scores": rows}), reply({"Trust Threshold Scores": rows})],
        )
        with pytest.raises(MalformedEvaluatorResponse, match="missing"):
            evaluator.evaluate(tt_request())

    def test_insufficient_data_maps_to_scale_floor(self, monkeypatch):
        rows = [{"Community": c, "Score": 7} for c in COMMUNITIES]
        rows[2]["Score"] = "Insufficient Data"
        evaluator = remote(monkeypatch, [reply({"Interest Community Scores": rows})])
        scores = evaluator.evaluate(ic_request())
        assert scores[COMMUNITIES[2]] == 1.0

    @pytest.mark.parametrize("text, value", [("2.5", 2.5), (" 7 ", 7.0), ("1e1", 10.0)])
    def test_number_like_string_reads_as_number(self, monkeypatch, text, value):
        rows = [{"Community": c, "Score": 5} for c in COMMUNITIES]
        rows[0]["Score"] = text
        evaluator = remote(monkeypatch, [reply({"Interest Community Scores": rows})])
        assert evaluator.evaluate(ic_request())[COMMUNITIES[0]] == value

    @pytest.mark.parametrize(
        "score, message",
        [
            (True, "non-numeric score True"),
            (False, "non-numeric score False"),
            ("high", "non-numeric score 'high'"),
            (None, "non-numeric score None"),
            ([0.5], r"non-numeric score \[0.5\]"),
            (1.5, r"= 1.5 outside \[0.0, 1.0\]"),
            ("-0.5", r"= -0.5 outside \[0.0, 1.0\]"),
            pytest.param(10**400, r"outside \[0.0, 1.0\]", id="huge-int"),
        ],
    )
    def test_malformed_score_retried_once_then_raised(self, monkeypatch, score, message):
        request = EvaluationRequest(kind="persuasiveness", subject_texts=("t",), context={})
        bad = reply({"Score": score})
        recovered = remote(monkeypatch, [bad, reply({"Score": 0.5})])
        assert recovered.evaluate(request) == {"score": 0.5}
        evaluator = remote(monkeypatch, [bad, bad])
        with pytest.raises(MalformedEvaluatorResponse, match=message):
            evaluator.evaluate(request)
        assert evaluator.ledger_snapshot()["totals"]["llm_calls"] == 0

    @pytest.mark.parametrize(
        "kind, bad, message",
        [
            ("persuasiveness", reply([0.5]), "reply JSON is not an object"),
            ("interest_community", reply({"Scores": []}),
             "missing 'Interest Community Scores' list"),
            ("interest_community", reply({"Interest Community Scores": {"politics": 5}}),
             "missing 'Interest Community Scores' list"),
            ("persuasiveness", {}, "no message content in reply"),
            ("persuasiveness", {"choices": []}, "no message content in reply"),
        ],
        ids=["not-an-object", "rows-missing", "rows-not-a-list", "no-choices", "empty-choices"],
    )
    def test_malformed_reply_retried_once_then_raised(self, monkeypatch, kind, bad, message):
        if kind == "persuasiveness":
            request = EvaluationRequest(kind=kind, subject_texts=("t",), context={})
            good, expected = reply({"Score": 0.5}), {"score": 0.5}
        else:
            request = ic_request()
            good = reply({"Interest Community Scores": [
                {"Community": c, "Score": 5} for c in COMMUNITIES]})
            expected = dict.fromkeys(COMMUNITIES, 5.0)
        assert remote(monkeypatch, [bad, good]).evaluate(request) == expected
        evaluator = remote(monkeypatch, [bad, bad])
        with pytest.raises(MalformedEvaluatorResponse, match=message):
            evaluator.evaluate(request)
        assert evaluator.ledger_snapshot()["totals"]["llm_calls"] == 0

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"Community": ["politics"], "Score": 9}, "bad row"),
            ({"Community": 3, "Score": 9}, "bad row"),
            ({"Community": "politics", "Score": True}, "non-numeric score True"),
            ({"Community": "politics", "Score": 9}, "'politics' scored twice"),
        ],
    )
    def test_malformed_row_retried_once_then_raised(self, monkeypatch, row, message):
        rows = [{"Community": c, "Score": 5} for c in COMMUNITIES]
        bad = reply({"Interest Community Scores": [row, *rows]})
        good = reply({"Interest Community Scores": rows})
        assert remote(monkeypatch, [bad, good]).evaluate(ic_request())["politics"] == 5.0
        with pytest.raises(MalformedEvaluatorResponse, match=message):
            remote(monkeypatch, [bad, bad]).evaluate(ic_request())

    def test_retries_once_on_malformed_then_succeeds(self, monkeypatch):
        bad = {"choices": [{"message": {"content": "not json"}}]}
        good = reply({"Score": 0.55, "Reasoning": "fine"})
        evaluator = remote(monkeypatch, [bad, good])
        request = EvaluationRequest(kind="persuasiveness", subject_texts=("t",), context={})
        assert evaluator.evaluate(request)["score"] == 0.55

    def test_transport_failure_after_retry_raises_unavailable(self, monkeypatch):
        evaluator = remote(monkeypatch, [OSError("boom"), OSError("boom")])
        request = EvaluationRequest(kind="persuasiveness", subject_texts=("t",), context={})
        with pytest.raises(RemoteUnavailable):
            evaluator.evaluate(request)

    def test_usage_from_provider_counts(self, monkeypatch):
        evaluator = remote(
            monkeypatch,
            [reply({"Score": 0.5}, usage={"prompt_tokens": 100, "completion_tokens": 20})],
        )
        request = EvaluationRequest(kind="persuasiveness", subject_texts=("t",), context={})
        evaluator.evaluate(request)
        snapshot = evaluator.ledger_snapshot()
        assert snapshot["totals"]["tokens"] == 120
        assert snapshot["approximate"] is False

    @pytest.mark.parametrize(
        "usage", [None, {"prompt_tokens": 100}, {"completion_tokens": 20}]
    )
    def test_usage_without_both_counts_estimated_from_text(self, monkeypatch, usage):
        content = {"Score": 0.5, "Reasoning": "plain and short"}
        evaluator = remote(monkeypatch, [reply(content, usage=usage)])
        request = EvaluationRequest(kind="persuasiveness", subject_texts=("t",), context={})
        evaluator.evaluate(request)
        snapshot = evaluator.ledger_snapshot()
        words = len(render_prompt(request).split()) + len(json.dumps(content).split())
        assert snapshot["totals"]["tokens"] == words
        assert snapshot["approximate"] is True

    @pytest.mark.parametrize("usage", [
        {"prompt_tokens": "n/a", "completion_tokens": 20},
        5,
        {"prompt_tokens": True, "completion_tokens": 20},
        {"prompt_tokens": -4, "completion_tokens": 20},
        {"prompt_tokens": 1.5, "completion_tokens": 20},
    ], ids=["string", "not-an-object", "boolean", "negative", "fraction"])
    def test_malformed_usage_estimated_from_text(self, monkeypatch, usage):
        # each count must be a JSON integer >= 0; anything else is no count
        content = {"Score": 0.5, "Reasoning": "plain and short"}
        evaluator = remote(monkeypatch, [reply(content, usage=usage)])
        request = EvaluationRequest(kind="persuasiveness", subject_texts=("t",), context={})
        evaluator.evaluate(request)
        snapshot = evaluator.ledger_snapshot()
        words = len(render_prompt(request).split()) + len(json.dumps(content).split())
        assert snapshot["totals"]["tokens"] == words
        assert snapshot["approximate"] is True

    def test_exact_and_estimated_usage_in_one_ledger(self, monkeypatch):
        # a ledger is approximate once any call in it was estimated
        monkeypatch.setattr(evaluator_module, "time", SimpleNamespace(monotonic=lambda: 0.0))
        exact = reply({"Score": 0.5}, usage={"prompt_tokens": 100, "completion_tokens": 20})
        estimated = reply({"Score": 0.25})
        request = EvaluationRequest(kind="persuasiveness", subject_texts=("t",),
                                    context={"community": "politics"})
        words = len(render_prompt(request).split()) + len(json.dumps({"Score": 0.25}).split())
        for replies in ([exact, estimated], [estimated, exact]):
            evaluator = remote(monkeypatch, replies)
            evaluator.evaluate(request)
            evaluator.evaluate(request)
            entry = {"llm_calls": 2, "tokens": 120 + words, "wall_time": 0.0}
            assert evaluator.ledger_snapshot() == {
                "per_community": {"politics": entry},
                "totals": entry,
                "approximate": True,
            }
        only_exact = remote(monkeypatch, [exact])
        only_exact.evaluate(request)
        assert only_exact.ledger_snapshot()["approximate"] is False


class TestEvaluateMany:
    """Many requests served in order, one ``evaluate`` call each."""

    @pytest.fixture(params=["synthetic", "remote"])
    def make(self, request, monkeypatch):
        if request.param == "synthetic":
            return lambda replies: SyntheticEvaluator(seed=2**32 + 7)
        # a fixed clock, so both ledgers meter the same latency
        monkeypatch.setattr(evaluator_module, "time", SimpleNamespace(monotonic=lambda: 0.0))
        return lambda replies: remote(monkeypatch, replies)

    def test_failure_keeps_earlier_ledger_entries(self, make, monkeypatch):
        # the fourth request scores out of range; the three before it stay
        # metered and the failing one adds nothing to the ledger
        requests = [
            ic_request("a"),
            tt_request("a"),
            EvaluationRequest(kind="plausibility", subject_texts=("a claim",), context={}),
        ]
        replies = [
            reply({"Interest Community Scores": [{"Community": c, "Score": 6} for c in COMMUNITIES]},
                  usage={"prompt_tokens": 10, "completion_tokens": 3}),
            reply({"Trust Threshold Scores": [{"Community": c, "Score": 0.4} for c in COMMUNITIES]},
                  usage={"prompt_tokens": 10, "completion_tokens": 3}),
            reply({"PlausibilityScore": 0.7}),
        ]
        failing = EvaluationRequest(kind="persuasiveness", subject_texts=("t",), context={})
        before = make(list(replies))
        expected = [before.evaluate(request) for request in requests]
        many = make(replies + [reply({"Score": 1.5})] * 2)
        if isinstance(many, SyntheticEvaluator):
            monkeypatch.setattr(many, "_eval_persuasiveness", lambda request, rng: {"score": 1.5})
        assert [many.evaluate(request) for request in requests] == expected
        with pytest.raises(MalformedEvaluatorResponse):
            many.evaluate(failing)
        assert many.ledger_snapshot() == before.ledger_snapshot()


class TestBackendSelection:
    def test_synthetic_by_default(self):
        evaluator = make_evaluator(EvaluatorConfig(), seed=1)
        assert isinstance(evaluator, SyntheticEvaluator)

    def test_remote_requires_endpoint(self):
        with pytest.raises(ScenarioError):
            make_evaluator(EvaluatorConfig(backend="remote"), seed=1)

    def test_config_round_trip(self):
        config = EvaluatorConfig(backend="remote", endpoint="https://x", model="m")
        data = json.loads(json.dumps(asdict(config)))
        assert config_from_dict(EvaluatorConfig, data, "evaluator") == config


def test_templates_render_for_every_kind():
    for request in (
        ic_request(),
        tt_request(),
        EvaluationRequest(kind="plausibility", subject_texts=("claim",), context={}),
        EvaluationRequest(
            kind="persuasiveness", subject_texts=("text",), context={"history": "h"}
        ),
    ):
        prompt = render_prompt(request)
        assert "{subject_text" not in prompt and "{communities}" not in prompt
        assert len(prompt) > 50


def test_template_read_once_per_kind(monkeypatch):
    import importlib.resources

    reads = []
    files = importlib.resources.files

    def counted(package):
        reads.append(package)
        return files(package)

    evaluator_module.load_template.cache_clear()
    monkeypatch.setattr(importlib.resources, "files", counted)
    request = EvaluationRequest(kind="plausibility", subject_texts=("claim",), context={})
    assert render_prompt(request) == render_prompt(request)
    assert reads == ["madd"]


def test_persuasiveness_prompt_states_the_stance():
    """The engine asks both stances of one message; the prompt tells them
    apart, and a request without a stance reads as an endorsement."""
    def prompt(**stance):
        context = {"history": "h", **stance}
        request = EvaluationRequest(kind="persuasiveness", subject_texts=("claim",),
                                    context=context)
        return render_prompt(request)

    endorse, dispute = prompt(stance="endorse"), prompt(stance="dispute")
    assert endorse != dispute
    assert "disputes it: they quote it to\nargue that it is false" in dispute
    assert "endorses it" in endorse and "disputes" not in endorse
    assert prompt() == endorse
    assert "{stance}" not in endorse


@given(
    st.text()
    | st.text(alphabet=st.sampled_from("abc 0٣۷߂३੬๙１²½Ⅻ⑦ see [1] doi et al.")),
)
def test_citation_markers_digit_scan_matches_per_character_scan(text):
    """Any character str.isdigit accepts counts, as with the per-character
    generator it replaced: ASCII, Arabic-Indic, Devanagari, full-width,
    superscript and circled digits; fractions and Roman numerals do not."""
    lower = text.lower()
    old = any(ch.isdigit() for ch in text) or any(m in lower for m in evaluator_module._CITATION_MARKERS)
    assert evaluator_module._has_citation_markers(text) == old


def json_dumps_bytes(request) -> bytes:
    payload = {"kind": request.kind, "texts": list(request.subject_texts),
               "context": request.context}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


COUNTS = st.integers(min_value=0, max_value=2**70)


@given(
    user=st.builds(
        UserRecord,
        user_id=st.text(),
        follower_count=COUNTS,
        following_count=COUNTS,
        description=st.text(),
        historical_texts=st.lists(st.tuples(st.text(), st.text()), max_size=4).map(tuple),
    ),
    communities=st.lists(st.text(), min_size=1, max_size=4),
    other_texts=st.lists(st.text(), max_size=2).map(tuple),
)
def test_profile_request_bytes_are_json_dumps(user, communities, other_texts):
    """The bytes that key each profile request's stream equal json.dumps of
    the payload."""
    requests = _profile_requests(user, communities)
    # the same context with other texts, and the same texts with another context
    requests += [
        EvaluationRequest(kind="trust_threshold", subject_texts=other_texts,
                          context=requests[0].context),
        EvaluationRequest(kind="interest_community", subject_texts=other_texts,
                          context={**requests[0].context, "user_id": "other"}),
    ]
    expected = [json_dumps_bytes(request) for request in requests]
    assert [request.canonical_bytes() for request in requests] == expected
