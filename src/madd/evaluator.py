"""Pluggable content/profile scoring with resource metering.

All judgment calls the simulation delegates to a language model flow through
one contract: build an :class:`EvaluationRequest`, call ``evaluate``, read
its scores dict back, each passed through :func:`_check_score`;
``evaluate_many`` does the same for a list of requests, in order, one
``evaluate`` call each. Two backends implement it:

* ``SyntheticEvaluator`` - the default. Every response is a pure function of
  (request bytes, scenario seed), drawn from fixed per-kind
  distributions, so whole runs replay bit-for-bit offline.
* ``RemoteEvaluator`` - renders a prompt template, POSTs it to a
  chat-completion endpoint and parses the strict JSON reply, with one
  retry on malformed output.

Both meter each ``evaluate`` call with one ``ResourceLedger.record`` under
the request's community, and neither keeps a memo: the engine asks each
receiver's persuasiveness question once per run and keeps the answer itself.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache, lru_cache

from . import rng as rngmod
from .errors import MalformedEvaluatorResponse, RangeViolation, RemoteUnavailable, ScenarioError

# request kind: (score range, remote reply key, one score per community)
_KINDS = {
    "interest_community": ((1.0, 10.0), "Interest Community Scores", True),
    "trust_threshold": ((0.0, 1.0), "Trust Threshold Scores", True),
    "plausibility": ((0.0, 1.0), "PlausibilityScore", False),
    "persuasiveness": ((0.0, 1.0), "Score", False),
}

GLOBAL_BUCKET = "global"
# the persuasiveness prompt's words on the sender's stance; none reads as an endorsement
_ENDORSE = "The person who shared this message with you endorses it."
_DISPUTE = ("The person who shared this message with you disputes it: they quote it to\n"
            "argue that it is false. Judge how persuasive their dispute is.")


@dataclass(frozen=True)
class EvaluationRequest:
    kind: str
    subject_texts: tuple[str, ...] = ()
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        object.__setattr__(self, "subject_texts", tuple(self.subject_texts))

    def canonical_bytes(self) -> bytes:
        """``json.dumps({"kind", "texts", "context"}, sort_keys=True,
        separators=(",", ":"))`` of the request, UTF-8 encoded."""
        return _encode({"kind": self.kind, "texts": self.subject_texts,
                        "context": self.context}).encode()


# json.dumps builds an encoder per call when given options; this one is built
# once. Its output is ASCII, and a tuple encodes as a JSON array.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class ResourceLedger:
    """Per-community call/token/time accounting. Thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        # per community: [llm calls, tokens, wall time]
        self._per_community: defaultdict[str, list] = defaultdict(lambda: [0, 0, 0.0])
        self._approximate = False

    def record(self, community: str, tokens: int, latency: float, approximate: bool) -> None:
        """One evaluate call: its tokens, its latency in seconds, and whether
        the tokens are an estimate rather than the provider's count."""
        with self._lock:
            entry = self._per_community[community]
            entry[0] += 1
            entry[1] += tokens
            entry[2] += latency
            self._approximate = self._approximate or approximate

    def snapshot(self) -> dict:
        with self._lock:
            per_community = {
                name: {"llm_calls": calls, "tokens": tokens, "wall_time": wall_time}
                for name, (calls, tokens, wall_time) in sorted(self._per_community.items())
            }
            approximate = self._approximate
        totals = {
            key: sum(e[key] for e in per_community.values())
            for key in ("llm_calls", "tokens", "wall_time")
        }
        return {"per_community": per_community, "totals": totals, "approximate": approximate}


# Synthetic backend distributions. They encode the directional assumptions
# the simulation rests on: trust thresholds cluster around a neutral 0.5,
# users score high in one home community and low elsewhere, and
# evidence-citing corrections land as slightly more persuasive than
# narrative ones or than the disinformation they counter.
TT_MEAN, TT_STD = 0.5, 0.15
IC_HOME_MEAN, IC_HOME_STD = 9.0, 0.8
# non-home interest: a low exponential mode plus a small chance of a
# genuine second interest strong enough to clear community thresholds
IC_OTHER_SCALE = 0.8
IC_CROSS_PROB, IC_CROSS_MEAN, IC_CROSS_STD = 0.02, 8.5, 0.8
# (a, b) beta shapes per persuasiveness class
FACT_SHAPE = (5.0, 3.0)
NARRATIVE_SHAPE = (4.0, 4.0)
DISINFO_SHAPE = (2.0, 7.0)
DISPUTE_SHAPE = (7.0, 2.0)
CITATION_BONUS = 0.1
PLAUSIBILITY_BASE, PLAUSIBILITY_NOISE = 0.62, 0.05


@dataclass(frozen=True)
class EvaluatorConfig:
    backend: str = "synthetic"
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "MADD_LLM_API_KEY"
    timeout: float = 60.0
    max_in_flight: int = 4

    def __post_init__(self):
        if not self.timeout > 0.0:
            raise RangeViolation("timeout", self.timeout, "> 0")
        if self.max_in_flight < 1:
            raise RangeViolation("max_in_flight", self.max_in_flight, ">= 1")


_CITATION_MARKERS = (
    "report",
    "according to",
    "official",
    "data",
    "record",
    "study",
    "evidence",
    "published",
    "transcript",
)


@lru_cache(maxsize=256)
def _has_citation_markers(text: str) -> bool:
    # a property of the text alone, asked of the same few item texts on
    # every persuasiveness request, so it is kept per text
    lower = text.lower()
    return any(map(str.isdigit, text)) or any(m in lower for m in _CITATION_MARKERS)


def _whitespace_tokens(*texts: str) -> int:
    return sum(len(t.split()) for t in texts)


def _check_score(kind: str, key: str, value) -> float:
    """``value`` as a ``kind`` score from either backend. A number-like
    string reads as its number and "Insufficient Data" as the range floor
    (no evidence reads as minimal interest or trust); any other non-number,
    a bool included, or a value outside the range raises."""
    lo, hi = _KINDS[kind][0]
    if isinstance(value, str):
        if value.strip().lower() == "insufficient data":
            return lo
        try:
            value = float(value)
        except ValueError:
            pass  # still a str: non-numeric below
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedEvaluatorResponse(f"{kind} score {key!r}: non-numeric score {value!r}")
    if not lo <= value <= hi:  # NaN compares false
        raise MalformedEvaluatorResponse(f"{kind} score {key!r} = {value!r} outside [{lo}, {hi}]")
    return float(value)


class Evaluator:
    """Backend-independent surface the rest of the package talks to.

    Subclasses implement ``evaluate``; ``evaluate_many`` serves a list of
    requests through it, in order.
    """

    def __init__(self):
        self.ledger = ResourceLedger()

    def evaluate(self, request: EvaluationRequest) -> dict:
        """The request's checked scores; every call is metered."""
        raise NotImplementedError

    def evaluate_many(self, requests) -> Iterator[dict]:
        """``self.evaluate`` of each request, in request order.

        Each request is evaluated when its result is read, so a failure
        surfaces at its own request, after the requests before it have been
        scored and metered.
        """
        return map(self.evaluate, requests)

    def ledger_snapshot(self) -> dict:
        return self.ledger.snapshot()

    def persuasiveness(
        self,
        text: str,
        *,
        content_kind: str,
        strategy: str,
        stance: str,
        receiver_history: str,
        community: str,
    ) -> float:
        """Persuasive strength of a message for one receiver, in [0, 1]."""
        return self.evaluate(
            EvaluationRequest(
                kind="persuasiveness",
                subject_texts=(text,),
                context={
                    "content_kind": content_kind,
                    "strategy": strategy,
                    "stance": stance,
                    "history": receiver_history,
                    "community": community,
                },
            )
        )["score"]


class SyntheticEvaluator(Evaluator):
    """Deterministic offline backend: scores are seeded draws, not opinions.

    Each request draws from its own stream, ``rng.substream(seed,
    "evaluator", request.canonical_bytes())``, so a request's scores do not
    depend on the requests before it or on how they are listed.
    """

    def __init__(self, seed: int):
        super().__init__()
        self.seed = int(seed)

    def evaluate(self, request: EvaluationRequest) -> dict:
        """Scores drawn from the request's own stream."""
        rng = rngmod.substream(self.seed, "evaluator", request.canonical_bytes())
        kind = request.kind
        scores = {
            name: _check_score(kind, name, value)
            for name, value in getattr(self, f"_eval_{kind}")(request, rng).items()
        }
        # estimated tokens: the subject's words in, eight per score out; a
        # latency of 0 keeps reports byte-identical across replays
        tokens = _whitespace_tokens(*request.subject_texts) + 8 * max(1, len(scores))
        self.ledger.record(request.context.get("community", GLOBAL_BUCKET), tokens, 0.0, True)
        return scores

    # -- per-kind handlers ---------------------------------------------------

    def _eval_interest_community(self, request: EvaluationRequest, rng) -> dict:
        communities = request.context["communities"]
        home = int(rng.integers(0, len(communities)))
        scores = {}
        for i, community in enumerate(communities):
            if i == home:
                value = rng.normal(IC_HOME_MEAN, IC_HOME_STD)
            elif rng.random() < IC_CROSS_PROB:
                value = rng.normal(IC_CROSS_MEAN, IC_CROSS_STD)
            else:
                value = 1.0 + rng.exponential(IC_OTHER_SCALE)
            scores[community] = min(10.0, max(1.0, float(value)))
        return scores

    def _eval_trust_threshold(self, request: EvaluationRequest, rng) -> dict:
        communities = request.context["communities"]
        # one array draw gives the doubles of len(communities) scalar draws
        draws = rng.normal(TT_MEAN, TT_STD, len(communities)).tolist()
        return {community: min(1.0, max(0.0, v)) for community, v in zip(communities, draws)}

    def _eval_plausibility(self, request: EvaluationRequest, rng) -> dict:
        text = request.subject_texts[0] if request.subject_texts else ""
        if not text.strip():
            return {"score": 0.0}
        value = PLAUSIBILITY_BASE
        if _has_citation_markers(text):
            value += 0.08
        exclaim = text.count("!") / max(1, len(text.split()))
        value -= min(0.15, exclaim)
        caps = sum(1 for w in text.split() if len(w) > 2 and w.isupper())
        value -= min(0.1, 0.02 * caps)
        value += float(rng.uniform(-PLAUSIBILITY_NOISE, PLAUSIBILITY_NOISE))
        return {"score": min(0.95, max(0.05, value))}

    def _eval_persuasiveness(self, request: EvaluationRequest, rng) -> dict:
        text = request.subject_texts[0] if request.subject_texts else ""
        if not text.strip():
            return {"score": 0.0}
        kind = request.context.get("content_kind", "disinformation")
        strategy = request.context.get("strategy", "none")
        stance = request.context.get("stance", "endorse")
        if kind == "correction":
            shape = FACT_SHAPE if strategy == "fact_based" else NARRATIVE_SHAPE
        elif stance == "dispute":
            shape = DISPUTE_SHAPE
        else:
            shape = DISINFO_SHAPE
        value = float(rng.beta(*shape))
        if _has_citation_markers(text):
            value += CITATION_BONUS
        else:
            value -= CITATION_BONUS / 2.0
        return {"score": min(1.0, max(0.0, value))}


class RemoteEvaluator(Evaluator):
    """Chat-completion client enforcing the strict JSON output contract."""

    def __init__(self, config: EvaluatorConfig):
        super().__init__()
        if not config.endpoint:
            raise ScenarioError("remote backend requires an endpoint URL")
        self.config = config
        self._semaphore = threading.BoundedSemaphore(max(1, config.max_in_flight))
        self._session = None

    # -- transport -----------------------------------------------------------

    def _post(self, prompt: str) -> dict:
        import requests  # imported lazily: offline runs never touch it

        if self._session is None:
            self._session = requests.Session()
        key = os.environ.get(self.config.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
        }
        with self._semaphore:
            reply = self._session.post(
                self.config.endpoint,
                json=payload,
                headers=headers,
                timeout=self.config.timeout,
            )
        reply.raise_for_status()
        return reply.json()

    def evaluate(self, request: EvaluationRequest) -> dict:
        prompt = render_prompt(request)
        last_error: Exception | None = None
        for _ in range(2):  # one retry on malformed output
            start = time.monotonic()
            try:
                raw = self._post(prompt)
            except Exception as exc:  # transport failure
                last_error = exc
                continue
            latency = time.monotonic() - start
            try:
                scores = self._parse(request, raw)
            except MalformedEvaluatorResponse as exc:
                last_error = exc
                continue
            tokens, approximate = _reply_tokens(prompt, raw)
            self.ledger.record(
                request.context.get("community", GLOBAL_BUCKET), tokens, latency, approximate
            )
            return scores
        if isinstance(last_error, MalformedEvaluatorResponse):
            raise last_error
        raise RemoteUnavailable(f"remote evaluator failed after retry: {last_error}")

    # -- parsing -------------------------------------------------------------

    def _parse(self, request: EvaluationRequest, raw: dict) -> dict:
        content = _reply_content(raw)
        try:
            body = json.loads(content)
        except (TypeError, json.JSONDecodeError) as exc:
            raise MalformedEvaluatorResponse(f"reply is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise MalformedEvaluatorResponse("reply JSON is not an object")

        kind = request.kind
        _, key, per_community = _KINDS[kind]
        if not per_community:
            return {"score": _check_score(kind, "score", body.get(key))}
        rows = body.get(key)  # one row per community
        if not isinstance(rows, list):
            raise MalformedEvaluatorResponse(f"missing {key!r} list")
        scores = {}
        for row in rows:
            community = row.get("Community") if isinstance(row, dict) else None
            if not isinstance(community, str):
                raise MalformedEvaluatorResponse(f"bad row in {key!r}: {row!r}")
            if community in scores:
                raise MalformedEvaluatorResponse(f"{community!r} scored twice in {key!r}")
            scores[community] = _check_score(kind, community, row.get("Score"))
        expected = request.context.get("communities", ())
        missing = [c for c in expected if c not in scores]
        if missing:
            raise MalformedEvaluatorResponse(f"communities missing from reply: {missing}")
        return {c: scores[c] for c in expected}


def _reply_content(raw: dict) -> str:
    try:
        return raw["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedEvaluatorResponse(f"no message content in reply: {exc}") from exc


def _reply_tokens(prompt: str, raw: dict) -> tuple[int, bool]:
    """(tokens, approximate) for one reply: the provider's prompt plus completion
    counts when its ``usage`` object holds both as integers >= 0, not booleans; else
    the whitespace tokens of the prompt and of the reply content as an estimate."""
    usage = raw["usage"] if isinstance(raw.get("usage"), dict) else {}
    counts = usage.get("prompt_tokens"), usage.get("completion_tokens")
    if all(type(count) is int and count >= 0 for count in counts):
        return sum(counts), False
    return _whitespace_tokens(prompt, _reply_content(raw)), True


@cache  # at most one entry per request kind
def load_template(kind: str) -> str:
    from importlib import resources

    return resources.files("madd").joinpath("prompts", f"{kind}.txt").read_text("utf-8")


def render_prompt(request: EvaluationRequest) -> str:
    template = load_template(request.kind)
    ctx = request.context
    texts = request.subject_texts
    values = {
        "communities": ", ".join(ctx.get("communities", ())),
        "subject_text": texts[0] if texts else "",
        "subject_texts": "\n".join(texts),
        "history": ctx.get("history", ""),
        "description": ctx.get("description", ""),
        "follower_count": ctx.get("follower_count", ""),
        "following_count": ctx.get("following_count", ""),
        "stance": _DISPUTE if ctx.get("stance") == "dispute" else _ENDORSE,
    }
    return template.format(**values)


def make_evaluator(config: EvaluatorConfig, seed: int) -> Evaluator:
    """Instantiate the configured backend; only 'remote' may touch a network."""
    if config.backend == "synthetic":
        return SyntheticEvaluator(seed=seed)
    if config.backend == "remote":
        return RemoteEvaluator(config)
    raise ScenarioError(f"unknown evaluator backend {config.backend!r}")
