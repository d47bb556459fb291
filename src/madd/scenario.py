"""Run configuration: parameter ledger, user records and scenario files.

A scenario is a single JSON document (``version: 1``) bundling the numeric
parameters, the community list, the ingested user records (inline or in a
JSON/CSV sidecar referenced by ``users_file``) and the content catalog.
Loading is pure: identical bytes always produce an identical, fully
validated, effectively immutable Scenario.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from collections.abc import Mapping
from copy import deepcopy
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, repeat
from operator import lt
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .content import WINDOW_STAGES, ContentItem
from .errors import (
    DuplicateUserId,
    MissingField,
    RangeViolation,
    ScenarioError,
    UnknownCommunity,
)
from .evaluator import EvaluatorConfig

HOURS_PER_DAY = 24


@dataclass(frozen=True)
class SimulationParams:
    """Every tunable the simulation consumes, with its default.

    Ranges MF/LF are the per-bot activation-count draws; intervention
    windows are inclusive step ranges per stage, scaled to this instance's
    ``total_steps`` when not given. Construction checks every range and
    raises RangeViolation at the first breach.
    """

    theta: float = 0.5
    xi: float = 0.1
    gamma: float = 0.5
    beta: float = 0.5
    delta: float = 0.5
    tau: float = 8.0
    m0: int = 5
    m: int = 2
    total_steps: int = 72
    malicious_ratio: float = 0.15
    legitimate_ratio: float = 0.05
    malicious_freq_range: tuple[int, int] = (1, 18)
    legitimate_freq_range: tuple[int, int] = (1, 12)
    intervention_windows: dict[str, tuple[int, int]] = None  # None: scaled_windows(total_steps)
    rng_seed: int = 0

    def __post_init__(self):
        windows = self.intervention_windows
        windows = scaled_windows(self.total_steps) if windows is None else windows
        object.__setattr__(self, "intervention_windows", _Windows(windows))

        def check(cond: bool, field_name: str, value, constraint: str):
            if not cond:
                raise RangeViolation(field_name, value, constraint)

        for name in ("theta", "gamma", "beta", "delta"):
            value = getattr(self, name)
            check(0.0 < value < 1.0, name, value, "strictly inside (0, 1)")
        check(self.xi >= 0.0, "xi", self.xi, ">= 0")
        check(1.0 <= self.tau <= 10.0, "tau", self.tau, "within the 1-10 interest scale")
        check(self.m0 >= 2, "m0", self.m0, ">= 2")
        check(self.m >= 1, "m", self.m, ">= 1")
        check(self.m <= self.m0, "m", self.m, "m <= m0")
        check(self.total_steps >= 1, "total_steps", self.total_steps, ">= 1")
        # streams key on the seed's 64 bits: a seed outside them would alias one inside
        check(0 <= self.rng_seed < 2**64, "rng_seed", self.rng_seed, "within [0, 2**64)")
        for name in ("malicious_ratio", "legitimate_ratio"):
            value = getattr(self, name)
            check(0.0 <= value < 1.0, name, value, "within [0, 1)")
        check(
            self.malicious_ratio + self.legitimate_ratio < 1.0,
            "malicious_ratio+legitimate_ratio",
            self.malicious_ratio + self.legitimate_ratio,
            "< 1",
        )
        for name in ("malicious_freq_range", "legitimate_freq_range"):
            rng = getattr(self, name)
            ok = (
                len(rng) == 2
                and all(isinstance(v, int) for v in rng)
                and 0 <= rng[0] <= rng[1]
            )
            check(ok, name, rng, "integer pair 0 <= lo <= hi")
        for stage, window in self.intervention_windows.items():
            check(stage in WINDOW_STAGES, "intervention_windows", stage,
                  f"stages are {'/'.join(WINDOW_STAGES)}")
            ok = (
                len(window) == 2
                and 1 <= window[0] <= window[1] <= self.total_steps
            )
            check(ok, f"intervention_windows[{stage}]", tuple(window),
                  f"sub-range of [1, {self.total_steps}]")
            # legitimate bots activate on distinct steps inside the window
            least = self.legitimate_freq_range[0]
            check(window[1] - window[0] + 1 >= least, f"intervention_windows[{stage}]",
                  tuple(window), f"at least legitimate_freq_range[0] = {least} steps")

    def __deepcopy__(self, memo):
        return self  # frozen, with read-only windows


class _Windows(Mapping):
    """Stage windows, read-only once checked. A deep copy, and so ``asdict``,
    is a plain dict, which keeps every JSON form as it was."""

    def __init__(self, windows):
        self._windows = {stage: tuple(window) for stage, window in windows.items()}

    def __getitem__(self, stage):
        return self._windows[stage]

    def __iter__(self):
        return iter(self._windows)

    def __len__(self):
        return len(self._windows)

    def __repr__(self):
        return repr(self._windows)

    def __deepcopy__(self, memo):
        return deepcopy(self._windows, memo)


def scaled_windows(total_steps: int) -> dict:
    """Stage windows proportional to the run length (T/6, T/2, 2T/3)."""
    starts = (total_steps // 6, total_steps // 2, (2 * total_steps) // 3)
    return {stage: (max(1, start), total_steps) for stage, start in zip(WINDOW_STAGES, starts)}


def config_from_dict(cls, data, where: str):
    """Config dataclass ``cls`` built from its JSON object ``data``.

    Keys must be fields of ``cls``; absent ones take the field default.
    Every value must match the field's annotation: an int field takes an
    integer (never a bool or a float), a float field an integer or a float
    (never a bool, NaN, an infinity or an integer no double can hold) and a
    tuple field a list of that length. A range error of the record names its
    field under ``where`` ("params.gamma").
    """
    if not isinstance(data, dict):
        raise RangeViolation(where, data, "a JSON object")
    hints = get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ScenarioError(f"unknown parameter(s) in {where}: {unknown}")
    values = {name: _typed(value, hints[name], f"{where}.{name}") for name, value in data.items()}
    try:
        return cls(**values)
    except RangeViolation as exc:
        raise RangeViolation(f"{where}.{exc.field}", exc.value, exc.constraint) from exc


def _typed(value, hint, where: str):
    """``value`` checked against ``hint``; lists become tuples where it says tuple."""
    origin = get_origin(hint)
    if origin is tuple:
        args = get_args(hint)
        if isinstance(value, list) and len(value) == len(args):
            return tuple(_typed(v, arg, where) for v, arg in zip(value, args))
    elif origin is dict:
        _, value_hint = get_args(hint)
        if isinstance(value, dict):
            return {
                key: _typed(v, value_hint, f"{where}[{key}]") for key, v in value.items()
            }
    elif hint is float and type(value) in (int, float) and not abs(value) <= sys.float_info.max:
        # NaN, the infinities and integers past the largest double
        raise RangeViolation(where, value, "a finite number")
    elif type(value) is hint or (hint is float and type(value) is int):
        return value
    name = str(hint) if origin else hint.__name__
    raise RangeViolation(where, value, f"type {name}")


_COUNT_FIELDS = ("follower_count", "following_count", "post_count", "retweet_count",
                 "quote_count")


def bot_id(prefix: str, community: str, i: int) -> str:
    """The id of a community's i-th generated bot of one kind (prefix "mbot"
    or "lbot"). A Scenario reserves every id of this form for its communities."""
    return f"{prefix}_{community}_{i:03d}"


def _is_bot_id(user_id: str, communities) -> bool:
    """Whether ``user_id`` is ``bot_id(prefix, c, i)`` for a c in ``communities``."""
    if not user_id.startswith(("mbot_", "lbot_")):
        return False
    community, _, number = user_id[5:].rpartition("_")
    # the {i:03d} of an i >= 0: ASCII digits, zero-padded to three and no further
    return (community in communities and number.isascii() and number.isdigit()
            and number.lstrip("0").zfill(3) == number)


def _breaks_lines(text: str) -> bool:
    """Whether ``text`` holds a line boundary that str.splitlines splits on."""
    return "".join(text.splitlines()) != text


@dataclass(frozen=True)
class UserRecord:
    """One ingested user. Construction checks that the id, the description
    and the history are strings, that counts are >= 0 with a share total
    below 2**63 (the share-count fit reads int64) and that the activity
    histogram holds 24 counts >= 0."""

    user_id: str
    follower_count: int
    following_count: int = 0
    description: str = ""
    post_count: int = 0
    retweet_count: int = 0
    quote_count: int = 0
    historical_texts: tuple = ()
    activity_histogram: tuple = tuple([1] * HOURS_PER_DAY)

    def __post_init__(self):
        if not isinstance(self.user_id, str):
            raise RangeViolation("user_id", self.user_id, "a string")
        if (self.follower_count < 0 or self.following_count < 0 or self.post_count < 0
                or self.retweet_count < 0 or self.quote_count < 0):
            name = next(name for name in _COUNT_FIELDS if getattr(self, name) < 0)
            raise RangeViolation(f"{name}({self.user_id})", getattr(self, name), ">= 0")
        if self.share_total >= 2**63:
            raise RangeViolation(f"retweet_count+quote_count({self.user_id})", self.share_total,
                                 "< 2**63")
        if not isinstance(self.description, str):
            raise RangeViolation(f"description({self.user_id})", self.description, "a string")
        if not all(map(isinstance, chain.from_iterable(self.historical_texts), repeat(str))):
            raise RangeViolation(f"historical_texts({self.user_id})", self.historical_texts,
                                 "[kind, text] string pairs")
        if len(self.activity_histogram) != HOURS_PER_DAY:
            raise RangeViolation(f"activity_histogram({self.user_id})",
                                 len(self.activity_histogram), f"exactly {HOURS_PER_DAY} buckets")
        if any(map(lt, self.activity_histogram, repeat(0))):
            raise RangeViolation(f"activity_histogram({self.user_id})", self.activity_histogram,
                                 "counts >= 0")

    @property
    def share_total(self) -> int:
        """Reshares plus quotes: the activity count the power-law fit uses."""
        return self.retweet_count + self.quote_count

    def to_dict(self) -> dict:
        """The fields in declaration order, as stored: JSON encodes the
        tuples of ``historical_texts`` and ``activity_histogram`` as arrays."""
        return {name: getattr(self, name) for name in _USER_FIELDS}

    @classmethod
    def from_dict(cls, data) -> "UserRecord":
        """Record from a JSON object (or a CSV row's cells); absent fields take
        their defaults, an unknown key raises ScenarioError. An integer user
        id (not a boolean) reads as its decimal string. A count may arrive as
        an integer, an integral float or a numeric string ("12", 12.0 -> 12);
        a fraction or a boolean raises RangeViolation."""
        if not isinstance(data, dict):
            raise RangeViolation("user record", data, "a JSON object")
        if "user_id" not in data:
            raise MissingField("user_id", "user record")
        user_id = data["user_id"]
        if type(user_id) is int:  # a platform's numeric id
            user_id = str(user_id)
        if "follower_count" not in data:
            raise MissingField("follower_count", f"user record {user_id!r}")
        if not data.keys() <= _USER_FIELDS:
            unknown = sorted(data.keys() - _USER_FIELDS)
            raise ScenarioError(f"unknown key(s) in user record {user_id!r}: {unknown}")
        values = {**data, "user_id": user_id}
        for name, convert, expected in _READERS:
            if name in values:
                try:
                    values[name] = convert(values[name])
                except (TypeError, ValueError, OverflowError) as exc:
                    raise RangeViolation(f"{name}({user_id})", values[name], expected) from exc
        return cls(**values)


_USER_FIELDS = UserRecord.__dataclass_fields__.keys()  # in declaration order


def _count(value) -> int:
    """``value`` as an int; int() would cut 12.7 to 12 and read True as 1."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _counts(value) -> tuple:
    """Histogram cells as a tuple of ints; a list of ints is taken as it is."""
    if type(value) is list and {*map(type, value)} <= _INT:
        return tuple(value)
    return tuple(_count(count) for count in value)


_INT = frozenset((int,))


def _text_pairs(value) -> tuple:
    """``historical_texts`` as (kind, text) pairs; anything but a list of
    2-item lists raises TypeError."""
    if not isinstance(value, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in value
    ):
        raise TypeError("historical_texts must be a list of [kind, text] pairs")
    return tuple(map(tuple, value))


# (field, conversion, what the field must be) for UserRecord.from_dict
_READERS = (
    *((name, _count, "an integer") for name in _COUNT_FIELDS),
    ("historical_texts", _text_pairs, "a list of [kind, text] pairs"),
    ("activity_histogram", _counts, "a list of integer counts"),
)


@dataclass(frozen=True)
class Scenario:
    """A whole run's input. Construction stores users, communities and
    catalog as tuples and checks that communities are present and unique
    with names free of tabs, line breaks, ',' and '"', that user ids are
    unique, free of tabs and line breaks and none a generated bot's id (the
    artifacts write names and ids unquoted), and that catalog ids are unique
    with known topics."""

    params: SimulationParams
    users: tuple
    communities: tuple
    content_catalog: tuple
    evaluator_config: EvaluatorConfig = field(default_factory=EvaluatorConfig)

    def __post_init__(self):
        for name in ("users", "communities", "content_catalog"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.communities:
            raise MissingField("communities")
        if len(set(self.communities)) != len(self.communities):
            raise ScenarioError("community names must be unique")
        for name in self.communities:
            if any(c in name for c in '\t,"') or _breaks_lines(name):
                raise RangeViolation("communities", name,
                                     "a name free of tabs, line breaks, ',' and '\"'")
        user_ids: set[str] = set()
        for user in self.users:
            if user.user_id in user_ids:
                raise DuplicateUserId(user.user_id)
            if "\t" in user.user_id or _breaks_lines(user.user_id):
                raise RangeViolation("user_id", user.user_id, "an id free of tabs and line breaks")
            if _is_bot_id(user.user_id, self.communities):
                raise RangeViolation("user_id", user.user_id, "an id no generated bot takes")
            user_ids.add(user.user_id)
        content_ids: set[str] = set()
        for item in self.content_catalog:
            if item.content_id in content_ids:
                raise ScenarioError(f"duplicate content_id {item.content_id!r}")
            content_ids.add(item.content_id)
            if item.topic not in self.communities:
                raise UnknownCommunity(item.topic, f"content item {item.content_id!r}")

    def digest(self) -> str:
        """sha256 of the canonical JSON, computed once per (frozen) instance."""
        if "_digest" not in self.__dict__:
            canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            self.__dict__["_digest"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return self.__dict__["_digest"]

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "params": asdict(self.params),
            "communities": list(self.communities),
            "users": [u.to_dict() for u in self.users],
            "content_catalog": [c.to_dict() for c in self.content_catalog],
            "evaluator": asdict(self.evaluator_config),
        }

    def disinformation_for(self, topic: str | None) -> ContentItem:
        """The catalog's claim on ``topic``; its first claim when topic is None."""
        for item in self.content_catalog:
            if item.kind == "disinformation" and topic in (None, item.topic):
                return item
        if topic is None:
            raise ScenarioError("content catalog holds no disinformation item")
        raise UnknownCommunity(topic, "no disinformation item for this topic")


def scenario_from_dict(data, base_dir: Path | None = None) -> Scenario:
    if not isinstance(data, dict):
        raise RangeViolation("scenario", data, "a JSON object")
    if "version" not in data:
        raise MissingField("version", "scenario (expected version: 1)")
    version = data["version"]
    if type(version) is not int or version != 1:  # not true, not 1.0
        raise RangeViolation("version", version, "1")
    unknown = set(data) - {"version", "params", "communities", "users", "users_file",
                           "content_catalog", "evaluator"}
    if unknown:
        raise ScenarioError(f"unknown key(s) in scenario: {sorted(unknown)}")
    if "communities" not in data:
        raise MissingField("communities")
    communities = data["communities"]
    if not isinstance(communities, list) or not all(isinstance(c, str) for c in communities):
        raise RangeViolation("communities", communities, "a JSON array of names")
    params = config_from_dict(SimulationParams, data.get("params", {}), "params")

    if "users" in data and "users_file" in data:
        raise ScenarioError("scenario holds both users and users_file; give one of them")
    if "users" in data:
        users = _records(data["users"], "users", UserRecord.from_dict)
    elif "users_file" in data:
        if base_dir is None:
            raise ScenarioError("users_file reference requires a scenario path")
        if not isinstance(data["users_file"], str):
            raise RangeViolation("users_file", data["users_file"], "a file name")
        users = _load_user_sidecar(base_dir / data["users_file"])
    else:
        raise MissingField("users")

    catalog = _records(data.get("content_catalog", []), "content_catalog", ContentItem.from_dict)
    evaluator_config = config_from_dict(EvaluatorConfig, data.get("evaluator", {}), "evaluator")
    return Scenario(params, users, communities, catalog, evaluator_config)


def _records(rows, where: str, build) -> tuple:
    if not isinstance(rows, list):
        raise RangeViolation(where, rows, "a JSON array")
    return tuple(map(build, rows))


def _read_json(path: Path, what: str):
    """Parsed JSON file; unreadable or malformed files are ScenarioErrors."""
    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{what} {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{what} {path} is nested too deep for the JSON reader") from exc


def _read_text(path: Path, what: str) -> str:
    """File text without newline translation (CSV quoting needs raw line ends)
    and without a leading UTF-8 byte-order mark, as spreadsheet exports write."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Load, default-fill and validate a scenario JSON file."""
    path = Path(path)
    return scenario_from_dict(_read_json(path, "scenario file"), base_dir=path.parent)


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(
        json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


_CSV_COLUMNS = _USER_FIELDS - {"historical_texts"}


def _load_user_sidecar(path: Path) -> tuple:
    suffix = path.suffix.lower()
    if suffix == ".json":
        return _records(_read_json(path, "users_file"), "users_file", UserRecord.from_dict)
    if suffix != ".csv":
        raise ScenarioError(f"unsupported users_file extension: {path.suffix!r}")
    reader = csv.DictReader(io.StringIO(_read_text(path, "users_file"), newline=""))
    try:
        return tuple(UserRecord.from_dict(_csv_cells(row)) for row in reader)
    except csv.Error as exc:  # e.g. a cell past csv.field_size_limit(), a process-wide setting
        # DictReader.line_num counts only the rows it returned; its csv reader's
        # counts the line being read
        raise ScenarioError(f"users_file {path} line {reader.reader.line_num}: {exc}") from exc


def _csv_cells(row: dict) -> dict:
    """A CSV row as a user record's fields; an empty count or histogram cell
    reads as an absent column, so its default applies, and a column (or a
    cell past the header) outside ``_CSV_COLUMNS`` raises ScenarioError.

    The histogram cell is a bracketed array of 24 integers, comma-free so
    the CSV stays unquoted ("[0 1 2 ...]"); commas are tolerated anyway. Its
    tokens are converted to counts with the rest of the record.
    """
    unknown = set(row) - _CSV_COLUMNS
    if unknown:
        raise ScenarioError(f"unknown column(s) in users_file row {row.get('user_id')!r}: "
                            f"{sorted(map(str, unknown))}")
    cells = {
        key: value for key, value in row.items()
        if key != "activity_histogram" and (value or key in ("user_id", "description"))
    }
    histogram = (row.get("activity_histogram") or "").strip()
    if histogram:
        cells["activity_histogram"] = histogram.strip("[]").replace(",", " ").split()
    return cells


def defaults_as_json() -> str:
    """The simulation parameter defaults, exactly as configured, as printed
    by ``madd defaults``."""
    return json.dumps(asdict(SimulationParams()), indent=2, sort_keys=True)


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    """Copy of the scenario with its RNG seed replaced."""
    if seed == scenario.params.rng_seed:
        return scenario
    return replace(scenario, params=replace(scenario.params, rng_seed=seed))
