"""Exception types shared across the package."""


class MaddError(Exception):
    """Base class for all package-specific errors."""


class ScenarioError(MaddError):
    """Base class for scenario file / parameter problems."""


class MissingField(ScenarioError):
    def __init__(self, field: str, where: str = "scenario"):
        self.field = field
        super().__init__(f"missing required field '{field}' in {where}")


class RangeViolation(ScenarioError):
    """A value outside its field's constraint; the message shows at most the
    first 200 characters of its repr (then "..."), ``value`` keeps all of it."""

    def __init__(self, field: str, value, constraint: str):
        self.field = field
        self.value = value
        self.constraint = constraint
        shown = repr(value)
        if len(shown) > 200:
            shown = shown[:200] + "..."
        super().__init__(f"{field} = {shown} violates {constraint}")


class DuplicateUserId(ScenarioError):
    def __init__(self, user_id: str):
        self.user_id = user_id
        super().__init__(f"duplicate user_id {user_id!r}")


class UnknownCommunity(ScenarioError):
    def __init__(self, name: str, where: str = ""):
        self.name = name
        suffix = f" ({where})" if where else ""
        super().__init__(f"unknown community {name!r}{suffix}")


class InsufficientData(MaddError):
    """Too few samples (or too few distinct values) to run a fit."""


class DegenerateSamples(MaddError):
    """All sample values equal; the likelihood surface is flat."""


class CommunityTooSmall(ScenarioError):
    def __init__(self, community: str, size: int, m0: int):
        self.community = community
        super().__init__(
            f"community {community!r} has {size} members, fewer than m0 = {m0}"
        )


class NoCorrectionAvailable(ScenarioError):
    def __init__(self, topic: str, strategy: str):
        self.topic = topic
        self.strategy = strategy
        super().__init__(f"no {strategy} correction for topic {topic!r} in catalog")


class EvaluatorFailure(MaddError):
    """An evaluator backend failed; carries context about the request."""


class MalformedEvaluatorResponse(EvaluatorFailure):
    """Backend returned unparseable output or out-of-range scores."""


class RemoteUnavailable(EvaluatorFailure):
    """Remote backend unreachable or persistently malformed after retry."""


class MismatchedRuns(MaddError):
    """Reports being compared do not share a scenario digest and seed."""
