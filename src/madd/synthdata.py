"""Synthetic scenario generation.

Produces fully populated, deterministic scenario files without touching any
real platform data: heavy-tailed follower and share counts, spiky
hour-of-day activity histograms, bland placeholder texts and a per-community
content catalog (one false claim plus one evidence-style and one
story-style correction). Useful for demos, tests and benchmarks.

Run as a module to write a scenario file:

    python -m madd.synthdata --users 689 --seed 7 --out scenario.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import rng as rngmod
from .content import ContentItem
from .errors import ScenarioError
from .scenario import (
    HOURS_PER_DAY,
    Scenario,
    SimulationParams,
    UserRecord,
    save_scenario,
)

DEFAULT_COMMUNITIES = (
    "business",
    "education",
    "entertainment",
    "politics",
    "sports",
    "technology",
)

_TOPIC_NOUNS = {
    "business": "a listed company's quarterly filings",
    "education": "a national exam grading change",
    "entertainment": "an award ceremony's vote tally",
    "politics": "a committee's inquiry files",
    "sports": "a league's transfer deadline ruling",
    "technology": "a device safety recall notice",
}


SHARE_ALPHA = 1.5
SHARE_LAMBDA = 0.012
SHARE_X_MIN = 10
SHARE_BULK_FRACTION = 0.8
FOLLOWER_EXPONENT = 2.5
FOLLOWER_CAP = 5_000_000


def sample_share_counts(rng, n: int):
    """Share totals: a low-activity bulk below SHARE_X_MIN plus a truncated
    power-law tail, mirroring how real share counts concentrate near zero
    with a heavy upper tail."""
    alpha, lam, x_min = SHARE_ALPHA, SHARE_LAMBDA, SHARE_X_MIN
    hi = x_min
    while True:
        ks = np.arange(x_min, hi + 1, dtype=np.float64)
        w = ks**-alpha * np.exp(-lam * ks)
        tail = np.exp(-lam * (hi + 1)) * (hi + 1) ** -alpha / lam
        if tail < 1e-9 * w.sum():
            break
        hi *= 2
    probs = w / w.sum()
    tail_draws = rng.choice(ks.astype(np.int64), size=n, p=probs)
    bulk_draws = rng.integers(0, x_min, size=n)
    is_bulk = rng.random(n) < SHARE_BULK_FRACTION
    return np.where(is_bulk, bulk_draws, tail_draws)


def sample_follower_counts(rng, n: int):
    raw = rng.zipf(FOLLOWER_EXPONENT, size=n).astype(np.int64)
    return np.minimum(raw * 40, FOLLOWER_CAP)  # scaled so typical accounts have tens of followers


def make_history(rng, user_id: str, n_texts: int) -> tuple:
    kinds = ("post", "retweet", "quote")
    fragments = (
        "sharing some thoughts on this week's developments",
        "interesting read, worth a closer look",
        "not sure this holds up, does anyone have a source",
        "great discussion at the meetup yesterday",
        "numbers from the latest survey look off to me",
        "bookmarking this thread for later",
    )
    texts = []
    for i in range(n_texts):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        fragment = fragments[int(rng.integers(0, len(fragments)))]
        texts.append((kind, f"{fragment} ({user_id}-{i})"))
    return tuple(texts)


def make_histogram(rng) -> tuple:
    """Counts of 1-29 on 4-10 active hours, so never all zero."""
    active_hours = rng.choice(HOURS_PER_DAY, size=int(rng.integers(4, 11)), replace=False)
    histogram = [0] * HOURS_PER_DAY
    for hour in active_hours:
        histogram[int(hour)] = int(rng.integers(1, 30))
    return tuple(histogram)


def build_users(n_users: int, seed: int) -> tuple:
    rng = rngmod.substream(seed, "synthdata-users")
    followers = sample_follower_counts(rng, n_users)
    shares = sample_share_counts(rng, n_users)
    users = []
    for i in range(n_users):
        user_id = f"user_{i:05d}"
        share_total = int(shares[i])
        retweets = int(round(share_total * 0.7))
        users.append(
            UserRecord(
                user_id=user_id,
                follower_count=int(followers[i]),
                following_count=int(rng.integers(10, 900)),
                description=f"synthetic account {user_id}",
                post_count=int(rng.integers(0, 60)),
                retweet_count=retweets,
                quote_count=share_total - retweets,
                historical_texts=make_history(rng, user_id, int(rng.integers(2, 5))),
                activity_histogram=make_histogram(rng),
            )
        )
    return tuple(users)


def build_catalog(communities) -> tuple:
    items = []
    for community in communities:
        noun = _TOPIC_NOUNS.get(community, f"a {community} story")
        items.append(
            ContentItem(
                content_id=f"disinfo_{community}",
                topic=community,
                kind="disinformation",
                text=(
                    f"Viral claim says every trace of {noun} was quietly wiped "
                    "out overnight!! Nobody is covering it, wake up."
                ),
            )
        )
        items.append(
            ContentItem(
                content_id=f"fact_{community}",
                topic=community,
                kind="correction",
                strategy="fact_based",
                text=(
                    f"The registry covering {noun} is intact: all 3,214 filings "
                    "plus the 60-page audit summary were published on 12 March "
                    "and remain downloadable from the archive."
                ),
            )
        )
        items.append(
            ContentItem(
                content_id=f"narrative_{community}",
                topic=community,
                kind="correction",
                strategy="narrative_based",
                text=(
                    f"I worked on the team that handled {noun}. We boxed every file "
                    "ourselves and walked them to the public reading room; anyone "
                    "can still ask the desk to see them, like I did last week."
                ),
            )
        )
    return tuple(items)


def build_synthetic_scenario(
    n_users: int = 689,
    communities=DEFAULT_COMMUNITIES,
    seed: int = 7,
    **param_overrides,
) -> Scenario:
    return Scenario(
        params=SimulationParams(**{"rng_seed": seed, **param_overrides}),
        users=build_users(n_users, seed),
        communities=communities,
        content_catalog=build_catalog(communities),
    )


def _users(text: str) -> int:
    """--users, checked while parsing so a bad value writes nothing."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"users = {text} violates >= 1")
    return int(text)


def main(argv=None) -> int:
    # flags left out take build_synthetic_scenario's defaults
    parser = argparse.ArgumentParser(
        description="Write a synthetic scenario file.", argument_default=argparse.SUPPRESS
    )
    parser.add_argument("--users", type=_users, dest="n_users")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--communities", nargs="+")
    parser.add_argument("--total-steps", type=int)
    parser.add_argument("--out", required=True)
    kwargs = vars(parser.parse_args(argv))
    out = kwargs.pop("out")
    try:
        scenario = build_synthetic_scenario(**kwargs)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save_scenario(scenario, out)
    print(f"wrote {out} ({len(scenario.users)} users, {len(scenario.communities)} communities)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
