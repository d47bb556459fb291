import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from madd.attributes import (
    KIND_MBOT,
    KIND_REGULAR,
    AgentProfile,
    activation_probability,
    derive_profiles,
    dissemination_tendency,
    normalize_histogram,
    share_base,
    social_influence,
)
from madd.errors import EvaluatorFailure
from madd.evaluator import SyntheticEvaluator, make_evaluator
from madd.network import assign_communities
from madd.scenario import SimulationParams
from madd.synthdata import build_synthetic_scenario


class FixedCdf:
    """Stand-in distribution with a pinned CDF value."""

    def __init__(self, value):
        self.value = value

    def cdf(self, x):
        return self.value


def regular(ic=None, share_total=25):
    return AgentProfile(
        agent_id="u1",
        kind=KIND_REGULAR,
        interest_scores=ic or {"a": 10.0, "b": 5.0},
        trust_thresholds={"a": 0.5, "b": 0.5},
        share_total=share_total,
    )


def tendency(profile, community, fit, params, exposure_n):
    """dissemination_tendency of a profile's share_base."""
    base = share_base(profile, community, fit, params)
    return dissemination_tendency(base, params.xi, exposure_n)


class TestDisseminationTendency:
    def params(self, **kw):
        return SimulationParams(**kw)

    def test_hand_derived_mix(self):
        # theta 0.5, cdf 0.8, top-interest community, no re-exposure
        value = tendency(regular(), "a", FixedCdf(0.8), self.params(), 0)
        assert abs(value - 0.9) < 1e-12

    def test_heavy_reexposure_drives_tendency_to_zero(self):
        value = tendency(regular(), "a", FixedCdf(0.8), self.params(xi=0.1), 200)
        assert value < 1e-8

    def test_theta_zero_reduces_to_interest_ratio(self):
        value = tendency(regular(), "b", FixedCdf(0.8), self.params(theta=1e-9), 0)
        assert abs(value - 0.5) < 1e-6

    @given(n=st.integers(min_value=0, max_value=50))
    def test_monotone_nonincreasing_in_exposure(self, n):
        params = self.params()
        a = tendency(regular(), "a", FixedCdf(0.5), params, n)
        b = tendency(regular(), "a", FixedCdf(0.5), params, n + 1)
        assert b <= a + 1e-12

    @given(ic=st.floats(min_value=1.0, max_value=9.0), bump=st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_nondecreasing_in_interest(self, ic, bump):
        params = self.params()
        low = regular(ic={"a": 10.0, "b": ic})
        high = regular(ic={"a": 10.0, "b": min(10.0, ic + bump)})
        a = tendency(low, "b", FixedCdf(0.5), params, 0)
        b = tendency(high, "b", FixedCdf(0.5), params, 0)
        assert b >= a - 1e-12


class TestSocialInfluence:
    def test_normalization(self):
        scores = social_influence([("a", 100), ("b", 300), ("c", 600)])
        assert scores == {"a": 0.1, "b": 0.3, "c": 0.6}

    def test_single_member(self):
        assert social_influence([("a", 42)]) == {"a": 1.0}

    def test_all_zero_followers_fall_back_uniform(self, caplog):
        with caplog.at_level("WARNING"):
            scores = social_influence([("a", 0), ("b", 0)])
        assert scores == {"a": 0.5, "b": 0.5}
        assert any("zero followers" in r.message for r in caplog.records)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            social_influence([])

    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=4), st.integers(min_value=0, max_value=10**6)),
            min_size=1,
            max_size=30,
            unique_by=lambda pair: pair[0],
        )
    )
    def test_sums_to_one(self, followers):
        scores = social_influence(followers)
        assert abs(sum(scores.values()) - 1.0) <= 1e-9


class TestActivationProbability:
    def test_uniform_histogram(self):
        profile = regular()
        profile.activation_probs = normalize_histogram([3] * 24)
        for t in (1, 13, 24, 25, 72):
            assert abs(activation_probability(profile, t) - 1 / 24) < 1e-12

    def test_point_mass_histogram(self):
        histogram = [0] * 24
        histogram[9] = 7
        profile = regular()
        profile.activation_probs = normalize_histogram(histogram)
        assert activation_probability(profile, 10) == 1.0  # (10-1) % 24 == 9
        assert activation_probability(profile, 11) == 0.0
        assert activation_probability(profile, 34) == 1.0  # next day, same hour

    def test_counting_normalization(self):
        histogram = [2, 1, 1] + [0] * 21
        assert normalize_histogram(histogram)[:3] == (0.5, 0.25, 0.25)

    def test_all_zero_histogram_uniform(self):
        assert normalize_histogram([0] * 24) == tuple([1 / 24] * 24)


class TestDeriveProfiles:
    def test_no_bots_when_ratios_zero(self):
        scenario = build_synthetic_scenario(
            n_users=80,
            communities=("alpha",),
            seed=2,
            malicious_ratio=0.0,
            legitimate_ratio=0.0,
        )
        profiles = derive_profiles(
            scenario, make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
        )
        assert len(profiles) == 80
        assert all(p.kind == KIND_REGULAR for p in profiles)

    def test_bot_counts_match_community_sizes(self, small_world):
        scenario, profiles, index, _, _ = small_world
        regulars = [p for p in profiles if p.kind == KIND_REGULAR]
        regular_index = assign_communities(regulars, scenario.params.tau, scenario.communities)
        for community in scenario.communities:
            size = len(regular_index[community])
            mbots = [
                p for p in profiles if p.kind == KIND_MBOT and p.home_community() == community
            ]
            expected = max(1, int(math.floor(0.15 * size + 0.5)))
            assert len(mbots) == expected

    def test_bot_trust_pinned_to_one(self, small_world):
        _, profiles, _, _, _ = small_world
        for profile in profiles:
            if profile.is_bot:
                assert all(v == 1.0 for v in profile.trust_thresholds.values())

    def test_influence_sums_to_one_per_community(self, small_world):
        scenario, profiles, index, _, _ = small_world
        by_id = {p.agent_id: p for p in profiles}
        for community, members in index.items():
            total = sum(by_id[m].social_influence.get(community, 0.0) for m in members)
            assert abs(total - 1.0) <= 1e-9

    def test_profiles_sorted_by_agent_id(self, small_world):
        _, profiles, _, _, _ = small_world
        ids = [p.agent_id for p in profiles]
        assert ids == sorted(ids)

    def test_deterministic(self):
        scenario = build_synthetic_scenario(n_users=60, communities=("alpha",), seed=9)
        a = derive_profiles(scenario, SyntheticEvaluator(seed=9))
        b = derive_profiles(scenario, SyntheticEvaluator(seed=9))
        assert [p.to_dict() for p in a] == [p.to_dict() for p in b]

    def test_trust_scored_by_default_and_only_trust_dropped_without_it(self, small_scenario):
        seed = small_scenario.params.rng_seed
        full = derive_profiles(small_scenario, SyntheticEvaluator(seed=seed))
        lean = derive_profiles(small_scenario, SyntheticEvaluator(seed=seed), trust=False)
        assert all(set(p.trust_thresholds) == set(small_scenario.communities) for p in full)
        # requests draw from their own streams: skipping the trust requests
        # moves no interest score, community, influence or bot
        assert [p.agent_id for p in lean] == [p.agent_id for p in full]
        for f, p in zip(full, lean):
            expected = f.to_dict() if f.is_bot else {**f.to_dict(), "trust_thresholds": {}}
            assert p.to_dict() == expected

    def test_evaluator_failure_carries_user_context(self):
        scenario = build_synthetic_scenario(n_users=60, communities=("alpha",), seed=9)

        class Failing(SyntheticEvaluator):
            def evaluate(self, request):
                raise EvaluatorFailure("backend down")

        with pytest.raises(EvaluatorFailure, match="user_00000"):
            derive_profiles(scenario, Failing(seed=9))


def test_paper_world_setup_ledger_pinned(paper_scenario):
    """Profile scoring meters one call per request, in the global bucket,
    with the synthetic backend's whitespace-token estimate."""
    evaluator = make_evaluator(paper_scenario.evaluator_config, paper_scenario.params.rng_seed)
    derive_profiles(paper_scenario, evaluator)
    entry = {"llm_calls": 1378, "tokens": 100126, "wall_time": 0.0}
    assert evaluator.ledger_snapshot() == {
        "per_community": {"global": entry},
        "totals": entry,
        "approximate": True,
    }


def test_trust_scores_cluster_around_half(paper_world):
    _, profiles, _, _, _ = paper_world
    values = [
        v
        for p in profiles
        if not p.is_bot
        for v in p.trust_thresholds.values()
    ]
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.05
