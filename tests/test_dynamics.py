import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from madd.dynamics import believe_disinformation, discernment, update_trust
from madd.scenario import SimulationParams

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
open_unit = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
pairs = st.lists(st.tuples(unit, unit), max_size=8)
DEFAULTS = SimulationParams()


def trust_after(tt, corr=(), dis=(), gamma=DEFAULTS.gamma, beta=DEFAULTS.beta,
                delta=DEFAULTS.delta):
    """update_trust at the SimulationParams defaults unless overridden."""
    return update_trust(tt, corr, dis, gamma, beta, delta)


class TestUpdateTrust:
    def test_empty_neighbor_sets_leave_trust_unchanged(self):
        assert trust_after(0.37) == 0.37

    def test_hand_derived_enhancement(self):
        # influence*persuasiveness summing to 2 with gamma = beta = 0.5
        enhanced = trust_after(0.5, corr=((1.0, 1.0), (1.0, 1.0)), gamma=0.5, beta=0.5)
        expected = 0.5 + 0.5 * (1.0 - math.exp(-1.0))
        assert abs(enhanced - expected) < 1e-9
        assert abs(enhanced - 0.8160602794142788) < 1e-9

    def test_clip_floor(self):
        assert trust_after(0.01, dis=((1.0, 1.0),) * 200) == 0.0

    def test_clip_ceiling(self):
        assert trust_after(0.99, corr=((1.0, 1.0),) * 200) == 1.0

    @given(tt=unit, corr=pairs, dis=pairs, g=open_unit, b=open_unit, d=open_unit)
    def test_output_always_in_unit_interval(self, tt, corr, dis, g, b, d):
        assert 0.0 <= update_trust(tt, corr, dis, g, b, d) <= 1.0

    @given(tt=unit, si=open_unit, f_low=unit, bump=open_unit)
    def test_monotone_in_corrective_persuasiveness(self, tt, si, f_low, bump):
        f_high = min(1.0, f_low + bump)
        low = trust_after(tt, corr=((si, f_low),))
        high = trust_after(tt, corr=((si, f_high),))
        assert high >= low - 1e-12

    @given(tt=unit, si=open_unit, f_low=unit, bump=open_unit)
    def test_antitone_in_disinformation_persuasiveness(self, tt, si, f_low, bump):
        f_high = min(1.0, f_low + bump)
        low = trust_after(tt, dis=((si, f_low),))
        high = trust_after(tt, dis=((si, f_high),))
        assert high <= low + 1e-12

    def test_enhancement_strictly_below_gamma(self):
        # finite sums keep the exponential strictly positive (avoid the
        # float-underflow regime, where e^-x rounds to zero)
        assert trust_after(0.0, corr=((1.0, 1.0),) * 20, gamma=0.5) < 0.5

    def test_decay_strictly_below_one_minus_gamma(self):
        assert trust_after(1.0, dis=((1.0, 1.0),) * 20, gamma=0.5) > 0.5

    def test_diminishing_marginal_enhancement(self):
        """The gain from one extra unit of corrective pressure shrinks as the
        accumulated pressure grows."""
        def enhancement(total):
            return trust_after(0.0, corr=((1.0, 1.0),) * total)

        increments = [enhancement(k + 1) - enhancement(k) for k in range(1, 6)]
        assert all(b < a for a, b in zip(increments, increments[1:]))


class TestDiscernment:
    def test_perfect_trust_always_discernt(self):
        assert discernment(1.0, 0.9) == 1.0

    def test_implausible_content_always_caught(self):
        assert discernment(0.1, 0.0) == 1.0

    def test_hand_derived_value(self):
        assert abs(discernment(0.6, 0.5) - 0.8) < 1e-12

    @given(tt=unit, dp=unit)
    def test_in_unit_interval(self, tt, dp):
        assert 0.0 <= discernment(tt, dp) <= 1.0

    @given(tt=unit, dp=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=50)
    def test_affine_in_plausibility_with_expected_slope(self, tt, dp):
        h = 1e-6
        up = discernment(tt, dp + h)
        down = discernment(tt, dp - h)
        slope = (up - down) / (2 * h)
        assert abs(slope - (-(1.0 - tt))) < 1e-6


class TestBelief:
    def test_certain_discernment_never_believes(self):
        rng = np.random.default_rng(0)
        assert not any(believe_disinformation(1.0, rng.random()) for _ in range(1000))

    def test_zero_discernment_always_believes(self):
        rng = np.random.default_rng(0)
        assert all(believe_disinformation(0.0, rng.random()) for _ in range(1000))

    def test_belief_frequency_matches_probability(self):
        rng = np.random.default_rng(1234)
        hits = sum(believe_disinformation(0.8, rng.random()) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.2) < 0.01
