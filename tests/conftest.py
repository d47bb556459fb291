import pytest

from madd.attributes import derive_profiles
from madd.evaluator import make_evaluator
from madd.network import assign_communities, build_network
from madd.powerlaw import fit_truncated_power_law
from madd.synthdata import build_synthetic_scenario


def build_world(scenario):
    """(scenario, profiles, community index, network, fit) for a scenario."""
    evaluator = make_evaluator(scenario.evaluator_config, scenario.params.rng_seed)
    profiles = derive_profiles(scenario, evaluator)
    index = assign_communities(profiles, scenario.params.tau, scenario.communities)
    network = build_network(profiles, index, scenario.params, scenario.params.rng_seed)
    fit = fit_truncated_power_law(
        [p.share_total for p in profiles if not p.is_bot and p.share_total >= 1]
    )
    return scenario, profiles, index, network, fit


@pytest.fixture(scope="session")
def small_scenario():
    return build_synthetic_scenario(
        n_users=140, communities=("alpha", "beta"), seed=3, total_steps=24
    )


@pytest.fixture(scope="session")
def small_world(small_scenario):
    """(scenario, profiles, community index, network, fit) at test scale."""
    return build_world(small_scenario)


@pytest.fixture(scope="session")
def paper_scenario():
    """Six communities at the reference population size."""
    return build_synthetic_scenario(n_users=689, seed=7)


@pytest.fixture(scope="session")
def paper_world(paper_scenario):
    return build_world(paper_scenario)


@pytest.fixture(scope="session")
def dense_world():
    """One 200-user politics community with busy bots: deliveries and
    judgments far outnumber agent-steps."""
    return build_world(
        build_synthetic_scenario(
            n_users=200,
            communities=("politics",),
            seed=5,
            m0=7,
            m=6,
            malicious_ratio=0.3,
            malicious_freq_range=(36, 72),
            xi=0.0,
            theta=0.2,
        )
    )


@pytest.fixture(scope="session")
def two_word_seed_scenario():
    """The small world's shape at a seed of 2**32 or more: every stream key
    uses the seed's high bytes too."""
    return build_synthetic_scenario(
        n_users=140, communities=("alpha", "beta"), seed=2**32 + 7, total_steps=24
    )


@pytest.fixture(scope="session")
def two_word_seed_world(two_word_seed_scenario):
    return build_world(two_word_seed_scenario)
