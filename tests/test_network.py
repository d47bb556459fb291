import collections
import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madd import cli
from madd.attributes import AgentProfile, KIND_REGULAR, derive_profiles
from madd.cli import ArtifactWriter, _write_network, _write_profiles
from madd.errors import CommunityTooSmall
from madd.evaluator import SyntheticEvaluator, make_evaluator
from madd.network import (
    PropagationNetwork,
    _draw_without_replacement,
    assign_communities,
    build_network,
    community_overlap_matrix,
    degree_distribution,
)
from madd.rng import substream
from madd.scenario import SimulationParams, save_scenario
from madd.synthdata import build_synthetic_scenario


def profile(agent_id, ic, si=None):
    return AgentProfile(
        agent_id=agent_id,
        kind=KIND_REGULAR,
        interest_scores=dict(ic),
        social_influence=dict(si or {}),
    )


COMMUNITIES = ["c1", "c2", "c3", "c4", "c5", "c6"]


class TestAssignCommunities:
    def test_threshold_rule(self):
        ic = dict(zip(COMMUNITIES, [9, 3, 8, 2, 1, 1]))
        index = assign_communities([profile("u", ic)], tau=8, communities=COMMUNITIES)
        assert index["c1"] == ["u"] and index["c3"] == ["u"]
        assert all(index[c] == [] for c in ("c2", "c4", "c5", "c6"))

    def test_argmax_fallback_lowest_index(self):
        ic = dict(zip(COMMUNITIES, [5, 5, 5, 5, 5, 5]))
        index = assign_communities([profile("u", ic)], tau=8, communities=COMMUNITIES)
        assert index["c1"] == ["u"]
        assert all(index[c] == [] for c in COMMUNITIES[1:])

    def test_threshold_floor_puts_everyone_everywhere(self):
        ic = dict(zip(COMMUNITIES, [1, 2, 3, 4, 5, 6]))
        index = assign_communities([profile("u", ic)], tau=1, communities=COMMUNITIES)
        assert all(index[c] == ["u"] for c in COMMUNITIES)


def uniform_profiles(n, community="only", seed=0):
    rng = np.random.default_rng(seed)
    followers = rng.zipf(2.5, size=n) * 40
    total = followers.sum()
    return [
        profile(
            f"n{i:04d}",
            {community: 10.0},
            {community: followers[i] / total},
        )
        for i in range(n)
    ]


class TestBuildNetwork:
    def test_exact_edge_count_small(self):
        members = uniform_profiles(10)
        index = {"only": [p.agent_id for p in members]}
        params = SimulationParams(m0=5, m=2)
        net = build_network(members, index, params, seed=1)
        assert len(net.edges) == math.comb(5, 2) + 5 * 2

    def test_two_members_single_edge(self):
        members = uniform_profiles(2)
        index = {"only": [p.agent_id for p in members]}
        params = SimulationParams(m0=2, m=1)
        net = build_network(members, index, params, seed=1)
        assert len(net.edges) == 1

    def test_community_too_small(self):
        members = uniform_profiles(3)
        index = {"only": [p.agent_id for p in members]}
        with pytest.raises(CommunityTooSmall):
            build_network(members, index, SimulationParams(m0=5, m=2), seed=1)

    def test_deterministic_under_seed(self):
        members = uniform_profiles(200, seed=5)
        index = {"only": [p.agent_id for p in members]}
        params = SimulationParams(m0=5, m=2)
        a = build_network(members, index, params, seed=77)
        b = build_network(members, index, params, seed=77)
        assert a.edges == b.edges

    def test_each_arrival_adds_m_edges(self):
        members = uniform_profiles(50, seed=2)
        index = {"only": [p.agent_id for p in members]}
        params = SimulationParams(m0=4, m=3)
        net = build_network(members, index, params, seed=3)
        assert len(net.edges) == math.comb(4, 2) + (50 - 4) * 3

    def test_no_self_loops_or_duplicates(self):
        members = uniform_profiles(120, seed=8)
        index = {"only": [p.agent_id for p in members]}
        net = build_network(members, index, SimulationParams(m0=5, m=3), seed=9)
        assert all(a != b for a, b in net.edges)
        assert len(net.edges) == len(set(net.edges))

    def test_edges_listed_once_sorted(self):
        members = uniform_profiles(120, seed=8)
        index = {"only": [p.agent_id for p in members]}
        net = build_network(members, index, SimulationParams(m0=5, m=3), seed=9)
        assert net.edges == sorted(net.edges)
        assert all(a < b for a, b in net.edges)

    def test_influence_attracts_degree(self):
        """Hubs should be high-influence members nearly always."""
        failures = 0
        for seed in range(20):
            members = uniform_profiles(500, seed=seed)
            index = {"only": [p.agent_id for p in members]}
            net = build_network(members, index, SimulationParams(m0=5, m=2), seed=seed)
            top = max(net.nodes, key=net.degree)
            ranked = sorted(
                members, key=lambda p: p.social_influence["only"], reverse=True
            )
            median_cut = {p.agent_id for p in ranked[: len(ranked) // 2]}
            if top not in median_cut:
                failures += 1
        assert failures <= 2


def _list_draw_oracle(rng, items: list, weights: list, count: int) -> list:
    """The list-based draw that the array version replaced, kept as its oracle."""
    available = list(range(len(items)))
    w = np.asarray(weights, dtype=np.float64)
    picks = []
    for _ in range(count):
        sub = w[available]
        total = sub.sum()
        if total <= 0.0:
            probs = np.full(len(available), 1.0 / len(available))
        else:
            probs = sub / total
        choice = int(rng.choice(len(available), p=probs))
        picks.append(items[available[choice]])
        available.pop(choice)
    return picks


class TestDrawWithoutReplacement:
    @pytest.mark.parametrize("pool", ["with-zeros", "all-zero", "count-equals-pool"])
    def test_same_picks_as_list_oracle(self, pool):
        for seed in range(60):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(1, 300))
            weights = gen.pareto(1.5, size=n + 7)  # build_network passes a prefix
            weights[gen.random(n + 7) < 0.3] = 0.0
            if pool == "all-zero":
                weights[:] = 0.0
            count = n if pool == "count-equals-pool" else int(gen.integers(1, min(n, 8) + 1))
            _assert_matches_oracle(seed, weights, n, count)

    def test_positive_weights_run_out_mid_draw(self):
        # 0.1 + 0.2 + 0.3 is not exactly 0.6, so the weight left after the
        # three positive picks is a float residue, not 0.0: the fourth pick
        # must still be uniform over the two zero-weight positions
        weights = np.array([0.1, 0.2, 0.3, 0.0, 0.0])
        assert weights.sum() - 0.1 - 0.2 - 0.3 != 0.0
        for seed in range(200):
            _assert_matches_oracle(seed, weights, len(weights), 4)

    def test_weight_below_running_sum_resolution(self):
        # 1e-17 leaves the running sum at 1.0, so once position 0 is taken
        # the target lands past the end of ``cum``: the pick must still be
        # the last positive weight left, as the oracle picks it
        weights = np.array([1.0, 1e-17, 0.0])
        assert np.cumsum(weights)[1] == 1.0
        for seed in range(20):
            _assert_matches_oracle(seed, weights, len(weights), 3)


def _assert_matches_oracle(seed: int, weights: np.ndarray, n: int, count: int) -> None:
    """The sampler on the prefix ``weights[:n]`` picks what the oracle picks
    and consumes as many draws."""
    items = [f"a{k}" for k in range(len(weights))]
    expected_rng, rng = substream(seed, "draw"), substream(seed, "draw")
    expected = _list_draw_oracle(expected_rng, items[:n], list(weights[:n]), count)
    # build_network passes prefixes of arrays built once for the whole community
    cum, positive = np.cumsum(weights), np.cumsum(weights > 0.0)
    picks = _draw_without_replacement(rng, weights[:n], cum[:n], int(positive[n - 1]), count)
    assert [items[position] for position in picks] == expected
    assert rng.random() == expected_rng.random()  # same number of draws used


class TestDegreeDistribution:
    def test_star_graph_histogram(self):
        leaves = [f"leaf{i}" for i in range(6)]
        kinds = dict.fromkeys(["hub", *leaves], KIND_REGULAR)
        net = PropagationNetwork.from_edges(kinds, {}, [("hub", leaf) for leaf in leaves])
        histogram, fit = degree_distribution(net)
        assert histogram == {1: 6, 6: 1}
        assert fit is None  # far too small to fit

    def test_complete_graph_degrees(self):
        ids = [f"k{i}" for i in range(5)]
        net = PropagationNetwork.from_edges(
            dict.fromkeys(ids, KIND_REGULAR), {}, itertools.combinations(ids, 2))
        histogram, _ = degree_distribution(net)
        assert histogram == {4: 5}

    def test_grown_network_has_power_law_tail(self):
        members = uniform_profiles(1000, seed=4)
        index = {"only": [p.agent_id for p in members]}
        net = build_network(members, index, SimulationParams(m0=5, m=2), seed=4)
        _, fit = degree_distribution(net, min_degree=2)
        assert fit is not None
        assert 2.2 <= fit.alpha <= 3.5


def network_dict(net: PropagationNetwork) -> dict:
    """The object that ``network.json`` encodes, built as a plain dict: the
    reference that ``json_text`` is checked against."""
    memberships: dict[str, set] = {}
    for community, members in net.community_index.items():
        for agent_id in members:
            memberships.setdefault(agent_id, set()).add(community)
    return {
        "nodes": [
            {
                "agent_id": agent_id,
                "kind": net.kinds[agent_id],
                "communities": sorted(memberships.get(agent_id, ())),
            }
            for agent_id in net.nodes
        ],
        "edges": [list(pair) for pair in net.edges],
        "communities": {c: list(members) for c, members in net.community_index.items()},
    }


def test_to_dict_lists_every_community_of_a_node_sorted():
    network = PropagationNetwork.from_edges(
        dict.fromkeys(("u1", "u2", "u3"), KIND_REGULAR),
        {"zeta": ["u1", "u2"], "alpha": ["u1", "u3"]},
        (),
    )
    nodes = {node["agent_id"]: node["communities"] for node in network_dict(network)["nodes"]}
    assert nodes == {"u1": ["alpha", "zeta"], "u2": ["zeta"], "u3": ["alpha"]}


class TestOverlapMatrix:
    def test_disjoint_communities_diagonal_only(self):
        index = {"a": ["u1", "u2"], "b": ["u3"]}
        matrix = community_overlap_matrix(index)
        assert matrix.tolist() == [[2, 0], [0, 1]]

    def test_single_shared_member(self):
        index = {"a": ["u1", "u2"], "b": ["u2", "u3", "u4"]}
        matrix = community_overlap_matrix(index)
        assert matrix[0, 1] == 1 and matrix[1, 0] == 1
        assert matrix[0, 0] == 2 and matrix[1, 1] == 3

    def test_symmetric_for_any_input(self, small_world):
        _, _, index, _, _ = small_world
        matrix = community_overlap_matrix(index)
        assert np.array_equal(matrix, matrix.T)


def test_intra_density_exceeds_inter_density(paper_world):
    """Edges only form inside communities, so pairs sharing a community must
    be denser than pairs that share none."""
    _, profiles, index, net, _ = paper_world
    membership = {}
    for community, members in index.items():
        for m in members:
            membership.setdefault(m, set()).add(community)
    intra_edges = 0
    inter_edges = 0
    for a, b in net.edges:
        if membership[a] & membership[b]:
            intra_edges += 1
        else:
            inter_edges += 1
    nodes = net.nodes
    same = 0
    cross = 0
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if membership[a] & membership[b]:
                same += 1
            else:
                cross += 1
    intra_density = intra_edges / same
    inter_density = inter_edges / cross if cross else 0.0
    assert intra_density > inter_density


class TestGoldenSetupBytes:
    """sha256 of the setup artifacts `madd profiles` and `madd network` write:
    profiles.json, edges.txt and network.json.

    These move only when derived profiles or network growth move: re-pin
    deliberately and declare the old and new values.
    """

    @staticmethod
    def digests(scenario, out_dir):
        """The setup artifacts' sha256, as the CLI's writers record them."""
        params = scenario.params
        evaluator = make_evaluator(scenario.evaluator_config, params.rng_seed)
        profiles = derive_profiles(scenario, evaluator)
        index = assign_communities(profiles, params.tau, scenario.communities)
        net = build_network(profiles, index, params, params.rng_seed)
        writer = ArtifactWriter(out_dir)
        _write_profiles(writer, profiles)
        _write_network(writer, net)
        names = ("profiles.json", "edges.txt", "network.json")
        return profiles, index, [writer.files[name] for name in names]

    def test_paper_world(self, paper_scenario, tmp_path):
        _, _, digests = self.digests(paper_scenario, tmp_path)
        assert digests == [
            "7959912e6a0513fffb6e8c50433c4ab6bff891d56c680ee7b339fcf6a305433a",
            "9b8459287c97e0f984f5623fb5d0b5cec3a061c4609885b29993cc5d5e5d7041",
            "02b083358c3d128e85442e5396f653504d60e19ae36a3db4ecabb368e37d180c",
        ]

    def test_paper_world_network_command_scores_interests_only(
        self, paper_scenario, tmp_path, monkeypatch, capsys
    ):
        # `madd network` and synthetic `madd validate` ask each user one
        # interest question and no trust question, and `madd network` writes
        # the edges.txt and network.json pinned above for full scoring
        asked = collections.Counter()
        evaluate = SyntheticEvaluator.evaluate

        def counting(self, request):
            asked[request.kind] += 1
            return evaluate(self, request)

        monkeypatch.setattr(SyntheticEvaluator, "evaluate", counting)
        path = tmp_path / "scenario.json"
        save_scenario(paper_scenario, path)
        out = tmp_path / "net"
        assert cli.main(["network", "--scenario", str(path), "--out", str(out)]) == 0
        assert asked == {"interest_community": 689}
        assert cli.main(["validate", "--scenario", str(path)]) == 0
        assert asked == {"interest_community": 2 * 689}
        capsys.readouterr()
        written = [
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("edges.txt", "network.json")
        ]
        _, _, digests = self.digests(paper_scenario, tmp_path)
        assert written == digests[1:]

    def test_two_word_seed_world(self, two_word_seed_scenario, tmp_path):
        # profile scoring and the bot-si draws keyed by a seed past 32 bits
        _, _, digests = self.digests(two_word_seed_scenario, tmp_path)
        assert digests == [
            "45b26f8f17e5da8552159769e7bf94fcd26b0e895ab2e7f6d2f56ff4683d28bc",
            "411e3f403039a64881ad0e273ea66c051bb4b4bd87ef38921343652f4b7f707f",
            "1217dd240453efd18e969fe7931e94dccae35a61186b5078c71bca96cc18dcc8",
        ]

    def test_tau_one_world_bots_join_every_community(self, tmp_path):
        # at tau = 1 every bot clears every community, so each community's
        # influence renormalization runs over other communities' bots too
        scenario = build_synthetic_scenario(
            n_users=300, communities=("politics", "sports", "business"), seed=5, tau=1.0
        )
        profiles, index, digests = self.digests(scenario, tmp_path)
        bots = {p.agent_id for p in profiles if p.is_bot}
        assert len(bots) == 180
        assert all(bots <= set(members) for members in index.values())
        assert digests == [
            "33c3f690cefdec973dd0e2e74203e70585ad0109fd3e4734b85615eba942d39a",
            "a46c26ead00fa8894c4dcc4df9a6a31aab901b9192af26606a301013d8c52122",
            "95ad45f5ec6ec7692866de1faa1ae2cc709f3f9f8de2bbca6f76e6025b14bcf3",
        ]


@st.composite
def small_networks(draw):
    """Networks whose ids, kinds and community names are arbitrary text:
    quotes, backslashes, control characters and non-ASCII included."""
    ids = draw(st.lists(st.text(max_size=6), unique=True, max_size=8))
    kinds = {agent_id: draw(st.text(max_size=4)) for agent_id in ids}
    names = draw(st.lists(st.text(max_size=6), unique=True, max_size=4))
    community_index = {
        name: sorted(draw(st.lists(st.sampled_from(ids), unique=True))) if ids else []
        for name in names
    }
    edges = []
    if len(ids) > 1:
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
        edges = draw(st.lists(pairs, max_size=12))
    return PropagationNetwork.from_edges(kinds, community_index, edges)


@settings(max_examples=300, deadline=None)
@given(net=small_networks())
def test_json_text_is_json_dumps_of_to_dict(net):
    assert net.json_text() == json.dumps(network_dict(net), indent=2, sort_keys=True) + "\n"
    assert net.edge_text() == "\n".join(f"{a}\t{b}" for a, b in net.edges) + "\n"


class TestFromEdges:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"^self-loop on 'b'$"):
            PropagationNetwork.from_edges(dict.fromkeys("abc", KIND_REGULAR), {}, [("a", "b"), ("b", "b")])

    def test_repeated_or_reversed_edge_counts_once(self):
        net = PropagationNetwork.from_edges(
            dict.fromkeys("abc", KIND_REGULAR), {}, [("b", "c"), ("c", "b"), ("a", "c"), ("b", "c")])
        assert net.edges == [("a", "c"), ("b", "c")]
        assert net.edge_text() == "a\tc\nb\tc\n"
        assert [net.degree(a) for a in "abc"] == [1, 1, 2]
        assert net.neighbors("c") == ["a", "b"]

    def test_built_network_is_frozen(self):
        net = PropagationNetwork.from_edges({"a": KIND_REGULAR, "b": KIND_REGULAR}, {}, [("a", "b")])
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.adjacency = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.community_index = {"c": ["a"]}
