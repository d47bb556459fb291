"""Propagation-network construction: community assignment plus
influence-weighted preferential attachment.

Communities come from thresholding interest scores (members may overlap;
users clearing the threshold nowhere fall back to their top-interest
community so nobody is silently dropped). Within each community the first
m0 members, in descending-influence arrival order, form a complete seed
graph; every later member attaches to m distinct existing members drawn
sequentially without replacement with probability proportional to their
influence restricted to the members present. Cross-community connectivity
arises solely from users who belong to several communities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from json.encoder import encode_basestring_ascii

import numpy as np

from . import rng as rngmod
from .errors import CommunityTooSmall
from .scenario import SimulationParams


@dataclass(frozen=True)
class PropagationNetwork:
    """Undirected diffusion graph over agents, with community labels; built
    whole by ``from_edges`` and never changed after."""

    kinds: dict  # agent_id -> agent kind
    community_index: dict  # community -> sorted members
    adjacency: dict = field(repr=False)  # agent_id -> neighbour set

    @classmethod
    def from_edges(cls, kinds: dict, community_index: dict, edges) -> PropagationNetwork:
        """The network over ``kinds``' agents with the given ``(a, b)`` edges;
        an edge given twice, or in either direction, counts once."""
        adjacency = {agent_id: set() for agent_id in kinds}
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            adjacency[a].add(b)
            adjacency[b].add(a)
        return cls(kinds, community_index, adjacency)

    @property
    def nodes(self) -> list:
        return sorted(self.kinds)

    @cached_property
    def edges(self) -> list:
        """Every edge once, as sorted ``(a, b)`` pairs with a < b."""
        return sorted((a, b) for a, ns in self.adjacency.items() for b in ns if a < b)

    def neighbors(self, agent_id: str) -> list:
        return sorted(self.adjacency.get(agent_id, ()))

    def json_text(self) -> str:
        """The ``network.json`` text, laid out as ``json.dumps(indent=2,
        sort_keys=True) + "\n"`` lays out its communities, edges and nodes,
        but without building that object: on Python 3.11 ``json.dumps`` falls
        back to its pure-Python encoder whenever ``indent`` is set. Strings
        go through the encoder's own ``encode_basestring_ascii``."""
        quoted = {agent_id: encode_basestring_ascii(agent_id) for agent_id in self.kinds}
        memberships: dict[str, list] = {}
        communities = []
        for community in sorted(self.community_index):
            name = encode_basestring_ascii(community)
            members = self.community_index[community]
            for agent_id in members:
                memberships.setdefault(agent_id, []).append(name)
            communities.append(f"{name}: " + _json_array([quoted[a] for a in members], 4))
        nodes = [
            f'{{\n      "agent_id": {quoted[agent_id]},\n      "communities": '
            f"{_json_array(memberships.get(agent_id, ()), 6)},\n"
            f'      "kind": {encode_basestring_ascii(self.kinds[agent_id])}\n    }}'
            for agent_id in self.nodes
        ]
        edges = [f"[\n      {quoted[a]},\n      {quoted[b]}\n    ]" for a, b in self.edges]
        body = "{\n    " + ",\n    ".join(communities) + "\n  }" if communities else "{}"
        return (
            f'{{\n  "communities": {body},\n  "edges": {_json_array(edges, 2)},'
            f'\n  "nodes": {_json_array(nodes, 2)}\n}}\n'
        )

    def edge_text(self) -> str:
        return "\n".join(f"{a}\t{b}" for a, b in self.edges) + "\n"


def _json_array(items, depth: int) -> str:
    """A JSON array of encoded items, laid out as ``json.dumps(indent=2)``
    lays out an array ``depth`` spaces in."""
    if not items:
        return "[]"
    inner = " " * (depth + 2)
    return f"[\n{inner}" + f",\n{inner}".join(items) + "\n" + " " * depth + "]"


def assign_communities(profiles, tau: float, communities) -> dict:
    """Threshold rule: u joins every community whose interest score clears
    tau; users clearing none join their top-interest community (ties go to
    the earliest community in the configured order)."""
    index: dict[str, list] = {c: [] for c in communities}
    for profile in profiles:
        hits = [c for c in communities if profile.interest_scores[c] >= tau]
        if not hits:
            best = max(communities, key=lambda c: profile.interest_scores[c])
            # max() keeps the earliest maximal community in list order
            hits = [best]
        for community in hits:
            index[community].append(profile.agent_id)
    return {c: sorted(members) for c, members in index.items()}


def build_network(
    profiles,
    community_index: dict,
    params: SimulationParams,
    seed: int,
) -> PropagationNetwork:
    """Grow the network community by community (deterministic under seed).

    Arrival order within a community is descending influence, ties by
    agent_id: influential accounts predate their followers. The first
    community with fewer than m0 members, whose seed graph could not be
    built, raises CommunityTooSmall before any growth.
    """
    for community, members in community_index.items():
        if len(members) < params.m0:
            raise CommunityTooSmall(community, len(members), params.m0)
    by_id = {p.agent_id: p for p in profiles}
    kinds = {a: by_id[a].kind for members in community_index.values() for a in members}
    edges = []
    for community, members in community_index.items():
        influence = {a: by_id[a].social_influence.get(community, 0.0) for a in members}
        order = sorted(members, key=lambda a: (-influence[a], a))
        weights = np.array([influence[a] for a in order], dtype=np.float64)
        cum = np.cumsum(weights)
        positive = np.cumsum(weights > 0.0)
        rng = rngmod.substream(seed, "network", community)

        edges.extend(combinations(order[: params.m0], 2))
        for k in range(params.m0, len(order)):
            # members present on arrival k are order[:k]
            picks = _draw_without_replacement(
                rng, weights[:k], cum[:k], int(positive[k - 1]), min(params.m, k)
            )
            edges.extend((order[position], order[k]) for position in picks)
    community_index = {c: sorted(m) for c, m in community_index.items()}
    return PropagationNetwork.from_edges(kinds, community_index, edges)


def _draw_without_replacement(
    rng, weights: np.ndarray, cum: np.ndarray, positive: int, count: int
) -> list:
    """Positions of ``count`` sequential weighted draws without replacement.

    ``cum`` holds the running sums of ``weights``; ``positive`` counts their
    positive entries. Each pick scales one uniform by the weight left, steps
    it over earlier picks' intervals and looks it up in ``cum``: the draw
    ``rng.choice`` makes on the remaining weights renormalized. Once no
    positive weight is left, picks are uniform over the positions left.
    """
    picks: list[int] = []
    left = float(cum[-1])
    for _ in range(count):
        taken = sorted(picks)
        if len(picks) < positive:
            target = rng.random() * left
            for earlier in taken:
                if target < (cum[earlier - 1] if earlier else 0.0):
                    break
                target += weights[earlier]
            position = int(cum.searchsorted(target, side="right"))
            if position == len(cum):  # rounding carried the target past the end
                position = max(set(np.flatnonzero(weights).tolist()) - set(taken))
            left -= weights[position]
        else:
            rest = len(cum) - len(taken)
            position = int(rng.choice(rest, p=np.full(rest, 1.0 / rest)))
            for earlier in taken:  # index among the positions left -> position
                if earlier <= position:
                    position += 1
        picks.append(position)
    return picks
