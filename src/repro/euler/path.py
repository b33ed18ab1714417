"""Euler-path construction over transistor networks.

The compact layout technique of Section III linearises a pull-up / pull-down
network by drawing an Euler path from the supply rail to the output: metal
contacts are the graph nodes and transistor gates are the edges.  Placing
contacts and gates along the path yields a single active column in which
every gate is bounded by metal contacts on both sides — the "redundant"
contacts replace the etched regions of the baseline technique.

This module provides:

* :func:`euler_trails` — a Hierholzer-style decomposition of an arbitrary
  connected multigraph into the minimum number of open trails (1 trail when
  an Euler path exists, ``max(1, odd_vertices/2)`` otherwise);
* :func:`euler_path_for_network` — the linearisation of a
  :class:`~repro.logic.network.TransistorNetwork`, preferring a path that
  starts at the power rail and ends at the output as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import EulerPathError
from ..logic.network import Transistor, TransistorNetwork

Edge = Tuple[Hashable, Hashable, Hashable]  # (node_a, node_b, key)


@dataclass(frozen=True)
class Trail:
    """An open trail: an alternating sequence of nodes and edge keys."""

    nodes: Tuple[Hashable, ...]
    edges: Tuple[Hashable, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.edges) + 1:
            raise EulerPathError(
                f"Trail with {len(self.edges)} edges must have {len(self.edges) + 1} nodes, "
                f"got {len(self.nodes)}"
            )

    @property
    def start(self) -> Hashable:
        return self.nodes[0]

    @property
    def end(self) -> Hashable:
        return self.nodes[-1]

    def reversed(self) -> "Trail":
        """The same trail walked in the opposite direction."""
        return Trail(tuple(reversed(self.nodes)), tuple(reversed(self.edges)))

    def __len__(self) -> int:
        return len(self.edges)


class _MultiGraph:
    """Minimal undirected multigraph supporting edge removal by key."""

    def __init__(self):
        self.adjacency: Dict[Hashable, List[Tuple[Hashable, Hashable]]] = {}
        self.edge_count = 0

    def add_node(self, node: Hashable) -> None:
        self.adjacency.setdefault(node, [])

    def add_edge(self, node_a: Hashable, node_b: Hashable, key: Hashable) -> None:
        self.add_node(node_a)
        self.add_node(node_b)
        self.adjacency[node_a].append((node_b, key))
        self.adjacency[node_b].append((node_a, key))
        self.edge_count += 1

    def degree(self, node: Hashable) -> int:
        return len(self.adjacency.get(node, []))

    def odd_nodes(self) -> List[Hashable]:
        return [node for node, edges in self.adjacency.items() if len(edges) % 2 == 1]

    def remove_edge(self, node_a: Hashable, node_b: Hashable, key: Hashable) -> None:
        self.adjacency[node_a].remove((node_b, key))
        self.adjacency[node_b].remove((node_a, key))
        self.edge_count -= 1

    def pop_edge_from(self, node: Hashable) -> Optional[Tuple[Hashable, Hashable]]:
        edges = self.adjacency.get(node)
        if not edges:
            return None
        neighbour, key = edges[0]
        self.remove_edge(node, neighbour, key)
        return neighbour, key

    def is_connected_ignoring_isolated(self) -> bool:
        nodes_with_edges = [n for n, e in self.adjacency.items() if e]
        if not nodes_with_edges:
            return True
        frontier = [nodes_with_edges[0]]
        reached = {nodes_with_edges[0]}
        while frontier:
            node = frontier.pop()
            for neighbour, _key in self.adjacency[node]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        return all(node in reached for node in nodes_with_edges)


def _build_graph(edges: Sequence[Edge]) -> _MultiGraph:
    graph = _MultiGraph()
    for node_a, node_b, key in edges:
        graph.add_edge(node_a, node_b, key)
    return graph


def has_euler_path(edges: Sequence[Edge]) -> bool:
    """Whether the multigraph given by ``edges`` admits a single open Euler
    path (connected and at most two odd-degree vertices)."""
    if not edges:
        return True
    graph = _build_graph(edges)
    if not graph.is_connected_ignoring_isolated():
        return False
    return len(graph.odd_nodes()) in (0, 2)


def _hierholzer(graph: _MultiGraph, start: Hashable) -> Trail:
    """Extract one maximal closed-or-open trail starting at ``start``."""
    stack: List[Hashable] = [start]
    edge_stack: List[Hashable] = []
    node_path: List[Hashable] = []
    edge_path: List[Hashable] = []
    # Standard iterative Hierholzer: walk until stuck, backtrack appending.
    used_edges: List[Optional[Hashable]] = [None]
    while stack:
        node = stack[-1]
        step = graph.pop_edge_from(node)
        if step is None:
            node_path.append(stack.pop())
            edge_key = used_edges.pop()
            if edge_key is not None:
                edge_path.append(edge_key)
        else:
            neighbour, key = step
            stack.append(neighbour)
            used_edges.append(key)
    node_path.reverse()
    edge_path.reverse()
    return Trail(tuple(node_path), tuple(edge_path))


def euler_trails(
    edges: Sequence[Edge],
    preferred_start: Optional[Hashable] = None,
    preferred_end: Optional[Hashable] = None,
) -> List[Trail]:
    """Decompose a connected multigraph into a minimum set of open trails.

    When an Euler path exists a single trail is returned; the trail is
    oriented to start at ``preferred_start`` and/or end at ``preferred_end``
    whenever the graph allows it.  For graphs with ``2k > 2`` odd vertices,
    ``k`` trails are returned (the classical minimum trail decomposition).

    Raises :class:`EulerPathError` for disconnected edge sets.
    """
    if not edges:
        return []
    graph = _build_graph(edges)
    if not graph.is_connected_ignoring_isolated():
        raise EulerPathError("Cannot linearise a disconnected transistor network")

    odd = graph.odd_nodes()
    trails: List[Trail] = []

    if len(odd) <= 2:
        start = _pick_start(odd, preferred_start, preferred_end, graph)
        trails.append(_hierholzer(graph, start))
    else:
        # Classic minimum open-trail decomposition: with 2k odd vertices,
        # pair up all but two of them with virtual edges so a single Euler
        # path exists, then split that path back at the virtual edges to
        # recover k genuine trails.
        ordered_odd = list(odd)
        if preferred_start in ordered_odd:
            ordered_odd.remove(preferred_start)
            ordered_odd.insert(0, preferred_start)
        if preferred_end in ordered_odd[1:]:
            ordered_odd.remove(preferred_end)
            ordered_odd.insert(1, preferred_end)
        virtual_keys = []
        for index in range(2, len(ordered_odd) - 1, 2):
            key = ("__virtual__", index)
            virtual_keys.append(key)
            graph.add_edge(ordered_odd[index], ordered_odd[index + 1], key)
        start = _pick_start(graph.odd_nodes(), preferred_start, preferred_end, graph)
        spliced = _hierholzer(graph, start)
        trails.extend(_split_at_virtual_edges(spliced, set(virtual_keys)))

    total_edges = sum(len(trail) for trail in trails)
    if total_edges != len(edges):
        raise EulerPathError(
            f"Trail decomposition lost edges ({total_edges} of {len(edges)})"
        )
    return _orient_trails(trails, preferred_start, preferred_end)


def _split_at_virtual_edges(trail: Trail, virtual_keys) -> List[Trail]:
    """Split a spliced Euler path back into real trails by removing the
    virtual pairing edges."""
    if not virtual_keys:
        return [trail]
    trails: List[Trail] = []
    nodes: List[Hashable] = [trail.nodes[0]]
    edges: List[Hashable] = []
    for key, node in zip(trail.edges, trail.nodes[1:]):
        if key in virtual_keys:
            if edges:
                trails.append(Trail(tuple(nodes), tuple(edges)))
            nodes = [node]
            edges = []
        else:
            edges.append(key)
            nodes.append(node)
    if edges:
        trails.append(Trail(tuple(nodes), tuple(edges)))
    return trails


def _pick_start(odd, preferred_start, preferred_end, graph: _MultiGraph) -> Hashable:
    if odd:
        if preferred_start in odd:
            return preferred_start
        if preferred_end in odd:
            # Walk from the other odd vertex so the trail *ends* at the
            # preferred end.
            others = [n for n in odd if n != preferred_end]
            return others[0] if others else preferred_end
        return odd[0]
    # Euler circuit: any vertex with edges works; prefer the requested start.
    if preferred_start is not None and graph.degree(preferred_start):
        return preferred_start
    return next(n for n, e in graph.adjacency.items() if e)


def _orient_trails(trails, preferred_start, preferred_end) -> List[Trail]:
    oriented: List[Trail] = []
    for index, trail in enumerate(trails):
        if index == 0 and preferred_start is not None:
            if trail.start != preferred_start and trail.end == preferred_start:
                trail = trail.reversed()
        elif preferred_end is not None:
            if trail.end != preferred_end and trail.start == preferred_end:
                trail = trail.reversed()
        oriented.append(trail)
    return oriented


# ---------------------------------------------------------------------------
# Transistor-network linearisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearizedNetwork:
    """A network linearised along Euler trails.

    ``elements`` alternates contact net names and transistors, starting and
    ending with a contact: ``[net, Transistor, net, Transistor, ..., net]``.
    ``breaks`` lists the indices (into ``elements``) of contacts that sit at
    a junction between two trails that do *not* share a net — these are the
    positions where an etched region or an active-region gap is required
    (the standard cells of the paper never need one).
    """

    network: TransistorNetwork
    elements: Tuple[object, ...]
    breaks: Tuple[int, ...]
    trail_count: int

    @property
    def contact_count(self) -> int:
        return sum(1 for element in self.elements if isinstance(element, str))

    @property
    def gate_count(self) -> int:
        return sum(1 for element in self.elements if isinstance(element, Transistor))

    @property
    def is_single_trail(self) -> bool:
        return self.trail_count == 1

    def contact_nets(self) -> Tuple[str, ...]:
        return tuple(e for e in self.elements if isinstance(e, str))

    def gate_signals(self) -> Tuple[str, ...]:
        return tuple(e.gate for e in self.elements if isinstance(e, Transistor))


def euler_path_for_network(network: TransistorNetwork) -> LinearizedNetwork:
    """Linearise a transistor network along Euler trails.

    The trails are oriented to walk from the power rail to the output net,
    matching the paper's description ("an Euler path from the Vdd to the
    Gnd traversing both the PUN and the PDN"); the orientation does not
    change the area, only the position of the rail contact.
    """
    if not network.transistors:
        raise EulerPathError("Cannot linearise an empty transistor network")
    by_name = {t.name: t for t in network.transistors}
    edges: List[Edge] = [
        (t.source, t.drain, t.name) for t in network.transistors
    ]
    trails = euler_trails(edges, network.power_net, network.output_net)

    # Reorder trails greedily so consecutive trails share a contact net when
    # possible (a shared net avoids the need for an etched break).
    ordered = _order_trails_for_sharing(trails)

    elements: List[object] = []
    breaks: List[int] = []
    for trail in ordered:
        nodes = list(trail.nodes)
        keys = list(trail.edges)
        if not elements:
            elements.append(nodes[0])
        else:
            previous_net = elements[-1]
            if previous_net == nodes[0]:
                pass  # shared contact, nothing to add
            elif previous_net == nodes[-1]:
                nodes.reverse()
                keys.reverse()
            else:
                breaks.append(len(elements))
                elements.append(nodes[0])
        for key, node in zip(keys, nodes[1:]):
            elements.append(by_name[key])
            elements.append(node)

    return LinearizedNetwork(
        network=network,
        elements=tuple(elements),
        breaks=tuple(breaks),
        trail_count=len(ordered),
    )


def _order_trails_for_sharing(trails: List[Trail]) -> List[Trail]:
    if len(trails) <= 1:
        return list(trails)
    remaining = list(trails)
    ordered = [remaining.pop(0)]
    while remaining:
        tail = ordered[-1].end
        chosen_index = None
        for index, trail in enumerate(remaining):
            if trail.start == tail or trail.end == tail:
                chosen_index = index
                break
        if chosen_index is None:
            chosen_index = 0
        ordered.append(remaining.pop(chosen_index))
    return ordered
