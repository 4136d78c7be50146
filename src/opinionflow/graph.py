"""Undirected influence graphs of population types.

Vertices are integer type ids, handed out by a monotone counter and never
reused within a run, so event logs stay unambiguous after deaths. The graph
is simple (no self-loops, symmetric adjacency). Birth/death mode additionally
keeps the graph connected through every mutation; pure-dynamics mode may use
disconnected graphs.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import coerce

REWIRING_POLICIES = ("neighbor-path", "neighbor-clique")


class InfluenceGraph:
    """Mutable simple undirected graph with never-reused integer vertex ids."""

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        self._adj: dict[int, set[int]] = {}
        for v in vertices:
            self._add_vertex(int(v))
        for u, v in edges:
            self.add_edge(u, v)
        self._next_id = max(self._adj, default=-1) + 1

    # -- construction helpers -------------------------------------------------

    @classmethod
    def path(cls, n: int) -> "InfluenceGraph":
        return cls(range(n), [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "InfluenceGraph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(range(n), [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "InfluenceGraph":
        return cls(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def star(cls, n_leaves: int) -> "InfluenceGraph":
        """Center 0 with leaves 1..n_leaves."""
        return cls(range(n_leaves + 1), [(0, i) for i in range(1, n_leaves + 1)])

    @classmethod
    def triangle(cls) -> "InfluenceGraph":
        return cls.complete(3)

    @classmethod
    def from_json_dict(cls, data: dict) -> "InfluenceGraph":
        try:
            vertices = [coerce("vertices", int, v) for v in data["vertices"]]
            edges = [(coerce("edges", int, u), coerce("edges", int, v)) for u, v in data["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed graph literal: {exc}") from exc
        return cls(vertices, edges)

    def to_json_dict(self) -> dict:
        return {"vertices": sorted(self._adj), "edges": self.edges()}

    def copy(self) -> "InfluenceGraph":
        g = InfluenceGraph.__new__(InfluenceGraph)
        g._adj = {v: set(adj) for v, adj in self._adj.items()}
        g._next_id = self._next_id
        return g

    # -- basic queries ---------------------------------------------------------

    def vertex_list(self) -> list[int]:
        return sorted(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> set[int]:
        self._require(v)
        return set(self._adj[v])

    def edges(self) -> list[list[int]]:
        """Canonical edge list: [u, v] with u < v, sorted."""
        return sorted([min(u, v), max(u, v)] for u in self._adj for v in self._adj[u] if u < v)

    def is_independent_set(self, s: Iterable[int]) -> bool:
        """True iff no edge of the graph has both endpoints in ``s``."""
        s = set(s)
        for v in s:
            self._require(v)
        for v in s:
            if self._adj[v] & s:
                return False
        return True

    def connected_components(self) -> list[set[int]]:
        return self._components(self._adj, None)

    def is_connected(self) -> bool:
        return len(self._adj) <= 1 or len(self.connected_components()) == 1

    def induced_components(self, s: Iterable[int]) -> list[set[int]]:
        """Connected components of the subgraph induced by ``s``."""
        s = set(s)
        for v in s:
            self._require(v)
        return self._components(sorted(s), s)

    def _components(self, starts: Iterable[int], within: set[int] | None) -> list[set[int]]:
        """Depth-first components grown from ``starts`` in order, inside ``within``."""
        seen: set[int] = set()
        components = []
        for start in starts:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in self._adj[u] if within is None else self._adj[u] & within:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            components.append(comp)
        return components

    # -- mutation --------------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop {u}-{v} not allowed")
        self._require(u)
        self._require(v)
        self._adj[u].add(v)
        self._adj[v].add(u)

    def add_type(self, neighbors: Iterable[int]) -> int:
        """Add a fresh vertex attached to ``neighbors`` (must be nonempty).

        Returns the new id. Connectivity is preserved because the newcomer
        attaches to at least one existing vertex.
        """
        neighbors = {int(v) for v in neighbors}
        if not neighbors:
            raise ValueError("a new type must attach to at least one neighbor")
        for v in neighbors:
            self._require(v)
        new_id = self._next_id
        self._next_id += 1
        self._adj[new_id] = set()
        for v in neighbors:
            self._adj[new_id].add(v)
            self._adj[v].add(new_id)
        return new_id

    def remove_type(self, v: int, rewiring: str = "neighbor-path") -> list[tuple[int, int]]:
        """Remove ``v`` and join its former neighbors; return the edges added.

        Policies (the model leaves the repair edges free, so they are pinned
        here): "neighbor-path" sorts the former neighbors by id and adds the
        missing path edges among them; "neighbor-clique" adds all missing
        pairs. Either repair keeps a connected graph connected: a shortest
        path from any survivor to ``v`` passes a former neighbor just before
        ``v``, and the repair joins all former neighbors. For the same reason
        the removal never adds a component to a disconnected graph.
        """
        v = int(v)
        self._require(v)
        if len(self._adj) < 2:
            raise ValueError("cannot remove the last remaining type")
        if rewiring not in REWIRING_POLICIES:
            raise ValueError(f"unknown rewiring policy {rewiring!r}")
        former = sorted(self._adj[v])
        for u in former:
            self._adj[u].discard(v)
        del self._adj[v]

        if rewiring == "neighbor-path":
            pairs = zip(former, former[1:])
        else:
            pairs = ((a, b) for i, a in enumerate(former) for b in former[i + 1:])
        added = [(a, b) for a, b in pairs if b not in self._adj[a]]
        for a, b in added:
            self._adj[a].add(b)
            self._adj[b].add(a)
        return added

    # -- internals ---------------------------------------------------------------

    def _add_vertex(self, v: int) -> None:
        if v in self._adj:
            raise ValueError(f"duplicate vertex id {v}")
        if v < 0:
            raise ValueError("vertex ids must be nonnegative integers")
        self._adj[v] = set()

    def _require(self, v: int) -> None:
        if v not in self._adj:
            raise ValueError(f"unknown vertex id {v}")

    def __repr__(self) -> str:
        return f"InfluenceGraph(vertices={self.vertex_list()}, edges={self.edges()})"


def attachment_indices(n: int, policy: str, rng: np.random.Generator) -> list[int]:
    """Pick the neighbor set for a newborn type among ``n`` existing types, as
    ascending indices into their sorted ids: the attachment rule itself.

    "random-subset" (default policy): k uniform in 1..min(3, n), then k
    distinct uniform indices; keeps degrees bounded in long runs while
    staying reproducible from the run streams. "connect-to-all" attaches to
    every existing type and draws nothing.
    """
    if n < 1:
        raise ValueError("cannot attach to an empty graph")
    if policy == "connect-to-all":
        return list(range(n))
    if policy != "random-subset":
        raise ValueError(f"unknown attachment policy {policy!r}")
    k = int(rng.integers(1, min(3, n) + 1))
    return sorted(rng.choice(n, size=k, replace=False).tolist())
