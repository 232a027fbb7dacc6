"""Shortest-path routing over a :class:`~repro.network.topology.Topology`.

The message-accounting model of the paper charges a unicast message the
length of the shortest path between the endpoints and quotes the *average*
shortest-path length (4 hops on the 5x5 mesh) as the PLEDGE cost.  This
module provides both the exact per-pair distances and the network-wide
mean, with caching keyed on the topology's mutation counter so the fault
model invalidates everything automatically.

Two oracles live here:

* :class:`Router` — the production oracle.  It is **lazy**: adjacency is
  compiled once per topology version into CSR-style numpy arrays, and
  distance rows are computed on demand (a numpy-backed BFS frontier
  expansion) and cached.  Building a Router costs O(V+E), not
  O(V·(V+E)); a liveness change costs an O(V+E) edge mask over the same
  CSR, which is what lets one live router serve a whole churning run on
  2.5k–10k-node overlays.  Network-wide aggregates (mean shortest path,
  diameter) are computed in one all-sources sweep the first time they
  are asked for, without materialising the O(V²) matrix.
* :class:`EagerRouter` — the original all-pairs oracle, kept as the
  executable specification.  It precomputes the dense distance matrix on
  first query; property tests pin the lazy Router observationally
  equivalent to it, and the benchmark harness uses its setup cost as the
  baseline for the scaling curve.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, compress, starmap
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .topology import NodeId, Topology

__all__ = ["Router", "EagerRouter", "bfs_distances", "shortest_path"]

UNREACHABLE = -1

#: per-source rows are memoised only below this node count — above it a
#: full sweep would silently materialise an O(V²) matrix (400 MB at 10k
#: nodes); aggregate sweeps discard rows instead and only explicitly
#: queried sources stay cached
_ROW_CACHE_SWEEP_LIMIT = 4096


def bfs_distances(topo: Topology, source: NodeId) -> Dict[NodeId, int]:
    """Hop distances from ``source`` to every reachable node (BFS)."""
    if not topo.has_node(source):
        raise KeyError(f"no such node: {source}")
    dist = {source: 0}
    dq = deque([source])
    while dq:
        cur = dq.popleft()
        d = dist[cur] + 1
        for nxt in topo.neighbors(cur):
            if nxt not in dist:
                dist[nxt] = d
                dq.append(nxt)
    return dist


def shortest_path(topo: Topology, source: NodeId, dest: NodeId) -> Optional[List[NodeId]]:
    """One shortest node path ``source..dest`` (deterministic: smallest-id
    predecessor wins), or ``None`` if unreachable."""
    if not topo.has_node(source) or not topo.has_node(dest):
        raise KeyError("endpoint not in topology")
    if source == dest:
        return [source]
    parent: Dict[NodeId, NodeId] = {source: source}
    dq = deque([source])
    while dq:
        cur = dq.popleft()
        for nxt in topo.neighbors(cur):  # sorted => deterministic parents
            if nxt not in parent:
                parent[nxt] = cur
                if nxt == dest:
                    path = [dest]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                dq.append(nxt)
    return None


class Router:
    """Lazy per-source hop-count oracle over one CSR per topology version.

    The topology's links are compiled once per version into CSR arrays
    (``_indptr``/``_indices``); a distance row is computed by a vectorised
    BFS frontier expansion the first time it is needed and memoised.
    The overlay is undirected, so :meth:`distance` answers from whichever
    endpoint's row is cached and, on a miss, computes the *destination's*
    row: replies (PLEDGE, ADMIT_REP) fan in on the node that asked, whose
    row then serves every replier.  A source that misses twice in a row
    is fanning out instead, and gets its own row.

    Given liveness predicates, the router answers over the *live* overlay
    — nodes passing ``is_up``, links between them passing ``link_up`` —
    with the same node positions and an edge mask over the compiled CSR.
    The mask is recomputed when ``(topo.version, liveness_version())``
    moves; cached rows survive when it comes out equal to the previous
    one (a compromise or recovery that does not change who communicates).
    Nodes outside the live overlay are unknown to every query.
    """

    def __init__(
        self,
        topo: Topology,
        *,
        is_up: Optional[Callable[[NodeId], bool]] = None,
        link_up: Optional[Callable[[NodeId, NodeId], bool]] = None,
        liveness_version: Optional[Callable[[], int]] = None,
    ) -> None:
        self.topo = topo
        self.is_up = is_up
        self.link_up = link_up
        self.liveness_version = (
            liveness_version if liveness_version is not None else (lambda: 0)
        )
        # the CSR arrays are set by _compile, the live overlay and its
        # caches (rows, component labels, aggregates) by _mask
        self._key: Optional[tuple] = None
        self._version = -1
        self._live_mask: Optional[tuple] = None
        self._last_miss = -1
        #: rows computed since construction — the scaling benchmarks read
        #: this to show how little of the V×V space a run actually visits
        self.rows_computed = 0

    # Cache maintenance ---------------------------------------------------

    def _refresh(self) -> None:
        """Follow topology and liveness changes (see the class docstring)."""
        key = (self.topo.version, self.liveness_version())
        if key == self._key:
            return
        self._key = key
        if self._version != self.topo.version:
            self._compile()
        self._mask()

    def _compile(self) -> None:
        """CSR of the full topology, both directions of every link."""
        nodes = self.topo.nodes()
        links = self.topo.links()
        n, m = len(nodes), len(links)
        self._ids = np.array(nodes, dtype=np.int64)
        flat = np.fromiter(chain.from_iterable(links), dtype=np.int64, count=2 * m)
        ends = np.searchsorted(self._ids, flat).reshape(m, 2)
        src = np.concatenate((ends[:, 0], ends[:, 1]))
        order = np.argsort(src, kind="stable")
        self._ends = ends
        self._edge_src = src[order]
        self._edge_dst = np.concatenate((ends[:, 1], ends[:, 0]))[order]
        self._edge_link = order % m
        self._nodes = nodes
        self._links = links
        self._all_index = {nid: i for i, nid in enumerate(nodes)}
        self._slot = np.empty(n, dtype=np.int64)
        self._live_mask = None
        self._version = self.topo.version

    def _mask(self) -> None:
        """Apply the current liveness to the CSR; keep caches if unchanged."""
        n = len(self._nodes)
        ends = self._ends
        if self.is_up is None:
            node_ok = np.ones(n, dtype=bool)
        else:
            node_ok = np.fromiter(map(self.is_up, self._nodes), dtype=bool, count=n)
        link_ok = node_ok[ends[:, 0]] & node_ok[ends[:, 1]]
        if self.link_up is not None:
            link_ok &= np.fromiter(
                starmap(self.link_up, self._links), dtype=bool, count=len(ends)
            )
        previous = self._live_mask
        if (
            previous is not None
            and np.array_equal(previous[0], node_ok)
            and np.array_equal(previous[1], link_ok)
        ):
            return
        self._live_mask = (node_ok, link_ok)
        keep = link_ok[self._edge_link]
        self._indices = self._edge_dst[keep]
        self._degree = np.bincount(self._edge_src[keep], minlength=n)
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._degree, out=self._indptr[1:])
        live = np.flatnonzero(node_ok)
        self._index = (
            self._all_index if live.size == n
            else dict(zip(compress(self._nodes, node_ok.tolist()), live.tolist()))
        )
        self._rows: Dict[int, np.ndarray] = {}
        self._comp = np.full(n, -1, dtype=np.int32)
        self._components: List[Tuple[tuple, int]] = []
        self._mean_path: Optional[float] = None
        self._diameter: Optional[int] = None

    def _bfs_row(self, src_idx: int) -> np.ndarray:
        """Distance row from positional index ``src_idx`` (not cached)."""
        dist = np.full(len(self._nodes), UNREACHABLE, dtype=np.int32)
        dist[src_idx] = 0
        frontier = np.array([src_idx], dtype=np.int64)
        indptr, degree, indices = self._indptr, self._degree, self._indices
        slot = self._slot
        d = 0
        while True:
            d += 1
            counts = degree[frontier]
            ends = counts.cumsum()
            total = ends[-1]
            if total == 0:
                break
            # gather all frontier neighbours in one flat index expression
            first = indptr[frontier] - ends + counts
            neigh = indices[first.repeat(counts) + np.arange(total)]
            fresh = neigh[dist[neigh] < 0]
            if fresh.size == 0:
                break
            dist[fresh] = d
            # dedup without sorting: the last writer of each slot survives
            pos = np.arange(fresh.size)
            slot[fresh] = pos
            frontier = fresh[slot[fresh] == pos]
        self.rows_computed += 1
        return dist

    def _row(self, src_idx: int) -> np.ndarray:
        row = self._rows.get(src_idx)
        if row is None:
            row = self._bfs_row(src_idx)
            self._rows[src_idx] = row
        return row

    def _aggregate_sweep(self) -> None:
        """One pass over all sources: mean shortest path and diameter.

        Rows are memoised along the way only on small overlays (see
        ``_ROW_CACHE_SWEEP_LIMIT``); large sweeps accumulate the sums and
        discard each row, keeping memory O(V).
        """
        keep = len(self._index) <= _ROW_CACHE_SWEEP_LIMIT
        total = 0
        pairs = 0
        widest = 0
        for i in self._index.values():
            row = self._row(i) if keep else self._rows.get(i)
            if row is None:
                row = self._bfs_row(i)
            reach = row[row > 0]      # excludes self (0) and unreachable (-1)
            if reach.size:
                total += int(reach.sum())
                pairs += int(reach.size)
                widest = max(widest, int(reach.max()))
        self._mean_path = total / pairs if pairs else 0.0
        self._diameter = widest

    # Queries ----------------------------------------------------------------

    def distance(self, source: NodeId, dest: NodeId) -> int:
        """Hop count, or ``UNREACHABLE`` (-1) if disconnected."""
        self._refresh()
        try:
            s, t = self._index[source], self._index[dest]
        except KeyError:
            raise KeyError("endpoint not in topology") from None
        rows = self._rows
        row = rows.get(s)
        if row is not None:
            return int(row[t])
        row = rows.get(t)
        if row is not None:
            return int(row[s])
        if s == self._last_miss:
            return int(self._row(s)[t])
        self._last_miss = s
        return int(self._row(t)[s])

    def reachable(self, source: NodeId, dest: NodeId) -> bool:
        return self.distance(source, dest) >= 0

    def mean_shortest_path(self) -> float:
        """Mean hop count over all reachable ordered node pairs.

        On the paper's 5x5 mesh this is ~3.33; the paper rounds the PLEDGE
        cost to 4, which :class:`~repro.network.transport.Transport`
        reproduces via its ``unicast_cost`` override.
        """
        self._refresh()
        if self._mean_path is None:
            self._aggregate_sweep()
        return self._mean_path  # type: ignore[return-value]

    def eccentricity(self, source: NodeId) -> int:
        """Greatest distance from ``source`` to any reachable node."""
        self._refresh()
        row = self._row(self._index[source])
        return int(row.max())

    def diameter(self) -> int:
        """Greatest finite pairwise distance."""
        self._refresh()
        if self._diameter is None:
            self._aggregate_sweep()
        return self._diameter  # type: ignore[return-value]

    def distances_from(self, source: NodeId) -> Dict[NodeId, int]:
        """Hop distances from ``source`` to each *reachable* node."""
        self._refresh()
        row = self._row(self._index[source])
        nodes = self._nodes
        return {
            nodes[i]: int(d) for i, d in enumerate(row) if d >= 0
        }

    def within(self, source: NodeId, hops: int) -> List[NodeId]:
        """Nodes within ``hops`` of ``source`` (excluding ``source``)."""
        self._refresh()
        row = self._row(self._index[source])
        nodes = self._nodes
        return [
            nodes[i]
            for i in np.flatnonzero((row > 0) & (row <= hops))
        ]

    def component(self, source: NodeId) -> Tuple[tuple, int]:
        """``(sorted members, link count)`` of ``source``'s connected
        component, or ``((), 0)`` if ``source`` is outside the overlay.

        The first query for a component computes ``source``'s row (kept,
        so later distance queries towards ``source`` reuse it) and labels
        every node it reaches; its other members answer from the label.
        """
        self._refresh()
        i = self._index.get(source)
        if i is None:
            return (), 0
        c = int(self._comp[i])
        if c < 0:
            members = np.flatnonzero(self._row(i) >= 0)
            c = len(self._components)
            self._comp[members] = c
            links = int(self._degree[members].sum()) // 2
            self._components.append((tuple(self._ids[members].tolist()), links))
        return self._components[c]

    def matrix(self) -> Tuple[List[NodeId], np.ndarray]:
        """``(sorted node list, distance matrix)`` — a copy, safe to mutate.

        Materialises every row; O(V²) memory by definition, so callers
        wanting network-wide aggregates on large graphs should prefer
        :meth:`mean_shortest_path` / :meth:`diameter`, which sweep without
        storing.
        """
        self._refresh()
        positions = np.fromiter(self._index.values(), dtype=np.int64)
        mat = np.empty((positions.size, positions.size), dtype=np.int32)
        for r, i in enumerate(positions.tolist()):
            row = self._rows.get(i)
            mat[r] = (row if row is not None else self._bfs_row(i))[positions]
        return list(self._index), mat


class EagerRouter:
    """The all-pairs oracle the lazy :class:`Router` replaced.

    Precomputes the dense V×V distance matrix (one dict-BFS per source)
    whenever the topology version moves.  O(V·(V+E)) setup and O(V²)
    memory — fine at paper scale, prohibitive at 2.5k+ nodes.  Retained
    as the reference implementation: the property suite pins the lazy
    router observationally equivalent, and the scaling benchmarks quote
    its setup cost as the "before" of the curve.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._version = -1
        self._index: Dict[NodeId, int] = {}
        self._matrix: np.ndarray = np.zeros((0, 0), dtype=np.int32)
        self._mean_path: float = 0.0

    def _refresh(self) -> None:
        if self._version == self.topo.version:
            return
        nodes = self.topo.nodes()
        n = len(nodes)
        self._index = {nid: i for i, nid in enumerate(nodes)}
        mat = np.full((n, n), UNREACHABLE, dtype=np.int32)
        for nid in nodes:
            i = self._index[nid]
            for other, d in bfs_distances(self.topo, nid).items():
                mat[i, self._index[other]] = d
        self._matrix = mat
        off_diag = ~np.eye(n, dtype=bool)
        reachable = (mat >= 0) & off_diag
        self._mean_path = float(mat[reachable].mean()) if reachable.any() else 0.0
        self._version = self.topo.version

    def distance(self, source: NodeId, dest: NodeId) -> int:
        self._refresh()
        try:
            return int(self._matrix[self._index[source], self._index[dest]])
        except KeyError:
            raise KeyError("endpoint not in topology") from None

    def reachable(self, source: NodeId, dest: NodeId) -> bool:
        return self.distance(source, dest) >= 0

    def mean_shortest_path(self) -> float:
        self._refresh()
        return self._mean_path

    def eccentricity(self, source: NodeId) -> int:
        self._refresh()
        row = self._matrix[self._index[source]]
        reachable = row[row >= 0]
        return int(reachable.max()) if reachable.size else 0

    def diameter(self) -> int:
        self._refresh()
        finite = self._matrix[self._matrix >= 0]
        return int(finite.max()) if finite.size else 0

    def distances_from(self, source: NodeId) -> Dict[NodeId, int]:
        self._refresh()
        row = self._matrix[self._index[source]]
        return {
            nid: int(row[i])
            for nid, i in self._index.items()
            if row[i] >= 0
        }

    def within(self, source: NodeId, hops: int) -> List[NodeId]:
        return sorted(
            nid
            for nid, d in self.distances_from(source).items()
            if 0 < d <= hops
        )

    def matrix(self) -> Tuple[List[NodeId], np.ndarray]:
        self._refresh()
        return self.topo.nodes(), self._matrix.copy()
