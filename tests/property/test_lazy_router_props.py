"""Property tests: the lazy Router is observationally equivalent to the
eager all-pairs oracle it replaced.

The lazy :class:`~repro.network.routing.Router` (CSR adjacency, on-demand
numpy BFS rows) is only a legal substitution because every query answers
exactly what the dense-matrix :class:`~repro.network.routing.EagerRouter`
would have answered — distances, aggregates, and the exact float of the
mean shortest path (the PLEDGE cost feeds straight into the figures).
These tests pin that equivalence on seeded random topologies, across
topology mutations, across fail-link/restore-link fault sequences, in
any order of symmetric point and row queries, and for the transport's
single live router, which masks its CSR under random crash, compromise,
recover, link and join schedules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.faults import FaultManager
from repro.network.routing import EagerRouter, Router, shortest_path
from repro.network.topology import Topology
from repro.network.transport import Transport
from repro.sim.kernel import Simulator


@st.composite
def random_topologies(draw):
    """Connected-ish random graphs with 2-20 nodes."""
    n = draw(st.integers(2, 20))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    topo = Topology(nodes=range(n))
    # random spanning tree first (guarantees connectivity), extra edges after
    order = list(rng.permutation(n))
    for i in range(1, n):
        parent = order[int(rng.integers(i))]
        topo.add_link(order[i], parent)
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            topo.add_link(u, v)
    return topo


def assert_equivalent(lazy: Router, eager: EagerRouter, topo: Topology) -> None:
    """Every public query agrees, including the exact aggregate floats."""
    nodes = topo.nodes()
    for a in nodes:
        for b in nodes:
            assert lazy.distance(a, b) == eager.distance(a, b)
    # bit-identical, not approx: both reduce exact int sums in float64
    assert lazy.mean_shortest_path() == eager.mean_shortest_path()
    assert lazy.diameter() == eager.diameter()
    for a in nodes:
        assert lazy.eccentricity(a) == eager.eccentricity(a)
        assert lazy.distances_from(a) == eager.distances_from(a)
        assert lazy.within(a, 2) == eager.within(a, 2)


class TestLazyEagerEquivalence:
    @given(random_topologies())
    @settings(max_examples=50, deadline=None)
    def test_all_queries_match_eager(self, topo):
        assert_equivalent(Router(topo), EagerRouter(topo), topo)

    @given(random_topologies())
    @settings(max_examples=30, deadline=None)
    def test_matrix_matches_eager(self, topo):
        lazy_nodes, lazy_mat = Router(topo).matrix()
        eager_nodes, eager_mat = EagerRouter(topo).matrix()
        assert lazy_nodes == eager_nodes
        assert np.array_equal(lazy_mat, eager_mat)

    @given(random_topologies(), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_survives_topology_growth(self, topo, seed):
        """The same Router object stays correct across add_link/add_node."""
        rng = np.random.default_rng(seed)
        lazy, eager = Router(topo), EagerRouter(topo)
        lazy.mean_shortest_path()  # warm the caches that must invalidate
        n = topo.num_nodes
        topo.add_node(n)
        topo.add_link(n, int(rng.integers(n)))
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and not topo.has_link(u, v):
            topo.add_link(u, v)
        assert_equivalent(lazy, eager, topo)

    @given(random_topologies())
    @settings(max_examples=30, deadline=None)
    def test_query_order_is_irrelevant(self, topo):
        """Aggregate-first and row-first query orders agree (the sweep
        shares the row cache with point queries)."""
        a = Router(topo)
        b = Router(topo)
        nodes = topo.nodes()
        mean_first = a.mean_shortest_path()
        rows_first = [b.distance(nodes[0], x) for x in nodes]
        assert rows_first == [a.distance(nodes[0], x) for x in nodes]
        assert b.mean_shortest_path() == mean_first


class TestSmallestIdPaths:
    @given(random_topologies())
    @settings(max_examples=40, deadline=None)
    def test_paths_deterministic_and_lexicographically_smallest(self, topo):
        """``shortest_path`` always returns the same path, its length is
        the router distance, and among all shortest paths it is the
        lexicographically smallest (BFS over sorted neighbours discovers
        nodes in lexicographic path order, so the first parent wins)."""
        import networkx as nx

        nodes = topo.nodes()
        src, dst = nodes[0], nodes[-1]
        path = shortest_path(topo, src, dst)
        assert path == shortest_path(topo, src, dst)
        d = Router(topo).distance(src, dst)
        if d < 0:
            assert path is None
            return
        assert path is not None and len(path) - 1 == d
        G = nx.Graph()
        G.add_nodes_from(nodes)
        G.add_edges_from(topo.links())
        canonical = min(
            [int(x) for x in p] for p in nx.all_shortest_paths(G, src, dst)
        )
        assert [int(x) for x in path] == canonical


@st.composite
def fault_sequences(draw):
    """A topology plus an interleaved fail/restore-link schedule."""
    topo = draw(random_topologies())
    links = topo.links()
    ops = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, len(links) - 1)),
            min_size=1,
            max_size=8,
        )
    )
    return topo, links, ops


class TestEquivalenceUnderFaults:
    @given(fault_sequences())
    @settings(max_examples=30, deadline=None)
    def test_live_overlay_equivalence_across_fail_restore(self, case):
        """After every fail_link/restore_link step the lazy and eager
        routers agree on the *live* overlay the fault model exposes."""
        topo, links, ops = case
        sim = Simulator()
        faults = FaultManager(sim, topo)
        failed = set()
        for restore, idx in ops:
            u, v = links[idx]
            if restore:
                faults.restore_link(u, v)
                failed.discard((u, v))
            else:
                faults.fail_link(u, v)
                failed.add((u, v))
            live = faults.live_topology()
            assert live.num_links == len(links) - len(failed)
            assert_equivalent(Router(live), EagerRouter(live), live)


class TestSymmetricLookups:
    @given(random_topologies(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_query_order_matches_eager(self, topo, data):
        """A distance may come from either endpoint's cached row; every
        interleaving of point queries (both orders) and row queries
        answers what the eager oracle answers."""
        lazy, eager = Router(topo), EagerRouter(topo)
        nodes = topo.nodes()
        ops = data.draw(st.lists(
            st.tuples(
                st.sampled_from(["distance", "reverse", "from", "within", "ecc"]),
                st.sampled_from(nodes),
                st.sampled_from(nodes),
            ),
            max_size=30,
        ))
        for op, a, b in ops:
            if op == "distance":
                assert lazy.distance(a, b) == eager.distance(a, b)
            elif op == "reverse":
                assert lazy.distance(b, a) == eager.distance(a, b)
            elif op == "from":
                assert lazy.distances_from(a) == eager.distances_from(a)
            elif op == "within":
                assert lazy.within(a, 2) == eager.within(a, 2)
            else:
                assert lazy.eccentricity(a) == eager.eccentricity(a)
        assert_equivalent(lazy, eager, topo)


LIVENESS_OPS = ["crash", "compromise", "recover", "fail_link", "restore_link", "join"]


@st.composite
def liveness_schedules(draw):
    """A topology plus a random node/link liveness and growth schedule."""
    topo = draw(random_topologies())
    ops = draw(st.lists(
        st.tuples(st.sampled_from(LIVENESS_OPS), st.integers(0, 10**6)),
        min_size=1,
        max_size=12,
    ))
    return topo, ops


def wired(topo):
    faults = FaultManager(Simulator(), topo)
    transport = Transport(
        faults.sim, topo,
        is_up=faults.can_communicate,
        link_up=faults.link_up,
        liveness_version=lambda: faults.version,
    )
    return faults, transport


def ground_truth_overlay(topo, faults):
    """The communicating subgraph minus failed links, built from scratch."""
    live = topo.subgraph([n for n in topo.nodes() if faults.can_communicate(n)])
    for u, v in live.links():
        if not faults.link_up(u, v):
            live.remove_link(u, v)
    return live


def apply(op, k, topo, faults):
    nodes = topo.nodes()
    node = nodes[k % len(nodes)]
    if op == "crash":
        faults.crash(node)
    elif op == "compromise":
        faults.compromise(node)
    elif op == "recover":
        faults.recover(node)
    elif op == "join":
        new = max(nodes) + 1
        topo.add_node(new)
        topo.add_link(new, node)
    elif topo.num_links:
        u, v = topo.links()[k % topo.num_links]
        if op == "fail_link":
            faults.fail_link(u, v)
        else:
            faults.restore_link(u, v)


class TestMaskedLiveRouter:
    @given(liveness_schedules())
    @settings(max_examples=40, deadline=None)
    def test_live_router_matches_fresh_oracle(self, case):
        """One live router for the whole schedule answers, after every
        step, what a fresh eager router over the rebuilt live overlay
        answers; flood receivers and link counts match a fresh
        component computation."""
        topo, ops = case
        faults, transport = wired(topo)
        router = transport.live_router()
        for op, k in ops:
            apply(op, k, topo, faults)
            live = ground_truth_overlay(topo, faults)
            assert transport.live_router() is router
            assert_equivalent(router, EagerRouter(live), live)
            nodes, mat = router.matrix()
            assert nodes == live.nodes()
            assert np.array_equal(mat, EagerRouter(live).matrix()[1])
            for dead in set(topo.nodes()) - set(live.nodes()):
                with pytest.raises(KeyError):
                    router.distance(dead, dead)
                assert transport._flood_structure(dead) == ((), 0)
            for comp in live.connected_components():
                links = sum(1 for u, _ in live.links() if u in comp)
                for src in comp:
                    receivers = tuple(sorted(comp - {src}))
                    assert transport._flood_structure(src) == (receivers, links)


class TestEpochReuse:
    @given(random_topologies(), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_compromise_keeps_rows_and_crash_moves_the_epoch(self, topo, k):
        """A compromised node still communicates, so the overlay and every
        cached row survive the liveness bump; a crash changes the overlay
        and the next query computes a fresh row."""
        nodes = topo.nodes()
        victim = nodes[k % len(nodes)]
        others = [n for n in nodes if n != victim]
        faults, transport = wired(topo)
        router = transport.live_router()
        answers = [router.distance(a, others[0]) for a in others]
        rows = router.rows_computed
        faults.compromise(victim)
        assert [router.distance(a, others[0]) for a in others] == answers
        faults.recover(victim)
        assert [router.distance(a, others[0]) for a in others] == answers
        assert router.rows_computed == rows
        faults.crash(victim)
        router.distance(others[0], others[-1])
        assert router.rows_computed == rows + 1
