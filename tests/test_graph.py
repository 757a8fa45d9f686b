"""Graph core: representation invariants, exact alpha, MIS enumeration, IO."""

import hashlib
import json
import pickle
from itertools import islice

import numpy as np
import pytest

import mishit.graph
from conftest import cycle_graph, oracle_alpha, oracle_mis_masks, run_fresh_python, seeded_graphs, vertex_set
from mishit.families import HammingSpec, build_hamming_graph, build_shift_graph
from mishit.graph import (
    FamilyTooLargeError,
    Graph,
    VertexSet,
    _cliques,
    _relabel,
    alpha,
    alpha_induced,
    enumerate_mis,
    graph_from_json_dict,
    graph_to_json_dict,
    induced_subgraph,
    is_independent,
    load_graph,
    maximum_independent_set,
    parse_dimacs,
    random_graph,
    save_graph,
)


# --- representation -------------------------------------------------------


def test_vertexset_roundtrip():
    s = vertex_set(10, [3, 1, 7])
    assert s.members() == (1, 3, 7)
    assert len(s) == 3
    assert 3 in s and 0 not in s
    assert list(s) == [1, 3, 7]


def test_vertexset_rejects_out_of_range():
    with pytest.raises(ValueError):
        VertexSet(4, -1)
    with pytest.raises(ValueError):
        VertexSet(3, 0b1000)


def test_vertexset_algebra():
    a = vertex_set(6, [0, 1, 2])
    assert not a.isdisjoint(vertex_set(6, [2, 3]))
    assert a.isdisjoint(vertex_set(6, [3, 5]))
    with pytest.raises(ValueError):
        a.isdisjoint(VertexSet(5, (1 << 5) - 1))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def _random_builds():
    params = [(0, 0.5, 1), (1, 0.5, 2), (9, 0.3, 3), (17, 0.7, 4), (40, 0.5, 5)]
    return [random_graph(n, p, seed) for n, p, seed in params]


def _induced_builds():
    g = random_graph(14, 0.5, 6)
    subsets = [[], [3], range(0, 14, 2), range(14)]
    return [induced_subgraph(g, vertex_set(14, members))[0] for members in subsets]


@pytest.mark.parametrize("build", [
    pytest.param(lambda: [Graph.from_edges(5, [(0, 1), (1, 2), (4, 0), (2, 1)])], id="from_edges"),
    pytest.param(lambda: [Graph.empty(n) for n in (0, 1, 7)], id="empty"),
    pytest.param(lambda: [Graph.complete(n) for n in (0, 1, 2, 9)], id="complete"),
    pytest.param(_random_builds, id="random_graph"),
    pytest.param(lambda: [build_shift_graph(k)[0] for k in (1, 2, 3)], id="shift"),
    pytest.param(
        lambda: [build_hamming_graph(HammingSpec(m, t)) for m in (2, 4, 6, 8) for t in (1, 2) if t <= m // 2],
        id="hamming",
    ),
    pytest.param(_induced_builds, id="induced_subgraph"),
])
def test_builders_make_valid_rows(build):
    # Graph trusts its rows, so every in-package builder must make them in
    # range, loop-free and symmetric
    for g in build():
        assert len(g.adj) == g.n
        for v, row in enumerate(g.adj):
            assert 0 <= row < 1 << g.n
            assert not row >> v & 1
            for u in range(g.n):
                assert (row >> u & 1) == (g.adj[u] >> v & 1)
        assert pickle.loads(pickle.dumps(g)) == g


def test_graph_too_large_rejected():
    with pytest.raises(ValueError):
        Graph.empty(4097)


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.adj[1].bit_count() == 2
    assert g.num_edges() == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert g.adj[0] >> 1 & 1 and not g.adj[0] >> 2 & 1
    assert g == Graph.from_edges(4, [(1, 2), (0, 1)])


# --- alpha and enumeration ------------------------------------------------


def test_alpha_edgeless():
    assert alpha(Graph.empty(5)) == 5


def test_alpha_complete():
    assert alpha(Graph.complete(4)) == 1


def test_alpha_empty_graph():
    g = Graph.empty(0)
    assert alpha(g) == 0
    assert maximum_independent_set(g).members() == ()


def test_witness_is_valid():
    for g in seeded_graphs(25, seed=101, n_hi=12):
        w = maximum_independent_set(g)
        assert is_independent(g, w)
        assert len(w) == alpha(g)


def test_alpha_matches_brute_force():
    for g in seeded_graphs(40, seed=7, n_hi=12):
        assert alpha(g) == oracle_alpha(g)


def test_alpha_matches_brute_force_n14():
    for g in seeded_graphs(5, seed=71, n_lo=13, n_hi=14):
        assert alpha(g) == oracle_alpha(g)


def test_enumeration_matches_brute_force():
    for g in seeded_graphs(25, seed=13, n_hi=10):
        family = enumerate_mis(g)
        assert sorted(s.bits for s in family.sets) == oracle_mis_masks(g)
        assert list(family.sets) == sorted(family.sets, key=VertexSet.members)


def test_enumerate_triangle():
    family = enumerate_mis(Graph.complete(3))
    assert family.alpha == 1
    assert [s.members() for s in family.sets] == [(0,), (1,), (2,)]


def test_enumerate_edgeless_single_set():
    family = enumerate_mis(Graph.empty(6))
    assert len(family) == 1
    assert family.sets[0].members() == tuple(range(6))


def test_enumerate_cap(monkeypatch):
    # K_5 has five maximum independent sets: listed at a cap of 5, refused (not truncated) at 3
    monkeypatch.setattr(mishit.graph, "DEFAULT_MIS_CAP", 5)
    assert len(enumerate_mis(Graph.complete(5))) == 5
    monkeypatch.setattr(mishit.graph, "DEFAULT_MIS_CAP", 3)
    with pytest.raises(FamilyTooLargeError, match="more than 3 maximum independent sets"):
        enumerate_mis(Graph.complete(5))


# One component, alpha = 3: the listing search meets five maximal sets of
# size 2 before any of the three maximum sets.
SMALL_SETS_FIRST = Graph.from_edges(8, [
    (0, 2), (0, 3), (0, 7), (1, 2), (1, 4), (1, 5), (1, 7), (2, 5),
    (2, 6), (2, 7), (3, 4), (3, 5), (4, 5), (5, 6), (6, 7),
])


def test_enumerate_cap_counts_only_maximum_sets(monkeypatch):
    sizes = []  # sizes of the sets the listing search yields, in order
    original = mishit.graph._cliques

    def recording(rows, start, floor):
        for mask in original(rows, start, floor):
            sizes.append(mask.bit_count())
            yield mask

    monkeypatch.setattr(mishit.graph, "_cliques", recording)
    monkeypatch.setattr(mishit.graph, "DEFAULT_MIS_CAP", 3)
    family = enumerate_mis(SMALL_SETS_FIRST)
    # more sets than the cap of one size below alpha came first, and are not counted against it
    assert sizes.index(3) > 3 and set(sizes[:sizes.index(3)]) == {2}
    assert family.alpha == 3
    assert sorted(s.bits for s in family.sets) == oracle_mis_masks(SMALL_SETS_FIRST)
    assert len(family) == 3
    monkeypatch.setattr(mishit.graph, "DEFAULT_MIS_CAP", 2)  # the three maximum sets are still refused
    with pytest.raises(FamilyTooLargeError, match="more than 2 maximum independent sets"):
        enumerate_mis(SMALL_SETS_FIRST)


def test_witnesses_and_clique_order_are_pinned():
    # sha256 over the witnesses and the first 64 cliques the search yields at
    # floors 0-4, as the recursive search produced them: witness and
    # enumeration order are promised to be reproducible
    digest = hashlib.sha256()
    for g in seeded_graphs(300, seed=12, n_hi=16):
        rows, full = g.adj, (1 << g.n) - 1
        digest.update(repr(maximum_independent_set(g).bits).encode())
        for floor in range(5):
            digest.update(repr(list(islice(_cliques(rows, full, [floor]), 64))).encode())
    assert digest.hexdigest() == "39808c789299ded2b19570d81fb37fa76cca5209b5f5c3a2e9843fff2e11040e"


def test_clique_order_is_pinned_on_dense_complements():
    # sha256 over every clique the search yields at floor alpha and the first
    # 64 at alpha - 1 on the complements of the Hamming m = 6, t = 1 graph
    # (64 vertices, 64 maximum cliques) and the k = 4 shift graph (56
    # vertices, 70), as the search with (vertex, colour) pair lists yielded them
    digest = hashlib.sha256()
    for g in (build_hamming_graph(HammingSpec(6, 1)), build_shift_graph(4)[0]):
        rows, full, a = g.adj, (1 << g.n) - 1, alpha(g)
        digest.update(repr(list(_cliques(rows, full, [a]))).encode())
        digest.update(repr(list(islice(_cliques(rows, full, [a - 1]), 64))).encode())
    assert digest.hexdigest() == "a841fafcfec755f54de19d26a86e15a251b9067cbd863158593c82e05c04b271"


@pytest.mark.parametrize("percent", range(5, 100, 5))
def test_relabel_orders_by_descending_complement_degree(percent):
    # the search runs on the complement but reads G's rows: the order must be
    # the complement's descending degree, ties by index, on sparse and dense G
    rng = np.random.default_rng(percent)
    for n in (1, 2, 7, 16, 30):
        g = random_graph(n, percent / 100, rng)
        full = (1 << n) - 1
        comp_deg = [sum(1 for u in range(n) if u != v and not g.adj[v] >> u & 1) for v in range(n)]
        rows, verts = _relabel(g.adj, full)
        assert verts == tuple(sorted(range(n), key=lambda v: (-comp_deg[v], v)))
        assert all(rows[i] >> j & 1 == g.adj[verts[i]] >> verts[j] & 1 for i in range(n) for j in range(n))


def test_empty_start_yields_the_empty_clique_only_at_floor_zero():
    assert list(_cliques((0,), 0, [0])) == [0]
    assert list(_cliques((0,), 0, [1])) == []


def test_search_deeper_than_the_starting_recursion_limit():
    # the 600-vertex star's complement holds a 599-clique, so every search on
    # it goes 599 levels deep; the search keeps its own stack, so it runs
    # under a limit of 100 and leaves that limit as it found it
    script = (
        "import sys\n"
        "from mishit.graph import Graph, alpha, enumerate_mis\n"
        "from mishit.hajnal import kernel_corona\n"
        "sys.setrecursionlimit(100)\n"
        "star = Graph.from_edges(600, [(0, v) for v in range(1, 600)])\n"
        "print(alpha(star), len(enumerate_mis(star)), len(kernel_corona(star).kernel), sys.getrecursionlimit())\n"
    )
    assert run_fresh_python(script) == "599 1 599 100\n"


def test_removing_vertex_changes_alpha_by_at_most_one():
    for g in seeded_graphs(20, seed=23, n_lo=2, n_hi=11):
        a = alpha(g)
        full = (1 << g.n) - 1
        for v in range(g.n):
            sub = alpha_induced(g, full & ~(1 << v))
            assert a - 1 <= sub <= a


def test_alpha_induced_agrees_with_rebuilt_subgraph():
    for g in seeded_graphs(15, seed=31, n_lo=3, n_hi=11):
        w = vertex_set(g.n, range(0, g.n, 2))
        sub, _ = induced_subgraph(g, w)
        assert alpha_induced(g, w) == alpha(sub)


# --- induced subgraphs ----------------------------------------------------


def test_induced_full_is_copy():
    g = cycle_graph(5)
    sub, mapping = induced_subgraph(g, VertexSet(5, (1 << 5) - 1))
    assert sub == g
    assert mapping == (0, 1, 2, 3, 4)


def test_induced_empty():
    sub, mapping = induced_subgraph(cycle_graph(5), VertexSet(5, 0))
    assert sub.n == 0 and mapping == ()


def test_induced_path_from_cycle():
    sub, _ = induced_subgraph(cycle_graph(5), vertex_set(5, [0, 1, 2]))
    assert sub.num_edges() == 2
    assert sorted(sub.adj[v].bit_count() for v in range(3)) == [1, 1, 2]


def test_induced_rejects_foreign_set():
    with pytest.raises(ValueError):
        induced_subgraph(cycle_graph(5), VertexSet(4, (1 << 4) - 1))


# --- independence checks --------------------------------------------------


def test_is_independent_trivial():
    g = Graph.from_edges(3, [(0, 1)])
    assert is_independent(g, VertexSet(3, 0))
    assert not is_independent(g, vertex_set(3, [0, 1]))
    assert is_independent(g, vertex_set(3, [0, 2]))


# --- io ---------------------------------------------------------------------


def test_json_roundtrip(tmp_path):
    g = cycle_graph(6)
    path = tmp_path / "g.json"
    save_graph(g, path)
    assert load_graph(path) == g
    assert graph_from_json_dict(graph_to_json_dict(g)) == g


def test_json_deterministic_bytes(tmp_path):
    g = cycle_graph(6)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(g, p1)
    save_graph(g, p2)
    assert p1.read_bytes() == p2.read_bytes()
    json.loads(p1.read_text())  # stays valid JSON


def test_dimacs_parse(tmp_path):
    text = "c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = parse_dimacs(text)
    assert g.n == 4
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    path = tmp_path / "g.col"
    path.write_text(text)
    assert load_graph(path) == g


def test_random_graph_deterministic():
    g1 = random_graph(10, 0.4, seed=99)
    g2 = random_graph(10, 0.4, seed=99)
    assert g1 == g2
    assert g1 != random_graph(10, 0.4, seed=100)


def _scalar_draw_random_graph(n, p, rng):
    # the definition random_graph keeps: one scalar draw per pair (u, v), u < v, in order
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.5, 0.9, 1.0])
def test_random_graph_keeps_the_per_pair_draw_stream(p):
    for n in range(15):
        for seed in range(4):
            gen, ref = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
            assert random_graph(n, p, gen) == _scalar_draw_random_graph(n, p, ref), (n, p, seed)
            # callers keep drawing from the same generator after the graph; n = 0 and
            # n = 1 draw nothing
            assert gen.random() == ref.random(), (n, p, seed)
