"""Shift and Hamming families: constructions, structural MIS oracles, errata."""

import math
from itertools import combinations

import numpy as np
import pytest

import mishit.graph
from conftest import cycle_graph, disjoint_union, oracle_mis_masks, vertex_set
from mishit.families import (
    HAMMING_MAX_M,
    HammingSpec,
    ShiftSpec,
    build_hamming_graph,
    build_shift_graph,
    hamming_ball,
    hamming_generators,
    hamming_mis_family,
    kleitman_alpha,
    shift_avoiding_partition,
    shift_cycle_hitting_set,
    shift_generators,
    shift_mis_family,
    shift_mis_from_partition,
)
from mishit.graph import FamilyTooLargeError, Graph, VertexSet, alpha, enumerate_mis, is_independent


# --- shift graph ------------------------------------------------------------


def test_shift_spec_bijection():
    spec = ShiftSpec(3)
    assert spec.n == 30
    seen = set()
    for idx in range(spec.n):
        pair = spec.index_to_pair(idx)
        assert spec.pair_to_index(*pair) == idx
        seen.add(pair)
    assert len(seen) == 30
    with pytest.raises(ValueError):
        spec.pair_to_index(1, 1)
    with pytest.raises(ValueError):
        spec.pair_to_index(0, 2)


def test_shift_rejects_k0():
    with pytest.raises(ValueError):
        build_shift_graph(0)


def test_shift_k2_shape():
    g, spec = build_shift_graph(2)
    assert g.n == 12
    assert g.num_edges() == 30
    assert all(g.adj[v].bit_count() == 5 for v in range(12))


def test_shift_adjacency_rule():
    g, spec = build_shift_graph(2)
    row = g.adj[spec.pair_to_index(1, 2)]
    assert row >> spec.pair_to_index(2, 3) & 1  # b == c
    assert row >> spec.pair_to_index(3, 1) & 1  # d == a
    assert not row >> spec.pair_to_index(3, 4) & 1
    # exhaustively against the rule
    for u in range(g.n):
        a, b = spec.index_to_pair(u)
        for v in range(g.n):
            c, d = spec.index_to_pair(v)
            expected = u != v and (b == c or d == a)
            assert bool(g.adj[u] >> v & 1) == expected


@pytest.mark.parametrize("k", [2, 3])
def test_shift_alpha_is_k_squared(k):
    g, _ = build_shift_graph(k)
    assert alpha(g) == k * k


def test_partition_set_explicit():
    g, spec = build_shift_graph(2)
    s = shift_mis_from_partition(spec, {1, 2})
    expected = {(1, 3), (1, 4), (2, 3), (2, 4)}
    assert {spec.index_to_pair(v) for v in s} == expected
    assert is_independent(g, s)
    mirror = shift_mis_from_partition(spec, {3, 4})
    assert mirror.bits != s.bits
    assert {spec.index_to_pair(v) for v in mirror} == {(3, 1), (3, 2), (4, 1), (4, 2)}


def test_partition_set_size_and_independence_k3():
    g, spec = build_shift_graph(3)
    for s in combinations(range(1, 7), 3):
        vs = shift_mis_from_partition(spec, s)
        assert len(vs) == 9
        assert is_independent(g, vs)


def test_partition_set_rejects_wrong_size():
    _, spec = build_shift_graph(2)
    with pytest.raises(ValueError):
        shift_mis_from_partition(spec, {1})
    with pytest.raises(ValueError):
        shift_mis_from_partition(spec, {1, 5})


@pytest.mark.parametrize("k", [1, 2, 3])
def test_partition_family_is_the_complete_mis_family(k):
    g, spec = build_shift_graph(k)
    family = shift_mis_family(spec)
    assert len(family) == math.comb(2 * k, k)
    assert len({s.bits for s in family.sets}) == len(family)
    enumerated = enumerate_mis(g)
    assert {s.bits for s in family.sets} == {s.bits for s in enumerated.sets}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cycle_hitting_set(k):
    g, spec = build_shift_graph(k)
    cyc = shift_cycle_hitting_set(spec)
    assert len(cyc) == k + 1
    for s in shift_mis_family(spec).sets:
        assert not s.isdisjoint(cyc)


def test_cycle_vertices_k2():
    _, spec = build_shift_graph(2)
    cyc = shift_cycle_hitting_set(spec)
    assert {spec.index_to_pair(v) for v in cyc} == {(1, 2), (2, 3), (3, 1)}


def test_avoiding_partition_exhaustive_k2():
    _, spec = build_shift_graph(2)
    family = shift_mis_family(spec)
    for size in (1, 2):
        for h_members in combinations(range(spec.n), size):
            h = vertex_set(spec.n, h_members)
            s = shift_avoiding_partition(spec, h)
            assert s is not None
            assert shift_mis_from_partition(spec, s).isdisjoint(h)
    cyc = shift_cycle_hitting_set(spec)
    assert shift_avoiding_partition(spec, cyc) is None


def test_avoiding_partition_sampled_k3():
    _, spec = build_shift_graph(3)
    rng = np.random.default_rng(404)
    for _ in range(300):
        size = int(rng.integers(1, 4))
        h_members = rng.choice(spec.n, size=size, replace=False)
        h = vertex_set(spec.n, (int(v) for v in h_members))
        s = shift_avoiding_partition(spec, h)
        assert s is not None and shift_mis_from_partition(spec, s).isdisjoint(h)


# --- hamming graph ----------------------------------------------------------


def test_hamming_spec_validation():
    for m, t in [(5, 1), (0, 1), (-2, 1), (HAMMING_MAX_M + 2, 1), (4, 0), (2, 2), (4, 3), (6, 4)]:
        with pytest.raises(ValueError):
            HammingSpec(m, t)  # odd, below 2 or above the cap; t outside 1..m/2
    spec = HammingSpec(6, 3)  # 4t^2 = 36 > 6 is the code builders' rule, not the spec's
    assert spec.ball_radius == 0
    assert HammingSpec(HAMMING_MAX_M, 1).n == 1 << HAMMING_MAX_M
    spec = HammingSpec(16, 2)
    assert spec.distance_floor == 12 and spec.ball_radius == 6


def test_hamming_adjacency_examples():
    g = build_hamming_graph(HammingSpec(4, 1))
    assert g.adj[0b0000] >> 0b0111 & 1      # distance 3 > 2
    assert not g.adj[0b0000] >> 0b0011 & 1  # distance 2
    assert g.adj[0b0000] >> 0b1111 & 1


def test_hamming_alpha_and_kleitman():
    assert kleitman_alpha(HammingSpec(4, 1)) == 5
    assert kleitman_alpha(HammingSpec(6, 1)) == 22
    assert alpha(build_hamming_graph(HammingSpec(4, 1))) == 5


def test_kleitman_rejects_negative_radius():
    # the spec refuses t > m/2, so a negative radius never reaches the sum
    with pytest.raises(ValueError):
        kleitman_alpha(HammingSpec(4, 3))


def test_kleitman_16_2_vs_pascal_oracle():
    # Pascal-triangle partial sums, no math.comb
    row = [1]
    for _ in range(16):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    expected = sum(row[: 6 + 1])
    assert kleitman_alpha(HammingSpec(16, 2)) == expected == 14893


def test_explicit_rejects_large_m():
    with pytest.raises(ValueError):
        build_hamming_graph(HammingSpec(14, 1))
    with pytest.raises(ValueError, match="explicit permutations need m <= 12"):
        hamming_generators(HammingSpec(14, 1))


def _far(spec, u, v):
    """The adjacency rule, applied inline: Hamming distance above m - 2t."""
    return (u ^ v).bit_count() > spec.distance_floor


@pytest.mark.parametrize("m,t", [(4, 1), (6, 1), (8, 1)])
def test_implicit_matches_explicit(m, t):
    spec = HammingSpec(m, t)
    g = build_hamming_graph(spec)
    for u in range(spec.n):
        row = 0
        for v in range(spec.n):
            if _far(spec, u, v):
                row |= 1 << v
        assert row == g.adj[u]


@pytest.mark.parametrize("m", [10, 12])
def test_implicit_matches_explicit_sampled(m):
    spec = HammingSpec(m, 1)
    g = build_hamming_graph(spec)
    rng = np.random.default_rng(m)
    for u, v in rng.integers(0, spec.n, size=(20_000, 2)):
        u, v = int(u), int(v)
        assert _far(spec, u, v) == bool(g.adj[u] >> v & 1)


def test_implicit_neighbors_and_degree():
    # the neighbours of u are u ^ d over the words d heavier than m - 2t
    spec = HammingSpec(6, 1)
    u = 0b101010
    nbrs = sorted(
        u ^ sum(1 << p for p in positions)
        for weight in range(spec.distance_floor + 1, spec.m + 1)
        for positions in combinations(range(spec.m), weight)
    )
    g = build_hamming_graph(spec)
    assert len(nbrs) == g.adj[u].bit_count() == 7  # C(6,5) + C(6,6)
    assert nbrs == list(VertexSet(64, g.adj[u]))


def test_ball_extremes():
    spec = HammingSpec(4, 1)
    assert hamming_ball(spec, 0b0110, 0).members() == (0b0110,)
    assert len(hamming_ball(spec, 0, 4)) == 16


def test_ball_is_mis_sized_independent_set():
    spec = HammingSpec(4, 1)
    g = build_hamming_graph(spec)
    for center in range(16):
        ball = hamming_ball(spec, center, spec.ball_radius)
        assert len(ball) == 5 == kleitman_alpha(spec)
        assert is_independent(g, ball)


def test_ball_size_formula():
    spec = HammingSpec(6, 1)
    assert kleitman_alpha(spec) == 22  # C(6,0) + C(6,1) + C(6,2)
    ball = hamming_ball(spec, 17, 2)
    assert len(ball) == 22


def test_ball_predicate_matches_materialised():
    spec = HammingSpec(6, 1)
    ball = hamming_ball(spec, 9, 2)
    assert all(((w ^ 9).bit_count() <= 2) == (w in ball) for w in range(64))


@pytest.mark.parametrize("m,t", [(4, 1), (6, 1)])
def test_ball_family_is_the_complete_mis_family(m, t):
    spec = HammingSpec(m, t)
    g = build_hamming_graph(spec)
    family = hamming_mis_family(spec)
    assert len(family) == spec.n
    assert len({s.bits for s in family.sets}) == spec.n  # distinct centers, distinct balls
    enumerated = enumerate_mis(g)
    assert {s.bits for s in family.sets} == {s.bits for s in enumerated.sets}


def test_ball_family_small_oracle():
    spec = HammingSpec(4, 1)
    g = build_hamming_graph(spec)
    assert sorted(s.bits for s in hamming_mis_family(spec).sets) == oracle_mis_masks(g)


# --- enumeration from the sets through vertex 0 -------------------------------


def _shift(k):
    g, spec = build_shift_graph(k)
    return g, shift_generators(spec)


def _hamming(m, t):
    spec = HammingSpec(m, t)
    return build_hamming_graph(spec), hamming_generators(spec)


ROTATE_FIRST_C5 = (1, 2, 3, 4, 0, 5, 6, 7, 8, 9)
SWAP_C5_COPIES = (5, 6, 7, 8, 9, 0, 1, 2, 3, 4)

GENERATED = {
    **{f"shift-{k}": lambda k=k: _shift(k) for k in range(1, 6)},
    # (6, 3) is complete: vertex 0 has no non-neighbours
    **{f"hamming-{m}-{t}": lambda m=m, t=t: _hamming(m, t)
       for m, t in [(2, 1), (4, 1), (4, 2), (6, 1), (6, 2), (6, 3)]},
    # two components; in either order, skipping one generator in the closure misses sets
    "c5+c5": lambda: (disjoint_union(cycle_graph(5), cycle_graph(5)), [ROTATE_FIRST_C5, SWAP_C5_COPIES]),
    "c5+c5-swap-first": lambda: (disjoint_union(cycle_graph(5), cycle_graph(5)), [SWAP_C5_COPIES, ROTATE_FIRST_C5]),
    "k1": lambda: (Graph.empty(1), [(0,)]),
    "empty": lambda: (Graph.empty(0), [()]),
}


@pytest.mark.parametrize("name", GENERATED)
def test_closure_of_the_sets_through_vertex_0_is_the_whole_family(name):
    g, generators = GENERATED[name]()
    assert enumerate_mis(g, generators) == enumerate_mis(g)


def test_generators_that_are_not_automorphisms_are_refused():
    g, spec = build_shift_graph(3)
    swap_01 = (1, 0, *range(2, spec.n))  # arcs (1, 2) and (1, 3) trade places, their neighbours do not
    with pytest.raises(ValueError, match="generator 3 is not an automorphism"):
        enumerate_mis(g, [*shift_generators(spec), swap_01])


def test_generators_that_do_not_move_vertex_0_everywhere_are_refused():
    g, spec = build_shift_graph(3)
    reversal = shift_generators(spec)[2]
    with pytest.raises(ValueError, match="do not move vertex 0 to every vertex"):
        enumerate_mis(g, [reversal])


@pytest.mark.parametrize("perm", [(0,) * 30, tuple(range(29)), tuple(range(1, 31))],
                         ids=["repeats", "short", "out-of-range"])
def test_generators_that_are_not_permutations_are_refused(perm):
    g, spec = build_shift_graph(3)
    with pytest.raises(ValueError, match="generator 0 is not a permutation of the 30 vertices"):
        enumerate_mis(g, [perm, *shift_generators(spec)])


def test_closure_past_the_cap_is_refused(monkeypatch):
    # 22 balls hold word 0, under the cap, so the search lists them; the closure reaches all 64
    monkeypatch.setattr(mishit.graph, "DEFAULT_MIS_CAP", 63)
    g, generators = _hamming(6, 1)
    with pytest.raises(FamilyTooLargeError, match="more than 63 maximum independent sets"):
        enumerate_mis(g, generators)
