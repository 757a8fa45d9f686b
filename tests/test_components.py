"""Solves split by connected component, against brute force on disjoint unions."""

import itertools

import numpy as np
import pytest

from conftest import disjoint_union, oracle_alpha, oracle_mis_masks, vertex_set
from mishit.graph import (
    FamilyTooLargeError,
    Graph,
    VertexSet,
    _components,
    _solve_kernel_corona,
    alpha,
    alpha_induced,
    enumerate_mis,
    induced_subgraph,
    is_independent,
    maximum_independent_set,
    random_graph,
)
from mishit.hajnal import kernel_corona
from mishit.hitting import h_of_graph


def scrambled_unions(count: int, seed: int):
    """Seeded disjoint unions of 2-4 random graphs on 2-8 vertices plus 0-3
    isolated vertices, relabelled by a random permutation so that no part is a
    contiguous block.  Yields (union, [(part, labels of its vertices in the union)])."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        parts = [
            random_graph(int(rng.integers(2, 9)), float(rng.uniform(0.1, 0.9)), rng)
            for _ in range(int(rng.integers(2, 5)))
        ]
        parts += [Graph.empty(1)] * int(rng.integers(0, 4))
        union = disjoint_union(*parts)
        perm = [int(v) for v in rng.permutation(union.n)]
        g = Graph.from_edges(union.n, [(perm[u], perm[v]) for u, v in union.edges()])
        labelled = []
        offset = 0
        for part in parts:
            labelled.append((part, tuple(perm[offset:offset + part.n])))
            offset += part.n
        yield g, labelled


def _to_labels(mask: int, labels) -> int:
    return sum(1 << label for v, label in enumerate(labels) if mask >> v & 1)


def oracle_union_family(labelled) -> list[int]:
    """Every maximum independent set of the union: one brute-force MIS per part."""
    per_part = [[_to_labels(m, labels) for m in oracle_mis_masks(part)] for part, labels in labelled]
    return sorted(sum(choice) for choice in itertools.product(*per_part))  # disjoint, so sum is union


def _kernel_and_corona(n: int, masks) -> tuple[int, int]:
    kernel, corona = (1 << n) - 1, 0
    for m in masks:
        kernel &= m
        corona |= m
    return kernel, corona


def _component_count(g: Graph, within: int) -> int:
    parent = {v: v for v in range(g.n) if within >> v & 1}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges():
        if u in parent and v in parent:
            parent[root(u)] = root(v)
    return sum(root(v) == v for v in parent)


def test_components_partition_the_restriction():
    rng = np.random.default_rng(90)
    for g, _ in scrambled_unions(30, seed=91):
        for within in ((1 << g.n) - 1, int.from_bytes(rng.bytes(5), "little") & ((1 << g.n) - 1)):
            comps = _components(g, within)
            assert sum(comps) == within and all(a & b == 0 for a, b in itertools.combinations(comps, 2))
            assert all(g.adj[v] & within & ~comp == 0 for comp in comps for v in VertexSet(g.n, comp))
            # no edge leaves a part and there are as many parts as components, so each part is one
            assert len(comps) == _component_count(g, within)
            assert comps == sorted(comps, key=lambda c: c & -c)


def test_alpha_and_witness_on_unions():
    for g, labelled in scrambled_unions(30, seed=92):
        a = alpha(g)
        assert a == sum(oracle_alpha(part) for part, _ in labelled)
        witness = maximum_independent_set(g)
        assert is_independent(g, witness) and len(witness) == a
        if g.n <= 14:
            assert a == oracle_alpha(g)


def test_enumeration_on_unions():
    for g, labelled in scrambled_unions(30, seed=96):
        family = enumerate_mis(g)
        by_members = sorted(oracle_union_family(labelled), key=lambda m: VertexSet(g.n, m).members())
        assert [s.bits for s in family.sets] == by_members
        assert family.alpha == sum(oracle_alpha(part) for part, _ in labelled)


def test_union_above_the_cap_is_refused():
    # 3^13 = 1,594,323 maximum independent sets, refused before any product is built
    triangles = disjoint_union(*[Graph.complete(3)] * 13)
    with pytest.raises(FamilyTooLargeError, match="more than 1000000 maximum independent sets"):
        enumerate_mis(triangles)
    with pytest.raises(FamilyTooLargeError):
        h_of_graph(triangles)


def _oracle_h(g: Graph) -> int:
    """Size of a smallest vertex set meeting every maximum independent set, by brute force."""
    masks = oracle_mis_masks(g)
    for size in range(1, g.n + 1):
        for chosen in itertools.combinations(range(g.n), size):
            bits = sum(1 << v for v in chosen)
            if all(m & bits for m in masks):
                return size


def test_h_of_union_is_the_least_h_of_its_parts():
    # a set misses some product set iff it misses one set in every part, so h(G + H) = min(h(G), h(H))
    rng = np.random.default_rng(97)
    checked = 0
    while checked < 20:
        parts = [
            random_graph(int(rng.integers(2, 6)), float(rng.uniform(0.3, 0.9)), rng)
            for _ in range(int(rng.integers(2, 4)))
        ]
        if any(part.adj[v].bit_count() == 0 for part in parts for v in range(part.n)):
            continue
        union = disjoint_union(*parts)
        assert union.n <= 14
        assert len(h_of_graph(union)) == min(_oracle_h(part) for part in parts)
        checked += 1


def test_kernel_and_corona_on_unions():
    for g, labelled in scrambled_unions(30, seed=93):
        family = oracle_union_family(labelled)
        if g.n <= 14:
            assert family == oracle_mis_masks(g)
        r = kernel_corona(g)
        assert r.alpha == family[0].bit_count()
        assert (r.kernel.bits, r.corona.bits) == _kernel_and_corona(g.n, family)


def test_induced_restrictions_of_unions():
    rng = np.random.default_rng(94)
    for g, _ in scrambled_unions(30, seed=95):
        w = vertex_set(g.n, (int(v) for v in rng.choice(g.n, size=min(g.n, 14), replace=False)))
        sub, old = induced_subgraph(g, w)
        assert alpha_induced(g, w) == oracle_alpha(sub)
        a, kernel, corona = _solve_kernel_corona(g, w.bits)
        family = [_to_labels(m, old) for m in oracle_mis_masks(sub)]
        assert a == oracle_alpha(sub)
        assert (kernel, corona) == _kernel_and_corona(g.n, family)
