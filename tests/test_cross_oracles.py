"""Randomised cross-checks of the solvers against direct subset scans."""

from itertools import combinations

import numpy as np

from mishit.graph import VertexSet, alpha
from mishit.hitting import CoveringCode, covering_radius, min_hitting_set
from conftest import cycle_graph


def brute_min_hitting_sets(masks, n):
    """All minimum transversals, by scanning subsets in size order."""
    for size in range(0, n + 1):
        found = [
            combo
            for combo in combinations(range(n), size)
            if all(any(m >> v & 1 for v in combo) for m in masks)
        ]
        if found:
            return size, found
    raise AssertionError("unhittable family")


def test_hitting_solver_against_subset_scan():
    rng = np.random.default_rng(90210)
    for _ in range(150):
        n = int(rng.integers(3, 11))
        count = int(rng.integers(1, 8))
        masks = []
        for _ in range(count):
            size = int(rng.integers(1, n + 1))
            members = rng.choice(n, size=size, replace=False)
            masks.append(sum(1 << int(v) for v in members))
        family = [VertexSet(n, m) for m in masks]
        result = min_hitting_set(family)
        opt, all_optima = brute_min_hitting_sets(masks, n)
        assert result.size == opt
        assert result.set.members() == min(all_optima)  # lexicographically least


def brute_covering_radius(words, m):
    return max(min((w ^ c).bit_count() for c in words) for w in range(1 << m))


def test_covering_radius_against_pure_python():
    rng = np.random.default_rng(4242)
    for _ in range(40):
        m = int(rng.choice([3, 4, 5, 6, 7, 8]))
        size = int(rng.integers(1, 7))
        words = tuple(int(w) for w in rng.integers(0, 1 << m, size=size))
        code = CoveringCode(m, words, m // 2)
        radius, _ = covering_radius(code)
        assert radius == brute_covering_radius(code.words, m)


def test_cycle_alpha_known_values():
    for n in range(3, 13):
        assert alpha(cycle_graph(n)) == n // 2


def test_petersen_alpha():
    # outer 5-cycle, inner pentagram, spokes
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    from mishit.graph import Graph

    assert alpha(Graph.from_edges(10, edges)) == 4
