"""Lexicographic products as exact oracles past brute force.

In G∘H (``conftest.lex_product``) a maximum independent set is one of G, I,
with one of H in each copy over I (Geller & Stahl, "The chromatic number and
other functions of the lexicographic product", JCTB 19, 1975).  So, from
brute force on factors of at most 6 vertices, the product's answers are known
exactly at sizes where no brute force reaches:

- alpha(G∘H) = alpha(G)·alpha(H);
- #MIS(G∘H) = #MIS(G)·#MIS(H)^alpha(G);
- the kernel is ker(H) in each copy over ker(G), and the corona likewise;
- h(G∘H) = h(G)·h(H).  A transversal Y of G with a transversal of H in each
  copy over Y hits every set.  Conversely, for a transversal X let Y be the
  vertices whose copy X meets in a transversal of H: if Y missed a maximum
  independent set I of G, a maximum independent set of H missing X could be
  chosen in each copy over I, so Y is a transversal and |X| >= |Y|·h(H).
"""

import itertools

import numpy as np
import pytest

from conftest import lex_product, oracle_mis_masks
from mishit.graph import Graph, alpha, enumerate_mis, random_graph
from mishit.hajnal import kernel_corona
from mishit.hitting import h_of_graph


def _brute_facts(g):
    """(alpha, #MIS, kernel, corona, h) of a small graph by brute force."""
    masks = oracle_mis_masks(g)
    kernel = corona = masks[0]
    for m in masks:
        kernel &= m
        corona |= m
    h = next(
        size
        for size in range(1, g.n + 1)
        for chosen in itertools.combinations(range(g.n), size)
        if all(m & sum(1 << v for v in chosen) for m in masks)
    )
    return masks[0].bit_count(), len(masks), kernel, corona, h


def _placed(g_bits, h_bits, h_n, g_n):
    """h_bits in each copy of H over the vertices in g_bits."""
    return sum(h_bits << u * h_n for u in range(g_n) if g_bits >> u & 1)


def _seeded_pairs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = random_graph(int(rng.integers(3, 7)), float(rng.uniform(0.2, 0.8)), rng)
        h = random_graph(int(rng.integers(2, 6)), float(rng.uniform(0.2, 0.8)), rng)
        yield g, h


PAIRS = list(_seeded_pairs(40, 2103))


def test_the_pairs_reach_past_brute_force():
    assert sum(g.n * h.n > 20 for g, h in PAIRS) >= 8


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_product_answers_follow_from_the_factors(index):
    g, h = PAIRS[index]
    a_g, count_g, ker_g, cor_g, h_g = _brute_facts(g)
    a_h, count_h, ker_h, cor_h, h_h = _brute_facts(h)
    gh = lex_product(g, h)
    assert alpha(gh) == a_g * a_h
    assert len(enumerate_mis(gh)) == count_g * count_h**a_g
    report = kernel_corona(gh)
    assert report.kernel.bits == _placed(ker_g, ker_h, h.n, g.n)
    assert report.corona.bits == _placed(cor_g, cor_h, h.n, g.n)
    assert len(h_of_graph(gh)) == h_g * h_h


def test_complement_of_c7_composed_with_itself():
    # 49 vertices, past every brute-force oracle: alpha 2·2 and 7·7^2 maximum
    # independent sets, no kernel and every vertex in the corona
    c7bar = Graph.from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if (v - u) % 7 not in (1, 6)])
    a, count, kernel, corona, _ = _brute_facts(c7bar)
    assert (a, count, kernel, corona) == (2, 7, 0, (1 << 7) - 1)
    square = lex_product(c7bar, c7bar)
    assert alpha(square) == 4
    assert len(enumerate_mis(square)) == 343
    report = kernel_corona(square)
    assert report.kernel.bits == 0 and report.corona.bits == (1 << 49) - 1
