"""Kernel/corona structure and the two verification corpora."""

import numpy as np
import pytest

from conftest import oracle_mis_masks, seeded_graphs
from mishit.families import build_shift_graph, shift_mis_family
from mishit.graph import Graph, VertexSet, enumerate_mis
from mishit.hajnal import (
    all_graphs_kernel_stats,
    exhaustive_corpus_check,
    exhaustive_corpus_rows,
    kernel_corona,
    kernel_guarantee_check,
    random_corpus_check,
)


def test_edgeless_kernel_is_everything():
    r = kernel_corona(Graph.empty(4))
    assert r.alpha == 4
    assert r.kernel.members() == r.corona.members() == (0, 1, 2, 3)
    assert r.holds and r.complete


def test_complete_graph_kernel_empty():
    r = kernel_corona(Graph.complete(5))
    assert r.alpha == 1
    assert len(r.kernel) == 0 and len(r.corona) == 5
    assert r.holds  # 0 + 5 >= 2


def test_shift_k2_kernel_and_corona():
    g, spec = build_shift_graph(2)
    r = kernel_corona(g)
    # the six S x T sets intersect in nothing and cover everything
    family = shift_mis_family(spec)
    expected_kernel = (1 << g.n) - 1
    expected_corona = 0
    for s in family.sets:
        expected_kernel &= s.bits
        expected_corona |= s.bits
    assert r.kernel.bits == expected_kernel == 0
    assert r.corona.bits == expected_corona == (1 << 12) - 1
    assert r.holds


def test_kernel_within_restriction():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    r = kernel_corona(g, within=VertexSet.from_members(4, [0, 1]))
    assert r.alpha == 1
    assert len(r.kernel) == 0
    assert r.corona.members() == (0, 1)


def test_kernel_capped_is_flagged():
    r = kernel_corona(Graph.complete(6), cap=2)
    assert not r.complete


def test_kernel_and_corona_bound_every_mis():
    for g in seeded_graphs(25, seed=55, n_hi=11):
        r = kernel_corona(g)
        for s in enumerate_mis(g).sets:
            assert r.kernel.issubset(s)
            assert s.issubset(r.corona)


def test_kernel_guarantee_on_edgeless():
    r = kernel_guarantee_check(Graph.empty(6))
    assert r.alpha == 6 and r.required == 6
    assert r.kernel_ok and r.singletons_ok and r.holds


def test_kernel_guarantee_on_star():
    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    r = kernel_guarantee_check(star)
    assert r.alpha == 5
    assert r.required == 2 * 5 - 6
    assert len(r.kernel) == 5  # the unique MIS is the leaf set
    assert r.holds


def test_kernel_guarantee_rejects_small_alpha():
    with pytest.raises(ValueError):
        kernel_guarantee_check(Graph.complete(4))


# --- corpora ----------------------------------------------------------------


def test_vectorised_stats_match_solver_on_samples():
    n = 5
    stats = all_graphs_kernel_stats(n)
    rng = np.random.default_rng(8)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for gid in rng.integers(0, 1 << len(pairs), size=40):
        gid = int(gid)
        edges = [pairs[e] for e in range(len(pairs)) if gid >> e & 1]
        g = Graph.from_edges(n, edges)
        r = kernel_corona(g)
        assert int(stats["alpha"][gid]) == r.alpha == max(m.bit_count() for m in oracle_mis_masks(g))
        assert int(stats["kernel_size"][gid]) == len(r.kernel)
        assert int(stats["corona_size"][gid]) == len(r.corona)


def test_exhaustive_corpus_small():
    check = exhaustive_corpus_check(5)
    assert check.checked == 1 + 2 + 8 + 64 + 1024
    assert check.ok


def test_exhaustive_rows_shape():
    rows = list(exhaustive_corpus_rows(3))
    assert len(rows) == 1 + 2 + 8
    gid, n, a, ker, cor = rows[-1]
    assert n == 3 and ker + cor >= 2 * a


def test_random_corpus_clean_and_deterministic():
    check1, rows1 = random_corpus_check(120, seed=99, n_max=11)
    check2, rows2 = random_corpus_check(120, seed=99, n_max=11, workers=2)
    assert check1.ok
    assert rows1 == rows2


def test_exhaustive_rejects_large_n():
    with pytest.raises(ValueError):
        all_graphs_kernel_stats(8)
