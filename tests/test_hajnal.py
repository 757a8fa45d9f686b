"""Kernel/corona structure and the two verification corpora."""

import csv
import hashlib
import io
import tracemalloc
from itertools import combinations, compress

import numpy as np
import pytest

import mishit.graph
import mishit.hajnal
from conftest import hub_graph, oracle_mis_masks, seeded_graphs, vertex_set
from mishit.families import build_shift_graph, shift_mis_family
from mishit.cli import main
from mishit.graph import (
    DEFAULT_MIS_CAP,
    EXACT_MAX_N,
    Graph,
    VertexSet,
    _solve_kernel_corona,
    _subset_alpha_tables,
    enumerate_mis,
    induced_subgraph,
)
from mishit.hajnal import (
    _kernel_corona_tables,
    all_graphs_kernel_stats,
    exhaustive_corpus_check,
    exhaustive_corpus_rows,
    kernel_corona,
    random_corpus_check,
)


def test_edgeless_kernel_is_everything():
    r = kernel_corona(Graph.empty(4))
    assert r.alpha == 4
    assert r.kernel.members() == r.corona.members() == (0, 1, 2, 3)
    assert len(r.kernel) + len(r.corona) >= 2 * r.alpha
    # a star's unique maximum independent set, its leaves, is kernel and corona alike
    r = kernel_corona(Graph.from_edges(6, [(0, i) for i in range(1, 6)]))
    assert r.alpha == 5
    assert r.kernel.members() == r.corona.members() == (1, 2, 3, 4, 5)


def test_complete_graph_kernel_empty():
    r = kernel_corona(Graph.complete(5))
    assert r.alpha == 1
    assert len(r.kernel) == 0 and len(r.corona) == 5
    assert len(r.kernel) + len(r.corona) >= 2 * r.alpha  # 0 + 5 >= 2
    # 2 x K_3: nine maximum independent sets, one vertex from each triangle
    r = kernel_corona(Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    assert r.alpha == 2 and len(r.kernel) == 0 and len(r.corona) == 6


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
    assert len(r.kernel) + len(r.corona) >= 2 * r.alpha


def test_kernel_within_restriction():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    a, kernel, corona = _solve_kernel_corona(g, vertex_set(4, [0, 1]).bits)
    assert a == 1
    assert kernel == 0
    assert VertexSet(4, corona).members() == (0, 1)


def test_hub_graph_kernel_and_corona_beyond_the_enumeration_cap():
    k = 20
    assert 2**k > DEFAULT_MIS_CAP
    r = kernel_corona(hub_graph(k))
    assert r.alpha == k + 1
    assert r.kernel.members() == (3 * k,)
    assert r.corona.members() == tuple(v for v in range(3 * k + 1) if v % 3 or v == 3 * k)
    assert len(r.corona) == 2 * k + 1


def test_kernel_and_corona_bound_every_mis():
    for g in seeded_graphs(25, seed=55, n_hi=11):
        r = kernel_corona(g)
        for s in enumerate_mis(g).sets:
            assert r.kernel.bits & ~s.bits == 0
            assert s.bits & ~r.corona.bits == 0


# --- corpora ----------------------------------------------------------------


def _graph_of_id(n, gid):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, [pairs[e] for e in range(len(pairs)) if gid >> e & 1])


def test_vectorised_stats_match_solver_on_samples():
    # every graph on n <= 5 vertices (1099 graphs), then seeded samples at n = 7:
    # 200 uniform ids, which almost never have alpha <= 2, and 200 of the
    # alpha <= 2 graphs; last, 200 uniform ids at n = 6
    cases = [(n, gid) for n in range(1, 6) for gid in range(1 << n * (n - 1) // 2)]
    stats = {n: all_graphs_kernel_stats(n) for n in (1, 2, 3, 4, 5, 6, 7)}
    rng = np.random.default_rng(8)
    cases += [(7, int(gid)) for gid in rng.integers(0, 1 << 21, size=200)]
    dense = np.flatnonzero(stats[7]["alpha"] <= 2)
    cases += [(7, int(gid)) for gid in rng.choice(dense, size=200, replace=False)]
    cases.append((7, (1 << 21) - 1))  # K_7, the one graph with alpha 1
    cases += [(6, int(gid)) for gid in np.random.default_rng(6).integers(0, 1 << 15, size=200)]
    for n, gid in cases:
        g = _graph_of_id(n, gid)
        r = kernel_corona(g)
        masks = oracle_mis_masks(g)
        kernel = corona = masks[0]
        for m in masks:
            kernel &= m
            corona |= m
        got = tuple(int(stats[n][key][gid]) for key in ("alpha", "kernel_size", "corona_size"))
        assert got == (r.alpha, len(r.kernel), len(r.corona)), (n, gid)
        assert got == (masks[0].bit_count(), kernel.bit_count(), corona.bit_count()), (n, gid)


def _adjacency_of_ids(m, ids):
    return np.array([_graph_of_id(m, gid).adj for gid in ids], dtype=np.int64).reshape(len(ids), m)


def test_vertex_0_alpha_tables_match_the_subset_alpha_tables():
    # two DPs written apart: one adds vertex 0 to every graph at once, the
    # other grows each graph's table along its highest vertex
    for m in range(6):
        ids = range(1 << m * (m - 1) // 2)
        t, _, _ = _kernel_corona_tables(m)
        assert t.dtype == np.uint8 and t.shape == (len(ids), 1 << m)
        assert np.array_equal(t, _subset_alpha_tables(_adjacency_of_ids(m, ids))), m
    ids = [int(gid) for gid in np.random.default_rng(66).integers(0, 1 << 15, size=300)]
    t, _, _ = _kernel_corona_tables(6)
    assert np.array_equal(t[ids], _subset_alpha_tables(_adjacency_of_ids(6, ids)))


def test_vertex_0_kernel_and_corona_tables_match_brute_force_on_every_subset():
    for m in range(5):
        t, k, r = _kernel_corona_tables(m)
        for gid in range(1 << m * (m - 1) // 2):
            g = _graph_of_id(m, gid)
            for w in range(1 << m):
                sub, old = induced_subgraph(g, VertexSet(m, w))
                masks = [sum(1 << old[i] for i in range(sub.n) if s >> i & 1) for s in oracle_mis_masks(sub)]
                kernel = corona = masks[0]
                for s in masks:
                    kernel &= s
                    corona |= s
                assert (t[gid, w], k[gid, w], r[gid, w]) == (masks[0].bit_count(), kernel, corona), (m, gid, w)


def test_exhaustive_stats_at_n7_stay_in_one_chunk_of_memory():
    # the last vertex runs over the 2^15 graphs on 6 vertices in row chunks;
    # in one piece its temporaries alone take about 24 MiB
    all_graphs_kernel_stats(7)  # numpy's lazy set-up outside the trace
    tracemalloc.start()
    try:
        all_graphs_kernel_stats(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 << 20


def test_exhaustive_corpus_small():
    check = exhaustive_corpus_check(5)
    assert check.checked == 1 + 2 + 8 + 64 + 1024
    assert check.ok
    assert [s["alpha"].shape[0] for s in check.stats] == [1, 2, 8, 64, 1024]


@pytest.mark.parametrize("corpus", ["exhaustive", "random"])
def test_a_planted_violation_fails_its_corpus_check(monkeypatch, capsys, corpus):
    # graph 5 on 3 vertices, or the first graph of the first table pass, gets
    # kernel = corona = 0 < 2 * alpha; equality, as in K_2, is no violation
    sweep, table_pass = mishit.hajnal.all_graphs_kernel_stats, mishit.hajnal._table_kernel_corona
    planted = []  # the table passes that planted one

    def planted_sweep(n):
        stats = sweep(n)
        if n == 3:
            stats["kernel_size"][5] = stats["corona_size"][5] = 0
        return stats

    def planted_table_pass(n, coins):
        a, kernel, corona = table_pass(n, coins)
        if not planted:
            kernel[0] = corona[0] = 0
            planted.append(n)
        return a, kernel, corona

    if corpus == "exhaustive":
        monkeypatch.setattr(mishit.hajnal, "all_graphs_kernel_stats", planted_sweep)
        check = exhaustive_corpus_check(4)
    else:
        monkeypatch.setattr(mishit.hajnal, "_table_kernel_corona", planted_table_pass)
        check, _ = random_corpus_check(200, seed=5, n_max=10)
    assert (check.violations, check.ok) == (1, False)
    planted.clear()
    assert main(["hajnal-corpus", "--max-n", "4", "--random", "200", "--seed", "5", "--n-max", "10"]) == 1
    printed = capsys.readouterr().out
    assert f"{corpus}_violations: 1" in printed
    assert printed.count("[FAIL]") == 1


def test_exhaustive_rows_shape(monkeypatch):
    check = exhaustive_corpus_check(3)
    text = "".join(exhaustive_corpus_rows(check))
    monkeypatch.setattr(mishit.hajnal, "CSV_BLOCK_ROWS", 3)
    assert "".join(exhaustive_corpus_rows(check)) == text  # block edges split no line
    lines = text.split("\r\n")
    assert lines.pop() == ""
    assert len(lines) == 1 + 2 + 8
    assert lines[0] == "n1:mask0,1,1,1,1"
    gid, n, a, ker, cor = lines[-1].split(",")
    assert gid == "n3:mask7" and (n, a, ker, cor) == ("3", "1", "0", "3")
    assert all(int(line.split(",")[1]) == 3 for line in lines[3:])


@pytest.fixture(scope="module")
def corpus7():
    return exhaustive_corpus_check(7)


# sha256 of each array's bytes: they pin the arrays themselves, whatever the
# sweep that computes them, so any change to the sweep must reproduce them
SWEEP_DIGESTS = {
    6: {
        "alpha": "a4bc791d294055ce48290d93a985b1a494404d3ef4c49a14cdd6eb92b1357ed7",
        "kernel_size": "036091e57961cf50a77de11a003cf496c1a4f432e909b1edbda8bad40d52b35e",
        "corona_size": "8d8b9784b9951f0a76515940b144f5ffdeef4c202a5924212978884abd412278",
    },
    7: {
        "alpha": "9e8c2c5a31b39b6a44999294ef808414e6a085b23cd70b2c5a5b1001ff39ed94",
        "kernel_size": "8fd64be0cd15faa2ef60fc7b65d6dd51481cf23442b99e32b489729ac4cc14bb",
        "corona_size": "9939f93f1b0a92d2a414134fd7e728a1389e8aa0aaa088b8a6e37f485d5194b5",
    },
}


def test_alpha_at_most_2_graphs_are_the_triangle_free_complements(corpus7):
    # labelled triangle-free graphs on n = 1..7 vertices, OEIS A006785
    counts = [np.count_nonzero(stats["alpha"] <= 2) for stats in corpus7.stats]
    assert counts == [1, 2, 7, 41, 388, 5789, 133501]


def test_exhaustive_sweep_arrays_are_pinned(corpus7):
    for n, digests in SWEEP_DIGESTS.items():
        stats = corpus7.stats[n - 1]
        for key, digest in digests.items():
            assert stats[key].dtype == np.uint8 and stats[key].shape == (1 << n * (n - 1) // 2,)
            assert hashlib.sha256(stats[key].tobytes()).hexdigest() == digest, (n, key)


def _csv_writer_lines(check, n, ids):
    # the reference: csv.writer on the row tuples, one line per graph id
    stats = check.stats[n - 1]
    out = io.StringIO()
    csv.writer(out).writerows(
        (f"n{n}:mask{gid}", n, *(int(stats[key][gid]) for key in ("alpha", "kernel_size", "corona_size")))
        for gid in ids
    )
    return out.getvalue().split("\r\n")[:-1]


def _rows_by_line(check):
    for block in exhaustive_corpus_rows(check):
        assert block.endswith("\r\n")  # block edges split no line
        yield from block.split("\r\n")[:-1]


@pytest.mark.parametrize("block_rows", [7, 1 << 16])
def test_exhaustive_rows_match_csv_writer_on_every_row_up_to_n6(monkeypatch, block_rows):
    # odd block sizes make blocks meet the id-width changes at 10, 100, 1000 and 10000
    monkeypatch.setattr(mishit.hajnal, "CSV_BLOCK_ROWS", block_rows)
    check = exhaustive_corpus_check(6)
    expected = [line for n in range(1, 7) for line in _csv_writer_lines(check, n, range(1 << n * (n - 1) // 2))]
    assert list(_rows_by_line(check)) == expected


@pytest.mark.parametrize("block_rows", [4999, 1 << 16])
def test_exhaustive_rows_match_csv_writer_at_every_id_width_change(monkeypatch, corpus7, block_rows):
    # blocks of 7 rows would take seconds at n = 7; 4999 is odd and small next to 10^6
    monkeypatch.setattr(mishit.hajnal, "CSV_BLOCK_ROWS", block_rows)
    count = 1 << 21
    ids = sorted({0, 1, count - 2, count - 1} | {10**d + delta for d in range(1, 7) for delta in (-2, -1, 0, 1)})
    offset = sum(1 << n * (n - 1) // 2 for n in range(1, 7))  # lines before n = 7
    wanted = {offset + gid for gid in ids}
    got = [line for i, line in enumerate(_rows_by_line(corpus7)) if i in wanted]
    assert got == _csv_writer_lines(corpus7, 7, ids)


def test_random_corpus_clean_and_deterministic():
    # graphs up to 16 vertices, each answered from its subset table
    check1, rows1 = random_corpus_check(120, seed=99, n_max=16)
    check2, rows2 = random_corpus_check(120, seed=99, n_max=16, workers=2)
    assert check1.ok
    assert rows1 == rows2


def _per_graph_corpus_rows(count, seed, n_max):
    """The random corpus one graph at a time: chunk c of 1024 graphs drawn
    whole from default_rng([seed, c]) (the vertex counts, then the p values,
    then one row of C(n_max, 2) coins per graph), and each graph built as a
    Graph from the first C(n, 2) coins of its row, in ascending pair order,
    and answered by the clique search."""
    chunk = 1024
    rows = []
    for c in range(-(-count // chunk)):
        rng = np.random.default_rng([seed, c])
        ns = rng.integers(1, n_max + 1, size=chunk)
        ps = 0.05 + (0.95 - 0.05) * rng.random(chunk)
        coins = rng.random((chunk, n_max * (n_max - 1) // 2)) < ps[:, None]
        for k in range(min(chunk, count - c * chunk)):
            n = int(ns[k])
            r = kernel_corona(Graph.from_edges(n, compress(combinations(range(n), 2), coins[k].tolist())))
            rows.append((f"seed{seed}:{c * chunk + k}", n, r.alpha, len(r.kernel), len(r.corona)))
    return rows


@pytest.mark.parametrize("n_max, count", [(16, 300), (EXACT_MAX_N, 40)])
def test_random_corpus_runs_no_clique_search(monkeypatch, n_max, count):
    # the per-graph rows come from the clique search; the corpus must match
    # them from its subset tables alone, at every vertex count
    expected = _per_graph_corpus_rows(count, seed=5, n_max=n_max)

    def no_search(*args):
        raise AssertionError("the random corpus ran a clique search")

    monkeypatch.setattr(mishit.graph, "_cliques", no_search)
    rows = random_corpus_check(count, seed=5, n_max=n_max)[1]
    assert rows == expected and max(n for _, n, *_ in rows) == n_max


def test_random_corpus_rows_match_the_per_graph_search_at_a_seed_past_2_to_the_64():
    rows = random_corpus_check(400, seed=2**70 + 3, n_max=16)[1]
    assert rows == _per_graph_corpus_rows(400, seed=2**70 + 3, n_max=16)


def test_random_corpus_rows_depend_only_on_seed_n_max_and_index():
    # a chunk is drawn whole even when the corpus ends inside it, so a short
    # corpus is a prefix of a long one
    assert random_corpus_check(100, seed=7, n_max=14)[1] == random_corpus_check(3000, seed=7, n_max=14)[1][:100]


def _capped_table_passes(monkeypatch):
    """The graphs of every batched table fill from now on, keyed by vertex
    count: one ``_table_kernel_corona`` call per count, each fill of
    ``_subset_alpha_tables`` checked to hold at most 2^EXACT_MAX_N cells or
    a single graph."""
    passes = {}
    table_pass, fill = mishit.hajnal._table_kernel_corona, mishit.hajnal._subset_alpha_tables

    def keyed(n, coins):
        assert n not in passes, n  # every graph on n vertices in one call
        passes[n] = []
        return table_pass(n, coins)

    def capped(adj):
        graphs, low = adj.shape
        assert graphs == 1 or graphs << low <= 1 << mishit.hajnal.EXACT_MAX_N, (low, graphs)
        passes[next(reversed(passes))].append(graphs)  # the count whose call is running
        return fill(adj)

    monkeypatch.setattr(mishit.hajnal, "_table_kernel_corona", keyed)
    monkeypatch.setattr(mishit.hajnal, "_subset_alpha_tables", capped)
    return passes


@pytest.mark.parametrize("table_cells_log2", [6, EXACT_MAX_N])
def test_random_corpus_rows_match_the_per_graph_search(monkeypatch, table_cells_log2):
    # passes hold 2^6 cells: every graph whose low table spans 6 or more
    # vertices takes one of its own, and the 2-vertex graphs go 16 to a pass
    monkeypatch.setattr(mishit.hajnal, "EXACT_MAX_N", table_cells_log2)
    passes = _capped_table_passes(monkeypatch)
    check, rows = random_corpus_check(500, seed=5, n_max=16)
    assert rows == _per_graph_corpus_rows(500, seed=5, n_max=16)
    assert check.ok
    sizes = {n for _, n, *_ in rows}
    assert max(sizes) == 16 and set(passes) == sizes  # every vertex count takes a table pass
    assert all(sum(filled) == sum(n == size for _, size, *_ in rows) for n, filled in passes.items())
    if table_cells_log2 == 6:
        assert len(passes[2]) > 1  # the 2-vertex graphs took more than one pass


def test_random_corpus_fills_whole_passes_by_the_low_vertices(monkeypatch):
    # a 20-vertex graph fills a table over its low 13 vertices, so a 2^20-cell
    # pass holds 2^20 >> 13 = 128 of them, and this corpus has more
    passes = _capped_table_passes(monkeypatch)
    rows = random_corpus_check(3000, seed=3, n_max=20)[1]
    on_20 = sum(n == 20 for _, n, *_ in rows)
    assert on_20 > 128 and passes[20] == [128, on_20 - 128]
    # a vertex count with no drawn graph makes no call, so no table fill
    passes.clear()
    rows = random_corpus_check(12, seed=3, n_max=20)[1]
    sizes = {n for _, n, *_ in rows}
    assert len(sizes) < 20 and set(passes) == sizes and all(passes.values())


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_random_corpus_rows_match_the_per_graph_search_at_small_n_max(n_max):
    # every vertex count above n_max has no graph and so no table pass
    assert random_corpus_check(200, seed=5, n_max=n_max)[1] == _per_graph_corpus_rows(200, seed=5, n_max=n_max)


def _rows_digest(rows):
    return hashlib.sha256("".join(",".join(map(str, row)) + "\n" for row in rows).encode()).hexdigest()


def test_random_corpus_rows_are_pinned_past_one_full_table_pass(monkeypatch):
    # a 13-vertex graph fills a table over its low 9 vertices, so a 2^16-cell
    # pass holds 2^16 >> 9 = 128 of them, and this corpus has 222
    monkeypatch.setattr(mishit.hajnal, "EXACT_MAX_N", 16)
    passes = _capped_table_passes(monkeypatch)
    check, rows = random_corpus_check(3000, seed=7, n_max=14)
    assert check.ok and passes[13] == [128, 94]
    # sha256 of the rows as the per-graph clique search answers the chunked draw
    assert _rows_digest(rows) == "5ea667111bdf01c79d69b647c4ab09048da6742682c6bdb6e147a1fc3241e16d"


def test_random_corpus_rows_past_one_full_table_pass_are_the_same_for_two_workers():
    two_workers = random_corpus_check(3000, seed=7, n_max=14, workers=2)[1]
    assert two_workers == random_corpus_check(3000, seed=7, n_max=14)[1]


def _whole_table_kernel_corona(n, adj):
    """alpha, |kernel| and |corona| of each graph read off its whole 2^n-cell
    subset table at F, F - v and F - N[v]."""
    tables = _subset_alpha_tables(adj)
    full = (1 << n) - 1
    bits = 1 << np.arange(n, dtype=np.int64)
    alpha = tables[:, full]
    kernel = (tables[:, full ^ bits] < alpha[:, None]).sum(axis=1)
    corona = (np.take_along_axis(tables, full & ~(adj | bits), axis=1) + 1 == alpha[:, None]).sum(axis=1)
    return [tuple(row) for row in zip(alpha.tolist(), kernel.tolist(), corona.tolist())]


def _adjacency_of_coins(n, coins):
    u, v = np.triu_indices(n, 1)
    adj = np.zeros((len(coins), n), dtype=np.int64)
    for e in range(len(u)):
        adj[:, u[e]] |= coins[:, e].astype(np.int64) << v[e]
        adj[:, v[e]] |= coins[:, e].astype(np.int64) << u[e]
    return adj


def _split_table_rows(n, coins):
    return list(zip(*(a.tolist() for a in mishit.hajnal._table_kernel_corona(n, coins))))


# the vertex counts where the number of top vertices split off grows: 1 at
# n = 6, 2 at 9, 3 at 11, 4 at 13, 5 at 15, 6 at 18, 7 at 20
@pytest.mark.parametrize("n", [6, 9, 11, 13, 15, 18, 20])
def test_split_table_pass_matches_the_whole_table(n):
    rng = np.random.default_rng(n)
    graphs = (1 << 22) >> n
    p = rng.uniform(0.05, 0.95, size=(graphs, 1))
    coins = rng.random((graphs, n * (n - 1) // 2)) < p
    assert _split_table_rows(n, coins) == _whole_table_kernel_corona(n, _adjacency_of_coins(n, coins))
    # closed forms with edges among the top vertices: K_n, the edgeless graph
    # and the star centred on vertex n - 1, whose leaves are its one
    # maximum independent set
    u, v = np.triu_indices(n, 1)
    shapes = np.array([np.ones_like(u, dtype=bool), np.zeros_like(u, dtype=bool), v == n - 1])
    assert _split_table_rows(n, shapes) == [(1, 0, n), (n, n, n), (n - 1, n - 1, n - 1)]


def test_random_corpus_table_passes_fill_only_the_low_vertices(monkeypatch):
    # a pass over graphs on n vertices fills 2^(n - j) cells per graph, j the
    # top vertices split off: 0 up to n = 5, then 1, 2, 3, 4 from n = 6, 9, 11, 13
    passes = []  # [n, cells per graph of each table filled]
    table_pass, fill = mishit.hajnal._table_kernel_corona, mishit.hajnal._subset_alpha_tables

    def recording_pass(n, coins):
        passes.append([n])
        return table_pass(n, coins)

    def recording_fill(adj):
        tables = fill(adj)
        passes[-1].append(tables.shape[1])
        return tables

    monkeypatch.setattr(mishit.hajnal, "_table_kernel_corona", recording_pass)
    monkeypatch.setattr(mishit.hajnal, "_subset_alpha_tables", recording_fill)
    random_corpus_check(3000, seed=7, n_max=14)
    top = {n: 0 if n <= 5 else 1 if n <= 8 else 2 if n <= 10 else 3 if n <= 12 else 4 for n in range(1, 15)}
    assert {n for n, *_ in passes} == set(top)
    assert all(filled == [1 << n - top[n]] for n, *filled in passes)
    assert passes[-1] == [14, 1 << 10]  # not the whole 2^14


def test_exhaustive_rejects_large_n():
    with pytest.raises(ValueError):
        all_graphs_kernel_stats(8)
