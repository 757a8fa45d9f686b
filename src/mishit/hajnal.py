"""Kernel and corona of the maximum-independent-set family.

The kernel is the intersection of all maximum independent sets, the corona
their union.  Hajnal's theorem states |kernel| + |corona| >= 2*alpha(G), so
for alpha(G) > n/2 at least 2*alpha - n vertices lie in every maximum
independent set.

Both are settled per connected component by clique searches, never by
enumerating the family: v is in the kernel iff alpha(G - v) < alpha(G), and
in the corona iff 1 + alpha(G - N[v]) = alpha(G).  Each of these is a
decision search that stops at the first maximum independent set it meets,
and every such set narrows the kernel and widens the corona, so each vertex
costs at most one search (``graph._solve_kernel_corona``).

The theorem itself is checked empirically on two corpora: seeded random
graphs of at most ``EXACT_MAX_N`` vertices, and every graph on up to 7
vertices by direct edge-mask enumeration.  Neither runs a clique search, so
both are independent checks of the solver.  A random graph needs alpha of
2n + 1 induced subgraphs: on its full vertex set F, on F - v (v is in the
kernel iff alpha drops) and on F - N[v] (v is in the corona iff 1 + alpha
there is alpha).  Its top few vertices are split off and a subset table is
filled over the rest alone; alpha of a set W is then the largest |S| plus
the table at (W ∩ low) - N(S), over the independent sets S of top vertices
within W.  A block of random graphs is drawn first, each kept as one row of
C(n_max, 2) edge coins; then the graphs of each vertex count are answered in
batched numpy passes of 2^EXACT_MAX_N / 2^(n - j) graphs.  The graphs are
drawn in chunks of ``DRAW_CHUNK``, chunk c of seed s from
``default_rng([s, c])``: every vertex count, every p and every edge coin of
the chunk as one array each, so no generator is built, and no draw made,
per graph.  A chunk is always drawn whole, so graph i depends only on
(s, n_max, i).

The exhaustive corpus grows one vertex at a time.  Graph id g on n
vertices is H << (n - 1) | N, with N the neighbourhood of vertex 0 and H the
graph on vertices 1..n-1, so the alpha, kernel and corona of every subset of
every graph on m vertices come from the tables on m - 1: a set holding
vertex 0 takes the better of leaving it out and putting it in, the kernel
being the AND and the corona the OR over the branches that reach alpha.
The last vertex needs H's tables only at the full set and at the full set
minus N, which over all N is H's table row in reverse.  It is the recurrence
alpha(W) = max(alpha(W - v), 1 + alpha(W - N[v])) on whole tables.  The
check keeps the per-n arrays, so the CSV export reuses them and writes
its lines as fixed-width byte blocks, one width per id digit count, instead
of formatting one line per graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

import numpy as np

from .graph import EXACT_MAX_N, Graph, VertexSet, _solve_kernel_corona, _subset_alpha_tables
from .parallel import parallel_map

EXHAUSTIVE_MAX_N = 7


@dataclass(frozen=True)
class KernelReport:
    """Exact kernel/corona of one graph."""

    alpha: int
    kernel: VertexSet
    corona: VertexSet


def kernel_corona(g: Graph) -> KernelReport:
    """Intersection/union over all maximum independent sets, exact for any
    family size."""
    a, kernel, corona = _solve_kernel_corona(g, (1 << g.n) - 1)
    return KernelReport(alpha=a, kernel=VertexSet(g.n, kernel), corona=VertexSet(g.n, corona))


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def _add_vertex_0(out, into):
    """Merge vertex 0's two branches at a set W that holds it.

    ``out`` is (alpha, kernel, corona) of G[W - 0], ``into`` that of
    G[W - N[0]] with vertex 0 added, all masks already in G's labels.
    alpha is the larger of the two; the kernel is the AND, and the corona
    the OR, over the branches that reach it.
    """
    t = np.maximum(out[0], into[0])
    out_max = np.negative((out[0] == t).view(np.uint8))  # 0xFF where "out" reaches alpha
    in_max = np.negative((into[0] == t).view(np.uint8))
    return t, (out[1] | ~out_max) & (into[1] | ~in_max), (out[2] & out_max) | (into[2] & in_max)


def _kernel_corona_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha(G[W]) and the kernel and corona masks of G[W], for every subset
    W of every graph G on m labelled vertices: three (2^C(m, 2), 2^m) uint8
    arrays, row g graph id g, column W's bits.

    Graph id g on m vertices is H << (m - 1) | N, N the neighbourhood of
    vertex 0 (the edges (0, j) are id bits 0..m-2) and H the id of the graph
    on vertices 1..m-1, so the tables grow one vertex at a time from the one
    graph on no vertices.  A set W = W' << 1 | b takes H's values at W' when
    b = 0; when b = 1 vertex 0 is either left out, H's values at W', or put
    in, 1 + alpha and vertex 0 added to both masks at W' & ~N.  The sets
    W' & ~N form one (N, W') index shared by every H, so each step is one
    ``np.take``.
    """
    t = k = r = np.zeros((1, 1), dtype=np.uint8)
    for _ in range(m):
        graphs, cells = t.shape
        w = np.arange(cells)
        rest = w & ~w[:, None]  # rest[N, W'] = W' & ~N
        out = t[:, None, :], k[:, None, :] << 1, r[:, None, :] << 1
        into = np.take(t, rest, axis=1) + 1, np.take(k, rest, axis=1) << 1 | 1, np.take(r, rest, axis=1) << 1 | 1
        grown = []
        for a, b in zip(out, _add_vertex_0(out, into)):
            table = np.empty((graphs, cells, cells, 2), dtype=np.uint8)
            table[..., 0] = a
            table[..., 1] = b
            grown.append(table.reshape(graphs * cells, 2 * cells))
        t, k, r = grown
    return t, k, r


STATS_CHUNK_ROWS = 1 << 12  # graphs on n - 1 vertices per pass of the last step


def all_graphs_kernel_stats(n: int) -> dict[str, np.ndarray]:
    """alpha, kernel and corona sizes for every graph on n labelled vertices.

    Graph id g encodes edge e = (i, j) as bit e in the order of ascending
    (i, j), so g = H << (n - 1) | N with N the neighbourhood of vertex 0 and
    H a graph on n - 1 vertices.  The last vertex added, vertex 0, needs
    H's tables (``_kernel_corona_tables``) only at the full set F' and at
    F' & ~N = F' ^ N, which over N = 0, 1, ... are H's columns in reverse
    order: a view, not a gather.  It runs over the graphs H in chunks of
    ``STATS_CHUNK_ROWS``, writing alpha and the two popcounts straight into
    the output.  The tables come from the two-branch recurrence on vertex
    0 alone, independent of the branch-and-bound solver, so this doubles as
    an oracle for it.
    """
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_MAX_N}")
    t, k, r = _kernel_corona_tables(n - 1)
    graphs, cells = t.shape
    alpha, kernel_size, corona_size = (np.empty((graphs, cells), dtype=np.uint8) for _ in range(3))
    for lo in range(0, graphs, STATS_CHUNK_ROWS):
        rows = slice(lo, lo + STATS_CHUNK_ROWS)
        out = t[rows, -1:], k[rows, -1:] << 1, r[rows, -1:] << 1
        into = t[rows, ::-1] + 1, k[rows, ::-1] << 1 | 1, r[rows, ::-1] << 1 | 1
        alpha[rows], kernel, corona = _add_vertex_0(out, into)
        np.bitwise_count(kernel, out=kernel_size[rows])
        np.bitwise_count(corona, out=corona_size[rows])
    return {"alpha": alpha.reshape(-1), "kernel_size": kernel_size.reshape(-1), "corona_size": corona_size.reshape(-1)}


@dataclass(frozen=True)
class CorpusCheck:
    checked: int
    violations: int
    # all_graphs_kernel_stats(n) for n = 1, 2, ...; empty for the random corpus
    stats: tuple[dict[str, np.ndarray], ...] = field(default=(), compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.violations == 0


def exhaustive_corpus_check(max_n: int = EXHAUSTIVE_MAX_N) -> CorpusCheck:
    """Hajnal inequality on every graph with at most ``max_n`` vertices."""
    checked = 0
    violations = 0
    all_stats = []
    for n in range(1, max_n + 1):
        stats = all_graphs_kernel_stats(n)
        all_stats.append(stats)
        # every size is at most 7, so the sums and 2*alpha fit in uint8
        checked += stats["alpha"].shape[0]
        violations += int(np.count_nonzero(stats["kernel_size"] + stats["corona_size"] < stats["alpha"] << 1))
    return CorpusCheck(checked=checked, violations=violations, stats=tuple(all_stats))


CSV_BLOCK_ROWS = 1 << 16


def exhaustive_corpus_rows(check: CorpusCheck) -> Iterator[str]:
    """The exhaustive corpus of ``check`` as CSV text, in blocks of at most
    ``CSV_BLOCK_ROWS`` ``graph_id,n,alpha,kernel_size,corona_size`` lines.

    Lines end in ``\\r\\n`` and are unquoted, as ``csv.writer`` writes them.
    Every field after the id is one digit (n <= 7), so within one n the ids
    with d decimal digits make lines of one width.  A block never spans two
    widths: it is a (rows, width) byte array, a template line with ``0`` in
    every digit column, to which each row adds its id digits and sizes.
    """
    for n, stats in enumerate(check.stats, start=1):
        count = stats["alpha"].shape[0]
        prefix = len(f"n{n}:mask")
        for d in range(1, len(str(count - 1)) + 1):
            template = np.frombuffer(f"n{n}:mask{'0' * d},{n},0,0,0\r\n".encode("ascii"), dtype=np.uint8)
            end = prefix + d  # the comma after the id
            start, stop = (10 ** (d - 1) if d > 1 else 0), min(count, 10**d)
            for lo in range(start, stop, CSV_BLOCK_ROWS):
                hi = min(stop, lo + CSV_BLOCK_ROWS)
                block = np.tile(template, (hi - lo, 1))
                q = np.arange(lo, hi, dtype=np.uint32)
                for col in range(end - 1, prefix - 1, -1):  # id digits, lowest first
                    q, r = np.divmod(q, 10)
                    block[:, col] += r.astype(np.uint8)
                for col, key in zip((end + 3, end + 5, end + 7), ("alpha", "kernel_size", "corona_size")):
                    block[:, col] += stats[key][lo:hi]
                yield block.tobytes().decode("ascii")


def _table_kernel_corona(n: int, coins: np.ndarray) -> np.ndarray:
    """Rows alpha, |kernel| and |corona|, column b for graph b on n vertices,
    whose C(n, 2) edge coins in ascending pair order are row b of ``coins``.

    With F a graph's full vertex set, alpha = alpha(F), v is in the kernel
    iff alpha(F - v) < alpha, and in the corona iff 1 + alpha(F - N[v]) =
    alpha: 2n + 1 query sets W per graph.  They are answered without a whole
    2^n-cell table.  The top j vertices n - j..n - 1 are split off, and
    batched subset-table passes (``_subset_alpha_tables``) fill T over the
    low n - j alone, 2^EXACT_MAX_N cells or one graph at a time; then
    alpha(W) is the largest |S| + T[(W ∩ low) - N(S)] over the independent
    sets S within W ∩ top.  The loop runs over the 2^j sets S in ascending
    order, each taking N(S) ∩ low and its independence from S minus its
    lowest vertex, and folds one gather of every graph's 2n + 1 cells into
    a running max.  j is the largest with (2n + 1) 2^j <= 2^(n - j), so the
    gathers cost no more than the table: 0 up to n = 5, where T is the whole
    table, 4 at n = 14, 7 at n = 20, where a pass takes 128 graphs.
    """
    u, v = np.triu_indices(n, 1)  # the pairs in ascending order
    weights = np.zeros((len(u), n), dtype=np.int64)
    weights[np.arange(len(u)), u] = 1 << v
    weights[np.arange(len(u)), v] = 1 << u
    top = 0
    while (2 * n + 1) << (top + 1) <= 1 << (n - top - 1):
        top += 1
    low = n - top
    low_mask = (1 << low) - 1
    full = (1 << n) - 1
    bits = 1 << np.arange(n, dtype=np.int64)
    step = max(1, (1 << EXACT_MAX_N) >> low)
    sizes = np.empty((3, len(coins)), dtype=np.int64)
    for lo in range(0, len(coins), step):
        adj = coins[lo : lo + step] @ weights
        flat = _subset_alpha_tables(adj[:, :low] & low_mask).reshape(-1)
        queries = np.hstack([np.full((len(adj), 1), full), np.broadcast_to(full ^ bits, adj.shape), full & ~(adj | bits)])
        # W ∩ low as flat indices into the pass's tables, and W ∩ top as bits of the top vertices
        at = np.arange(len(adj), dtype=np.int64)[:, None] << low | queries & low_mask
        above = queries >> low
        best = flat[at]  # S empty
        hood = np.zeros((1 << top, len(adj)), dtype=np.int64)  # N(S) ∩ low, by S
        independent = np.ones((1 << top, len(adj)), dtype=bool)
        for s in range(1, 1 << top):
            rest = s & (s - 1)
            rows = adj[:, low + (s ^ rest).bit_length() - 1]  # S's lowest vertex
            hood[s] = hood[rest] | rows & low_mask
            independent[s] = independent[rest] & (rows >> low & rest == 0)
            # the base bits of ``at`` lie above low, where ~hood has every bit set
            value = flat[at & ~hood[s, :, None]] + s.bit_count()
            value *= independent[s, :, None] & (above & s == s)
            np.maximum(best, value, out=best)
        alpha = best[:, 0]
        kernel = (best[:, 1 : n + 1] < alpha[:, None]).sum(axis=1)
        corona = (best[:, n + 1 :] + 1 == alpha[:, None]).sum(axis=1)
        sizes[:, lo : lo + step] = alpha, kernel, corona
    return sizes


DRAW_CHUNK = 1024  # graphs per generator of the random corpus; part of its stream


def _random_corpus_block(seed: int, n_max: int, span: tuple[int, int]) -> list[tuple[str, int, int, int, int]]:
    """The CSV rows (graph id, n, alpha, |kernel|, |corona|) of the random
    graphs start <= index < stop of ``span``, in index order.

    Graph i is G(n, p) with n uniform in 1..n_max and p uniform in
    [0.05, 0.95), drawn as graph k = i mod ``DRAW_CHUNK`` of chunk
    c = i // ``DRAW_CHUNK``.  Chunk c draws from ``default_rng([seed, c])``
    its ``DRAW_CHUNK`` vertex counts, then its p values, then a
    (``DRAW_CHUNK``, C(n_max, 2)) array of doubles, compared with p row by
    row; graph k's edges are the first C(n, 2) coins of row k, in ascending
    pair order.  A chunk is always drawn whole, so graph i depends only on
    (seed, n_max, i), and the block keeps its own slice of each chunk it
    overlaps.  Then the graphs on each vertex count drawn are answered by
    one ``_table_kernel_corona`` call, which sizes its own passes.
    """
    start, stop = span
    sizes = np.zeros((4, stop - start), dtype=np.int32)  # n, alpha, |kernel|, |corona| by position
    coins = np.empty((stop - start, n_max * (n_max - 1) // 2), dtype=bool)
    for c in range(start // DRAW_CHUNK, -(-stop // DRAW_CHUNK)):
        rng = np.random.default_rng([seed, c])
        lo, hi = max(start, c * DRAW_CHUNK), min(stop, (c + 1) * DRAW_CHUNK)
        keep = slice(lo - c * DRAW_CHUNK, hi - c * DRAW_CHUNK)  # the block's graphs, by place in the chunk
        sizes[0, lo - start : hi - start] = rng.integers(1, n_max + 1, size=DRAW_CHUNK)[keep]
        p = rng.uniform(0.05, 0.95, size=DRAW_CHUNK)[keep, None]
        np.less(rng.random((DRAW_CHUNK, coins.shape[1]))[keep], p, out=coins[lo - start : hi - start])
    for n in np.unique(sizes[0]).tolist():
        drawn = sizes[0] == n
        sizes[1:, drawn] = _table_kernel_corona(n, coins[drawn, : n * (n - 1) // 2])
    return [(f"seed{seed}:{start + pos}", *row) for pos, row in enumerate(zip(*sizes.tolist()))]


def random_corpus_check(
    count: int,
    seed: int,
    n_max: int,
    workers: int = 1,
) -> tuple[CorpusCheck, list[tuple[str, int, int, int, int]]]:
    """Hajnal inequality on ``count`` seeded random graphs of 1 to ``n_max``
    <= ``EXACT_MAX_N`` vertices, each answered from subset tables with no
    clique search; returns their CSV rows (graph id, n, alpha, |kernel|,
    |corona|) too, and counts the violations, kernel + corona < 2*alpha,
    from those rows.

    Graph ``index`` depends only on (seed, n_max, index), and the rows come
    back in index order, so the outcome is the same for any worker count; the
    index range is cut into one contiguous block per worker.
    """
    parts = max(1, min(workers, count))
    bounds = [count * i // parts for i in range(parts + 1)]
    blocks = parallel_map(partial(_random_corpus_block, seed, n_max), list(zip(bounds, bounds[1:])), workers)
    rows = [row for block in blocks for row in block]
    violations = sum(ker + cor < 2 * a for _, _, a, ker, cor in rows)
    return CorpusCheck(checked=count, violations=violations), rows
