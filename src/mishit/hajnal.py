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
graphs (up to 14 vertices by default), and every graph on up to 7 vertices
by direct edge-mask enumeration.  A random graph of at most
``TABLE_MAX_N`` vertices is answered from its subset table, not by
searches: alpha is the table at the full set, v is in the kernel iff the
table drops at the full set minus v, and in the corona iff 1 + its value at
the full set minus N[v] is alpha.  A block of random graphs is drawn
first, larger graphs going to ``kernel_corona`` at once and each small one
kept as one row of at most 78 edge coins; then the graphs of each vertex
count fill their tables in batched numpy passes of at most 2^EXACT_MAX_N
cells.  Graph i of seed s is drawn from the stream of
``default_rng([s, i])``, but no such generator is built: the state it would
start in is a fixed function of (s, i), numpy's SeedSequence hash and PCG64
seeding, both kept stable by NEP 19, so a chunk of indices gets its states
in one pass of uint32 lanes and one reused Generator takes them in turn.
Every draw, and so every row, is the same as from ``default_rng``.

The exhaustive corpus is one sweep per n over the vertex subsets of at
least 3 vertices by descending size, vectorised over all 2^C(n,2) graphs:
a subset updates, in place, the graphs in which it is independent and whose
alpha is unset or equal to its size.  The few graphs left unset have
alpha <= 2, and one pass over their ids' edge bits settles them: their
maximum independent sets are the non-adjacent pairs, or the single vertices
of a complete graph.  The check keeps the per-n arrays, so the CSV export reuses that
sweep and writes its lines as fixed-width byte blocks, one width per id
digit count, instead of formatting one line per graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .graph import (
    EXACT_MAX_N, Graph, VertexSet, _edge_coins, _solve_kernel_corona, _subset_alpha_tables, random_graph
)
from .parallel import parallel_map

EXHAUSTIVE_MAX_N = 7
# random-corpus graphs up to this many vertices are answered from batched
# subset tables, larger ones by the clique search, which is faster from 14 on
TABLE_MAX_N = 13


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


def all_graphs_kernel_stats(n: int) -> dict[str, np.ndarray]:
    """alpha, kernel and corona sizes for every graph on n labelled vertices.

    Graph id g encodes edge e = (i, j) as bit e in the order of ascending
    (i, j).  One sweep over the vertex subsets of at least 3 vertices by
    descending size k: the graphs in which subset s is independent are those
    with a 0 at every edge bit inside s, a strided view of the id-indexed
    arrays seen with one axis per edge bit, and each of them whose alpha is
    unset or equal to k takes s as a maximum independent set.  The graphs
    still unset after k = 3 have alpha <= 2 (the complements of the
    triangle-free graphs), and one pass over the edge bits of their ids
    settles them: their maximum independent sets are the pairs whose edge
    bit is 0, or, if there is none, the single vertices.  Independent of the
    branch-and-bound solver, so it doubles as an oracle.
    """
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_MAX_N}")
    edges = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    full = (1 << n) - 1
    alpha = np.zeros(1 << len(edges), dtype=np.uint8)  # 0 while unset
    kernel = np.full(alpha.shape, full, dtype=np.uint8)
    corona = np.zeros(alpha.shape, dtype=np.uint8)
    # ids are row-major over the axes, so the last axis holds edge bit 0
    shape = (2,) * len(edges)
    views = alpha.reshape(shape), kernel.reshape(shape), corona.reshape(shape)
    for s in sorted((s for s in range(1, full + 1) if s.bit_count() >= 3), key=lambda s: -s.bit_count()):
        k = s.bit_count()
        # the Ellipsis keeps a 0-d view when s spans every edge
        index = tuple(0 if s & both == both else slice(None) for both in reversed(edges)) + (Ellipsis,)
        a, ker, cor = (v[index] for v in views)
        # 0xFF where s is a maximum independent set: every alpha already set
        # is at least k, so a <= k means a is unset or k, and max sets it to k
        m = np.negative((a <= k).view(np.uint8))
        np.maximum(a, k, out=a)
        ker &= ~m | s
        cor |= m & s
    ids = np.flatnonzero(alpha == 0).astype(np.uint32)
    pair_and = np.full(ids.shape, full, dtype=np.uint8)
    pair_or = np.zeros(ids.shape, dtype=np.uint8)
    for e, both in enumerate(edges):
        m = np.negative((ids >> e & 1 == 0).view(np.uint8))  # 0xFF where pair e is independent
        pair_and &= ~m | both
        pair_or |= m & both
    # no independent pair: the graph is complete, and its maximum independent
    # sets are the single vertices, which meet only when n = 1
    complete = pair_or == 0
    alpha[ids] = np.where(complete, 1, 2)
    kernel[ids] = np.where(complete, full if n == 1 else 0, pair_and)
    corona[ids] = np.where(complete, full, pair_or)
    return {
        "alpha": alpha,
        "kernel_size": np.bitwise_count(kernel),
        "corona_size": np.bitwise_count(corona),
    }


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


def _table_kernel_corona(n: int, coins: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha, |kernel| and |corona| of each graph on n vertices whose edge
    coins, C(n, 2) in ascending pair order, form one row of ``coins``.

    One batched subset-table pass answers all of them: with T a graph's
    table and F its full vertex set, alpha = T[F], v is in the kernel iff
    T[F - v] < alpha, and in the corona iff 1 + T[F - N[v]] = alpha.
    """
    u, v = np.triu_indices(n, 1)  # the pairs in ascending order
    weights = np.zeros((len(u), n), dtype=np.int64)
    weights[np.arange(len(u)), u] = 1 << v
    weights[np.arange(len(u)), v] = 1 << u
    adj = coins @ weights
    tables = _subset_alpha_tables(adj)
    full = (1 << n) - 1
    bits = 1 << np.arange(n, dtype=np.int64)
    alpha = tables[:, full]
    kernel = (tables[:, full ^ bits] < alpha[:, None]).sum(axis=1)
    corona = (np.take_along_axis(tables, full & ~(adj | bits), axis=1) + 1 == alpha[:, None]).sum(axis=1)
    return alpha, kernel, corona


# numpy's SeedSequence hash and PCG64 seeding, which NEP 19 keeps stable
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generating state from the pool
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
SEED_CHUNK = 1024  # generator states computed per numpy pass


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """SeedSequence's hash constant before and after each of its updates;
    they do not depend on the data, so every lane shares them."""
    while True:
        after = init * mult & 0xFFFFFFFF
        yield init, after
        init = after


def _hashmix(value: np.ndarray, consts: Iterator[tuple[int, int]]) -> np.ndarray:
    before, after = next(consts)
    value = (value ^ before) * after  # uint32 lanes wrap mod 2^32
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> 16


def _corpus_generators(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """One generator for each index in [start, stop), in index order, in
    exactly the state of ``np.random.default_rng([seed, index])``.

    The same Generator is yielded each time, its PCG64 state set anew, so a
    caller draws from it before asking for the next.  The entropy of
    [seed, index] is the seed's 32-bit words, low word first, then the
    index's single word.  SeedSequence hashes it into a pool of four words
    and draws four uint64 from the pool; both steps are fixed uint32
    arithmetic, run here for a chunk of indices at once, one numpy lane per
    index.  PCG64 then takes seed = s0 << 64 | s1 and
    inc = (s2 << 64 | s3) << 1 | 1, and steps its 128-bit LCG twice, from 0
    with inc and again after adding seed.
    """
    if seed < 0 or start < 0 or stop > 1 << 32:
        raise ValueError(f"corpus generators need seed >= 0 and 0 <= index < 2^32, got {seed}, [{start}, {stop})")
    seed_words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    rng = np.random.Generator(np.random.PCG64())
    for lo in range(start, stop, SEED_CHUNK):
        index = np.arange(lo, min(stop, lo + SEED_CHUNK), dtype=np.uint32)
        entropy = [np.full_like(index, word) for word in seed_words] + [index]
        consts = _hash_constants(_INIT_A, _MULT_A)
        pool = [_hashmix(entropy[i] if i < len(entropy) else np.zeros_like(index), consts) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], _hashmix(word, consts))
        consts = _hash_constants(_INIT_B, _MULT_B)
        w = [_hashmix(pool[i % _POOL_SIZE], consts).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
        # generate_state(4, uint64): s_i = w[2i+1] << 32 | w[2i]
        s = [(w[2 * i + 1] << 32 | w[2 * i]).tolist() for i in range(4)]
        for s0, s1, s2, s3 in zip(*s):
            inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def _random_corpus_block(args: tuple[int, int, int, int]) -> list[tuple[str, int, int, int, int]]:
    """The CSV rows (graph id, n, alpha, |kernel|, |corona|) of the random
    graphs ``start`` <= index < ``stop``, in index order.

    Graph ``index`` is G(n, p) drawn from ``default_rng([seed, index])``
    with n uniform in 1..n_max and p uniform in [0.05, 0.95).  Those
    generators are not built one by one: ``_corpus_generators`` computes
    their states a chunk of indices at a time and sets them on one reused
    Generator, so each graph sees the same stream, and each row the same
    values, as from its own ``default_rng``.  The block is drawn first: a
    graph of more than ``TABLE_MAX_N`` vertices is answered by
    ``kernel_corona`` at once, and a smaller one keeps its edge coins as one
    row of at most C(TABLE_MAX_N, 2) = 78.  Then the graphs of each vertex
    count are answered by batched table passes of at most 2^EXACT_MAX_N
    cells, or one graph.
    """
    seed, start, stop, n_max = args
    sizes = np.zeros((4, stop - start), dtype=np.int32)  # n, alpha, |kernel|, |corona| by position
    coins = np.empty((stop - start, TABLE_MAX_N * (TABLE_MAX_N - 1) // 2), dtype=bool)
    for pos, rng in enumerate(_corpus_generators(seed, start, stop)):
        n = int(rng.integers(1, n_max + 1))
        # what rng.uniform(0.05, 0.95) draws, without its per-call overhead
        p = 0.05 + (0.95 - 0.05) * rng.random()
        sizes[0, pos] = n
        if n > TABLE_MAX_N:
            report = kernel_corona(random_graph(n, p, rng))
            sizes[1:, pos] = report.alpha, len(report.kernel), len(report.corona)
        else:
            coins[pos, : n * (n - 1) // 2] = _edge_coins(n, p, rng)
    for n in range(1, TABLE_MAX_N + 1):
        positions = np.flatnonzero(sizes[0] == n)
        step = max(1, (1 << EXACT_MAX_N) >> n)
        for lo in range(0, len(positions), step):
            batch = positions[lo : lo + step]
            sizes[1:, batch] = _table_kernel_corona(n, coins[batch, : n * (n - 1) // 2])
    return [(f"seed{seed}:{start + pos}", *row) for pos, row in enumerate(zip(*sizes.tolist()))]


def random_corpus_check(
    count: int,
    seed: int,
    n_max: int = 14,
    workers: int = 1,
) -> tuple[CorpusCheck, list[tuple[str, int, int, int, int]]]:
    """Hajnal inequality on ``count`` seeded random graphs; returns their CSV
    rows (graph id, n, alpha, |kernel|, |corona|) too, and counts the
    violations, kernel + corona < 2*alpha, from those rows.

    Graph ``index`` depends only on (seed, index), and the rows come back in
    index order, so the outcome is the same for any worker count; the index
    range is cut into one contiguous block per worker.
    """
    parts = max(1, min(workers, count))
    bounds = [count * i // parts for i in range(parts + 1)]
    blocks = [(seed, lo, hi, n_max) for lo, hi in zip(bounds, bounds[1:])]
    rows = [row for block in parallel_map(_random_corpus_block, blocks, workers) for row in block]
    violations = sum(ker + cor < 2 * a for _, _, a, ker, cor in rows)
    return CorpusCheck(checked=count, violations=violations), rows
