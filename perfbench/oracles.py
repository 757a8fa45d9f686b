"""Answer oracles for every benchmark task, independent of mishit's solvers.

Each ``check_*`` factory returns a checker that takes the task's ``--json``
payload and the artifact digest the runner collected (CSV rows or code
words) and returns a list of problems; an empty list means the answer is
right.  The expected values are either closed forms from the paper (alpha =
k^2, C(2k, k) sets, h = k + 1, the Kleitman sum) or recomputed here by
brute force, networkx or a hypercube distance transform.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cache
from itertools import combinations

import numpy as np

ALPHA_PRIME_G2 = Fraction(6359, 24576)
ALPHA_PRIME_G2_C8 = Fraction(11831, 40960)
EXHAUSTIVE_MAX_N = 7
EXHAUSTIVE_GRAPHS = sum(1 << math.comb(n, 2) for n in range(1, EXHAUSTIVE_MAX_N + 1))  # 2,131,019
CSV_SAMPLE_STRIDE = 7103  # every 7103rd exhaustive CSV row is re-derived here


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# shift graphs
# ---------------------------------------------------------------------------


@cache
def shift_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """Ordered pairs over 1..2k in vertex-index order (lexicographic)."""
    ground = range(1, 2 * k + 1)
    return tuple((i, j) for i in ground for j in ground if i != j)


@cache
def shift_edges(k: int) -> frozenset[tuple[int, int]]:
    """(a, b) ~ (c, d) iff b = c or d = a, built without mishit."""
    pairs = shift_pairs(k)
    return frozenset(
        (u, v)
        for u, (a, b) in enumerate(pairs)
        for v, (c, d) in enumerate(pairs)
        if u < v and (b == c or d == a)
    )


def _hits_every_partition_set(k: int, pairs) -> bool:
    """Does the pair set meet S x T for every k-subset S of 1..2k?"""
    chosen = {tuple(p) for p in pairs}
    for s in combinations(range(1, 2 * k + 1), k):
        side = set(s)
        if not any(x in side and y not in side for x, y in chosen):
            return False
    return True


def check_shift(k: int):
    def check(payload: dict, _extra) -> list[str]:
        r = payload["report"]
        problems: list[str] = []
        _expect(problems, "alpha", r["alpha"], k * k)
        _expect(problems, "mis_count", r["mis_count"], math.comb(2 * k, k))
        _expect(problems, "h", r["h"], k + 1)
        _expect(problems, "hitting set size", len(r["hitting_set"]), k + 1)
        if not _hits_every_partition_set(k, r["hitting_set"]):
            problems.append("hitting set misses some S x T set")
        return problems

    return check


@cache
def _graph_file(path: str) -> tuple[int, frozenset[tuple[int, int]]]:
    with open(path) as fh:
        obj = json.load(fh)
    return obj["n"], frozenset((min(u, v), max(u, v)) for u, v in obj["edges"])


def check_hitting_set_shift(k: int, path: str):
    def check(payload: dict, _extra) -> list[str]:
        r = payload["report"]
        problems: list[str] = []
        n, edges = _graph_file(path)
        if n != len(shift_pairs(k)) or edges != shift_edges(k):
            problems.append(f"input file is not the k={k} shift graph")
            return problems
        _expect(problems, "alpha", r["alpha"], k * k)
        _expect(problems, "mis_count", r["mis_count"], math.comb(2 * k, k))
        _expect(problems, "size", r["size"], k + 1)
        _expect(problems, "vertex count", len(r["vertices"]), k + 1)
        if not _hits_every_partition_set(k, [shift_pairs(k)[v] for v in r["vertices"]]):
            problems.append("transversal misses some S x T set")
        return problems

    return check


# ---------------------------------------------------------------------------
# general graphs: networkx and brute force
# ---------------------------------------------------------------------------


@cache
def mis_family_nx(path: str) -> tuple[int, tuple[int, ...]]:
    """(alpha, MIS bitmasks) via maximal cliques of the complement in networkx."""
    import networkx as nx

    n, edges = _graph_file(path)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    cliques = list(nx.find_cliques(nx.complement(g)))
    a = max(map(len, cliques))
    masks = tuple(sorted(sum(1 << v for v in c) for c in cliques if len(c) == a))
    return a, masks


def min_transversal_size(masks: tuple[int, ...]) -> int:
    """Least h such that some h vertices of the corona meet every mask."""
    corona = 0
    for m in masks:
        corona |= m
    verts = [v for v in range(corona.bit_length()) if corona >> v & 1]
    for h in range(1, len(verts) + 1):
        for combo in combinations(verts, h):
            bits = sum(1 << v for v in combo)
            if all(m & bits for m in masks):
                return h
    raise ValueError("empty family member")


def check_hitting_set_graph(path: str):
    def check(payload: dict, _extra) -> list[str]:
        r = payload["report"]
        problems: list[str] = []
        a, masks = mis_family_nx(path)
        _expect(problems, "alpha", r["alpha"], a)
        _expect(problems, "mis_count", r["mis_count"], len(masks))
        _expect(problems, "size", r["size"], min_transversal_size(masks))
        chosen = sum(1 << v for v in r["vertices"])
        if len(r["vertices"]) != r["size"] or not all(m & chosen for m in masks):
            problems.append("reported vertices are not a transversal of the stated size")
        return problems

    return check


def _alpha_per_subset(n: int, edges) -> list[int]:
    """alpha(G[W]) for every W: max over independent subsets of W, by brute force."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = [0] * (1 << n)
    for s in range(1, 1 << n):
        if all(not (s >> v & 1 and adj[v] & s) for v in range(n)):
            best[s] = s.bit_count()
    for v in range(n):  # superset maximum over the subset lattice
        bit = 1 << v
        for s in range(1 << n):
            if s & bit and best[s ^ bit] > best[s]:
                best[s] = best[s ^ bit]
    return best


@cache
def alpha_prime_brute(n: int, edges: frozenset[tuple[int, int]]) -> Fraction:
    return Fraction(sum(_alpha_per_subset(n, edges)), n << n)


def _cycle_edges(n: int) -> frozenset[tuple[int, int]]:
    return frozenset((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


@cache
def alpha_prime_g2_c8() -> Fraction:
    """alpha'(G_2 + C_8) by linearity over components, each by brute force."""
    a_g2 = alpha_prime_brute(len(shift_pairs(2)), shift_edges(2))
    if a_g2 != ALPHA_PRIME_G2:
        raise AssertionError(f"brute-force alpha'(G_2) = {a_g2}, expected {ALPHA_PRIME_G2}")
    value = (12 * a_g2 + 8 * alpha_prime_brute(8, _cycle_edges(8))) / 20
    if value != ALPHA_PRIME_G2_C8:
        raise AssertionError(f"alpha'(G_2 + C_8) = {value}, expected {ALPHA_PRIME_G2_C8}")
    return value


def check_alpha_prime_exact(payload: dict, _extra) -> list[str]:
    r = payload["report"]
    problems: list[str] = []
    _expect(problems, "n", r["n"], 20)
    _expect(problems, "alpha", r["alpha"], 4 + 4)
    _expect(problems, "alpha' fraction", r["estimate"]["mean_fraction"], str(alpha_prime_g2_c8()))
    return problems


def check_alpha_prime_mc(copies: int, samples: int):
    def check(payload: dict, _extra) -> list[str]:
        r = payload["report"]
        est = r["estimate"]
        problems: list[str] = []
        _expect(problems, "n", r["n"], 12 * copies)
        _expect(problems, "alpha", r["alpha"], 4 * copies)
        _expect(problems, "samples", est["samples"], samples)
        # alpha' is linear under disjoint union, so c copies share alpha'(G_2);
        # 5 standard errors keep a correct estimator failing about once in 10^6
        if not abs(est["mean"] - float(ALPHA_PRIME_G2)) <= 5 * est["stderr"]:
            problems.append(f"MC mean {est['mean']} not within 5 stderr of {float(ALPHA_PRIME_G2)}")
        return problems

    return check


def check_process(copies: int, traces: int):
    def check(payload: dict, _extra) -> list[str]:
        r = payload["report"]
        problems: list[str] = []
        _expect(problems, "n", r["n"], 12 * copies)
        _expect(problems, "alpha", r["alpha"], 4 * copies)
        _expect(problems, "epsilon", r["epsilon"], "1/12")
        _expect(problems, "traces", r["stats"]["traces"], traces)
        _expect(problems, "implication violations", r["stats"]["implication_violations"], 0)
        return problems

    return check


# ---------------------------------------------------------------------------
# Hamming family and covering codes
# ---------------------------------------------------------------------------


def check_hamming_6_1(payload: dict, _extra) -> list[str]:
    r = payload["report"]
    problems: list[str] = []
    kleitman = sum(math.comb(6, i) for i in range(3))
    _expect(problems, "kleitman_alpha", r["kleitman_alpha"], kleitman)
    _expect(problems, "alpha_exact", r["alpha_exact"], kleitman)
    _expect(problems, "mis_count", r["mis_count"], 64)
    _expect(problems, "h_exact", r["h_exact"], 4)  # = K(6, 2), the least radius-2 code
    _expect(problems, "min_code_size", r["min_code_size"], 4)
    return problems


@cache
def covering_radius_oracle(m: int, words: tuple[int, ...]) -> int:
    """Exact covering radius by a breadth-first distance transform over Z_2^m."""
    d = np.full(1 << m, m + 1, dtype=np.uint8)
    d[np.array(words, dtype=np.int64)] = 0
    for j in range(m):
        pairs = d.reshape(-1, 2, 1 << j)
        lo, hi = pairs[:, 0, :], pairs[:, 1, :]
        new_lo = np.minimum(lo, hi + 1)
        np.minimum(hi, lo + 1, out=hi)
        lo[...] = new_lo
    return int(d.max())


def code_words(path: str) -> tuple[int, ...]:
    """Words of a code file: an "m=<int> t=<int>" header, then one 0/1 line
    per word with position j holding bit j."""
    with open(path) as fh:
        next(fh)
        return tuple(sorted(int(line.strip()[::-1], 2) for line in fh if line.strip()))


def check_code(m: int, t: int, size: int, exact_size: bool = True):
    """``exact_size=False`` allows fewer words: equal random prefixes merge."""
    radius = m // 2 - t

    def check(payload: dict, words) -> list[str]:
        r = payload["report"]
        problems: list[str] = []
        _expect(problems, "words in code file", len(words), r["code_size"])
        if r["code_size"] != size and (exact_size or not 0 < r["code_size"] < size):
            problems.append(f"code_size {r['code_size']}, expected {'' if exact_size else 'at most '}{size}")
        exact = covering_radius_oracle(m, words)
        _expect(problems, "covering_radius", r["covering_radius"], exact)
        if exact > radius:
            problems.append(f"covering radius {exact} exceeds {radius}")
        far = r["far_point"]
        if far is None and exact > radius:
            problems.append("no far point reported although the radius exceeds the target")
        if far is not None and min((far ^ w).bit_count() for w in words) <= radius:
            problems.append(f"reported far point {far} lies within radius {radius}")
        return problems

    return check


# ---------------------------------------------------------------------------
# Hajnal corpora
# ---------------------------------------------------------------------------


def kernel_corona_brute(n: int, gid: int) -> tuple[int, int, int]:
    """(alpha, |kernel|, |corona|) of graph ``gid`` on n vertices by brute force.

    Bit e of ``gid`` is edge e in ascending (i, j) order, as in the CSV ids.
    """
    adj = [0] * n
    for e, (i, j) in enumerate(combinations(range(n), 2)):
        if gid >> e & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    indep = [s for s in range(1 << n) if all(not (s >> v & 1 and adj[v] & s) for v in range(n))]
    a = max(s.bit_count() for s in indep)
    kernel, corona = (1 << n) - 1, 0
    for s in indep:
        if s.bit_count() == a:
            kernel &= s
            corona |= s
    return a, kernel.bit_count(), corona.bit_count()


def check_corpus(random_count: int, csv_rows: bool):
    def check(payload: dict, csv_digest) -> list[str]:
        r = payload["report"]
        problems: list[str] = []
        _expect(problems, "exhaustive_checked", r["exhaustive_checked"], EXHAUSTIVE_GRAPHS)
        _expect(problems, "exhaustive_violations", r["exhaustive_violations"], 0)
        _expect(problems, "random_checked", r["random_checked"], random_count)
        _expect(problems, "random_violations", r["random_violations"], 0)
        if csv_rows:
            header, rows, sample = csv_digest
            _expect(problems, "CSV header", header, "graph_id,n,alpha,kernel_size,corona_size")
            _expect(problems, "CSV rows", rows, EXHAUSTIVE_GRAPHS + random_count)
            for line in sample:
                gid, n, a, ker, cor = line.split(",")
                n_part, mask = gid.split(":mask")
                want = kernel_corona_brute(int(n_part[1:]), int(mask))
                _expect(problems, f"CSV row {gid}", (int(a), int(ker), int(cor)), want)
        return problems

    return check


def csv_digest(path: str) -> tuple[str, int, tuple[str, ...]]:
    """(header, data-row count, every CSV_SAMPLE_STRIDE-th exhaustive row)."""
    sample = []
    rows = 0
    with open(path) as fh:
        header = fh.readline().strip()
        for rows, line in enumerate(fh, start=1):
            if rows % CSV_SAMPLE_STRIDE == 0 and rows <= EXHAUSTIVE_GRAPHS:
                sample.append(line.strip())
    return header, rows, tuple(sample)
