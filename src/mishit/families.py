"""The two graph families under study.

Shift graph: vertices are the ordered pairs (i, j), i != j, over the ground
set {1..2k}; (a, b) ~ (c, d) iff b = c or d = a, i.e. the pairs form a
directed path of length two.  Its maximum independent sets are exactly the
products S x T over the equal-split partitions S, T of the ground set, so
there are C(2k, k) of them, each of size k^2, and a directed (k+1)-cycle is a
smallest set of vertices meeting them all.

Hamming graph: for even m and 1 <= t <= m/2, vertices are the binary words
of length m, adjacent iff their Hamming distance exceeds m - 2t.  This is the
Cayley graph of Z_2^m over the words of weight >= m - 2t + 1; the
independence number is the Kleitman value sum_{i<=m/2-t} C(m, i), attained
exactly by the 2^m Hamming balls of radius m/2 - t.  The paper's 4t^2 <= m
belongs to the covering-code builders in ``hitting``, not to the graph.

Explicit adjacency rows are materialised only up to 2^12 vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import Graph, MisFamily, VertexSet

EXPLICIT_MAX_M = 12
HAMMING_MAX_M = 4096  # 2^4096 has 1234 digits, under Python's 4300-digit str() limit


@dataclass(frozen=True)
class ShiftSpec:
    """Shift-graph parameters and the pair <-> vertex-index bijection.

    The encoding is index = (i-1)*(2k-1) + rank of j among {1..2k} without i,
    which is stable across runs so test vectors stay portable.
    """

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")

    @property
    def ground_size(self) -> int:
        return 2 * self.k

    @property
    def n(self) -> int:
        return 2 * self.k * (2 * self.k - 1)

    def pair_to_index(self, i: int, j: int) -> int:
        K = self.ground_size
        if not (1 <= i <= K and 1 <= j <= K) or i == j:
            raise ValueError(f"({i},{j}) is not an ordered pair over 1..{K}")
        rank = j - 1 if j < i else j - 2
        return (i - 1) * (K - 1) + rank

    def index_to_pair(self, idx: int) -> tuple[int, int]:
        K = self.ground_size
        if not 0 <= idx < self.n:
            raise ValueError(f"vertex index {idx} out of range")
        i, rank = divmod(idx, K - 1)
        i += 1
        j = rank + 1 if rank + 1 < i else rank + 2
        return i, j


def build_shift_graph(k: int) -> tuple[Graph, ShiftSpec]:
    """Shift graph on 2k(2k-1) ordered pairs; (a,b) ~ (c,d) iff b=c or d=a."""
    spec = ShiftSpec(k)
    K = spec.ground_size
    rows = [0] * spec.n
    for idx in range(spec.n):
        a, b = spec.index_to_pair(idx)
        row = 0
        for d in range(1, K + 1):            # (b, d) with matching head
            if d != b:
                row |= 1 << spec.pair_to_index(b, d)
        for c in range(1, K + 1):            # (c, a) with matching tail
            if c != a:
                row |= 1 << spec.pair_to_index(c, a)
        rows[idx] = row & ~(1 << idx)
    return Graph(spec.n, rows), spec


def shift_generators(spec: ShiftSpec) -> list[tuple[int, ...]]:
    """Vertex permutations that generate a group moving every arc to every
    arc: the transposition (1 2) and the cycle x -> x + 1 (mod 2k) of the
    ground set, which together generate its symmetric group, and the
    reversal (i, j) -> (j, i).  Each maps directed 2-paths to directed
    2-paths, so each is an automorphism of the shift graph."""
    K = spec.ground_size
    pairs = [spec.index_to_pair(v) for v in range(spec.n)]
    transpose = {1: 2, 2: 1}
    arc_maps = (
        lambda i, j: (transpose.get(i, i), transpose.get(j, j)),
        lambda i, j: (i % K + 1, j % K + 1),
        lambda i, j: (j, i),
    )
    return [tuple(spec.pair_to_index(*arc_map(i, j)) for i, j in pairs) for arc_map in arc_maps]


def shift_mis_from_partition(spec: ShiftSpec, s) -> VertexSet:
    """The independent set {(x, y): x in s, y not in s} for a k-subset s."""
    s = frozenset(s)
    if len(s) != spec.k:
        raise ValueError(f"partition side must have exactly k={spec.k} points, got {len(s)}")
    if not s <= set(range(1, spec.ground_size + 1)):
        raise ValueError(f"partition side must lie in 1..{spec.ground_size}")
    bits = 0
    for x in s:
        for y in range(1, spec.ground_size + 1):
            if y not in s:
                bits |= 1 << spec.pair_to_index(x, y)
    return VertexSet(spec.n, bits)


def shift_mis_family(spec: ShiftSpec) -> MisFamily:
    """All C(2k, k) partition sets S x T; these are all the maximum independent sets."""
    sets = [
        shift_mis_from_partition(spec, s)
        for s in combinations(range(1, spec.ground_size + 1), spec.k)
    ]
    return MisFamily(alpha=spec.k * spec.k, sets=tuple(sets))


def shift_cycle_hitting_set(spec: ShiftSpec) -> VertexSet:
    """The directed (k+1)-cycle {(1,2), (2,3), ..., (k+1,1)}; hits every S x T set."""
    k = spec.k
    bits = 0
    for x in range(1, k + 1):
        bits |= 1 << spec.pair_to_index(x, x + 1)
    bits |= 1 << spec.pair_to_index(k + 1, 1)
    return VertexSet(spec.n, bits)


def shift_avoiding_partition(spec: ShiftSpec, h: VertexSet) -> tuple[int, ...] | None:
    """A k-subset S whose partition set S x T avoids ``h``, or None.

    Searches all C(2k, k) partitions exhaustively, so it tests the existence
    claim itself for any h; a None for |h| <= k would contradict the shift
    lower-bound argument.
    """
    if h.n != spec.n:
        raise ValueError(f"hitting set over {h.n} vertices against shift graph on {spec.n}")
    for s in combinations(range(1, spec.ground_size + 1), spec.k):
        if shift_mis_from_partition(spec, s).bits & h.bits == 0:
            return s
    return None


# ---------------------------------------------------------------------------
# Hamming family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HammingSpec:
    """Parameters (m, t): m even in 2..HAMMING_MAX_M and 1 <= t <= m/2, so
    the ball radius m/2 - t is never negative."""

    m: int
    t: int

    def __post_init__(self):
        if not 2 <= self.m <= HAMMING_MAX_M or self.m % 2:
            raise ValueError(f"m must be an even integer from 2 to {HAMMING_MAX_M}, got {self.m}")
        if not 1 <= self.t <= self.m // 2:
            raise ValueError(f"t must be between 1 and m/2 = {self.m // 2}, got {self.t}")

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def distance_floor(self) -> int:
        """Adjacency means Hamming distance strictly above this."""
        return self.m - 2 * self.t

    @property
    def ball_radius(self) -> int:
        """Radius m/2 - t of the maximum-independent-set balls."""
        return self.m // 2 - self.t


def build_hamming_graph(spec: HammingSpec) -> Graph:
    """Cayley graph of Z_2^m: u ~ v iff popcount(u ^ v) >= m - 2t + 1 >= 1, so no loops."""
    if spec.m > EXPLICIT_MAX_M:
        raise ValueError(f"explicit adjacency needs m <= {EXPLICIT_MAX_M}, got m={spec.m}")
    n = spec.n
    words = np.arange(n, dtype=np.uint32)
    rows = []
    for u in range(n):
        far = np.bitwise_count(words ^ np.uint32(u)) > spec.distance_floor
        packed = np.packbits(far, bitorder="little").tobytes()
        rows.append(int.from_bytes(packed, "little"))
    return Graph(n, rows)


def hamming_generators(spec: HammingSpec) -> list[tuple[int, ...]]:
    """The translations w -> w ^ e_i by the m unit words: automorphisms of
    the Cayley graph, since they keep every distance, and together they
    move word 0 to every word."""
    if spec.m > EXPLICIT_MAX_M:
        raise ValueError(f"explicit permutations need m <= {EXPLICIT_MAX_M}, got m={spec.m}")
    words = range(spec.n)
    return [tuple(w ^ 1 << i for w in words) for i in range(spec.m)]


def kleitman_alpha(spec: HammingSpec) -> int:
    """Exact independence number sum_{i=0}^{m/2-t} C(m, i) as a big integer."""
    return sum(math.comb(spec.m, i) for i in range(spec.ball_radius + 1))


def hamming_ball(spec: HammingSpec, center: int, radius: int) -> VertexSet:
    """All words at distance <= radius from ``center`` (explicit range only)."""
    if spec.m > EXPLICIT_MAX_M:
        raise ValueError(f"materialised balls need m <= {EXPLICIT_MAX_M}, got m={spec.m}")
    if not 0 <= center < spec.n:
        raise ValueError("center out of range")
    words = np.arange(spec.n, dtype=np.uint32)
    near = np.bitwise_count(words ^ np.uint32(center)) <= radius
    packed = np.packbits(near, bitorder="little").tobytes()
    return VertexSet(spec.n, int.from_bytes(packed, "little"))


def hamming_mis_family(spec: HammingSpec) -> MisFamily:
    """The 2^m balls of radius m/2 - t, in center order; complete by Kleitman."""
    sets = tuple(hamming_ball(spec, c, spec.ball_radius) for c in range(spec.n))
    return MisFamily(alpha=kleitman_alpha(spec), sets=sets)
