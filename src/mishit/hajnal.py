"""Kernel and corona of the maximum-independent-set family.

The kernel is the intersection of all maximum independent sets, the corona
their union.  Hajnal's theorem states |kernel| + |corona| >= 2*alpha(G); for
alpha(G) > n/2 it follows that at least 2*alpha - n vertices lie in every
maximum independent set, so those singletons meet every one of them.

Both quantities are computed by streaming the MIS enumeration, never storing
the family.  The theorem itself is checked empirically on two corpora: every
graph on up to 7 vertices by direct edge-mask enumeration (vectorised over
all 2^21 graphs at once), and seeded random graphs up to 14 vertices through
the exact solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graph import DEFAULT_MIS_CAP, Graph, VertexSet, _solve_all, random_graph
from .parallel import parallel_map

EXHAUSTIVE_MAX_N = 7


@dataclass(frozen=True)
class KernelReport:
    """Kernel/corona of one graph.  ``complete``=False marks a capped
    enumeration, where the kernel is an over- and the corona an
    under-approximation."""

    alpha: int
    kernel: VertexSet
    corona: VertexSet
    holds: bool
    complete: bool

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "kernel": list(self.kernel.members()),
            "corona": list(self.corona.members()),
            "holds": self.holds,
            "complete": self.complete,
        }


def kernel_corona(g: Graph, within: VertexSet | None = None, cap: int = DEFAULT_MIS_CAP) -> KernelReport:
    """Streamed intersection/union over all maximum independent sets.

    ``within`` restricts to an induced subgraph while keeping the original
    vertex labels, which is what the deletion process needs.
    """
    bits = (1 << g.n) - 1 if within is None else within.bits
    alpha_val, masks = _solve_all(g, bits)
    kernel = bits
    corona = 0
    complete = True
    for count, mask in enumerate(masks):
        if count >= cap:
            complete = False
            break
        kernel &= mask
        corona |= mask
    holds = kernel.bit_count() + corona.bit_count() >= 2 * alpha_val
    return KernelReport(
        alpha=alpha_val,
        kernel=VertexSet(g.n, kernel),
        corona=VertexSet(g.n, corona),
        holds=holds,
        complete=complete,
    )


@dataclass(frozen=True)
class KernelGuaranteeReport:
    """Outcome of the alpha > n/2 singleton check."""

    n: int
    alpha: int
    kernel: VertexSet
    required: int
    kernel_ok: bool
    singletons_ok: bool

    @property
    def holds(self) -> bool:
        return self.kernel_ok and self.singletons_ok


def kernel_guarantee_check(g: Graph) -> KernelGuaranteeReport:
    """For alpha(G) > n/2: kernel has >= 2*alpha - n vertices, each meeting
    every maximum independent set."""
    report = kernel_corona(g)
    a = report.alpha
    if 2 * a <= g.n:
        raise ValueError(f"alpha={a} is not above n/2 for n={g.n}")
    required = 2 * a - g.n
    return KernelGuaranteeReport(
        n=g.n,
        alpha=a,
        kernel=report.kernel,
        required=required,
        kernel_ok=len(report.kernel) >= required,
        singletons_ok=report.complete,  # the kernel lies in every set of a complete family
    )


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def all_graphs_kernel_stats(n: int) -> dict[str, np.ndarray]:
    """alpha, kernel and corona sizes for every graph on n labelled vertices.

    Graph id g encodes edge e = (i, j) as bit e in the order of ascending
    (i, j).  Vectorised over all 2^C(n,2) edge masks simultaneously;
    independent of the branch-and-bound solver, so it doubles as an oracle.
    """
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_MAX_N}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nsub = 1 << n
    subsets = np.arange(nsub, dtype=np.uint32)
    edge_in_subset = np.zeros(nsub, dtype=np.uint32)
    for e, (i, j) in enumerate(pairs):
        both = (1 << i) | (1 << j)
        edge_in_subset[(subsets & both) == both] |= np.uint32(1 << e)
    graphs = np.arange(1 << len(pairs), dtype=np.uint32)
    sub_pop = np.bitwise_count(subsets).astype(np.uint8)
    alpha = np.zeros(graphs.shape, dtype=np.uint8)
    for s in range(nsub):
        indep = (graphs & edge_in_subset[s]) == 0
        np.maximum(alpha, np.where(indep, sub_pop[s], 0), out=alpha)
    kernel = np.full(graphs.shape, nsub - 1, dtype=np.uint8)
    corona = np.zeros(graphs.shape, dtype=np.uint8)
    for s in range(nsub):
        is_mis = ((graphs & edge_in_subset[s]) == 0) & (sub_pop[s] == alpha)
        kernel[is_mis] &= np.uint8(s)
        corona[is_mis] |= np.uint8(s)
    return {
        "alpha": alpha,
        "kernel_size": np.bitwise_count(kernel).astype(np.uint8),
        "corona_size": np.bitwise_count(corona).astype(np.uint8),
    }


@dataclass(frozen=True)
class CorpusCheck:
    checked: int
    violations: int
    violating_ids: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.violations == 0


def exhaustive_corpus_check(max_n: int = EXHAUSTIVE_MAX_N) -> CorpusCheck:
    """Hajnal inequality on every graph with at most ``max_n`` vertices."""
    checked = 0
    violations = 0
    bad: list[str] = []
    for n in range(1, max_n + 1):
        stats = all_graphs_kernel_stats(n)
        total = stats["kernel_size"].astype(np.int32) + stats["corona_size"].astype(np.int32)
        mask = total < 2 * stats["alpha"].astype(np.int32)
        checked += stats["alpha"].shape[0]
        violations += int(mask.sum())
        for gid in np.nonzero(mask)[0][:16]:
            bad.append(f"n{n}:mask{int(gid)}")
    return CorpusCheck(checked=checked, violations=violations, violating_ids=tuple(bad))


def exhaustive_corpus_rows(max_n: int = EXHAUSTIVE_MAX_N) -> Iterator[tuple[str, int, int, int, int]]:
    """(graph_id, n, alpha, kernel_size, corona_size) rows for CSV export."""
    for n in range(1, max_n + 1):
        stats = all_graphs_kernel_stats(n)
        for gid in range(stats["alpha"].shape[0]):
            yield (
                f"n{n}:mask{gid}",
                n,
                int(stats["alpha"][gid]),
                int(stats["kernel_size"][gid]),
                int(stats["corona_size"][gid]),
            )


def _random_corpus_unit(args: tuple[int, int, int]) -> tuple[str, int, int, int, int, bool]:
    seed, index, n_max = args
    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(1, n_max + 1))
    p = float(rng.uniform(0.05, 0.95))
    g = random_graph(n, p, rng)
    report = kernel_corona(g)
    return (
        f"seed{seed}:{index}",
        n,
        report.alpha,
        len(report.kernel),
        len(report.corona),
        report.holds,
    )


def random_corpus_check(
    count: int,
    seed: int,
    n_max: int = 14,
    workers: int = 1,
) -> tuple[CorpusCheck, list[tuple[str, int, int, int, int]]]:
    """Hajnal inequality on ``count`` seeded random graphs; returns CSV rows too.

    Graph ``index`` depends only on (seed, index), so the outcome is
    deterministic for any worker count.
    """
    units = [(seed, i, n_max) for i in range(count)]
    results = parallel_map(_random_corpus_unit, units, workers)
    rows = [(gid, n, a, ker, cor) for gid, n, a, ker, cor, _ in results]
    bad = tuple(gid for gid, *_, holds in results if not holds)
    return CorpusCheck(checked=count, violations=len(bad), violating_ids=bad[:16]), rows
