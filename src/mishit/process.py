"""Average independence number over random vertex subsets, and the
sequential-deletion argument that bounds it.

alpha'(G) is the expectation of alpha(G[W]) over a uniform random subset W
(all 2^n subsets equally likely, i.e. an independent fair coin per vertex),
divided by n.  Exact values come from a dynamic program over subsets,
alpha(W) = max(alpha(W - v), 1 + alpha(W - N[v])) for the highest vertex v of
W, filled by doubling the table once per vertex and run once per connected
component: alpha is additive over a disjoint union, so each component's
subset sum enters 2^(n - n_c) times.  Components beyond 20 vertices are left
to a seeded Monte Carlo estimator that reports a normal 95% confidence
interval.  It uses the same additivity: the components whose tables fit
together in the DP's own 2^20 cells answer each sample W by lookup at W's
bits within them, and only the other components are searched per sample.
Samples are drawn a block of 512 at a time, in one call that yields the same
bits as drawing each sample's ceil(n/8) bytes on its own, so the estimate
does not depend on how it is computed.

The deletion process removes uniform random vertices one at a time from V
down to a target size.  With alpha(G) = (1/4 + eps)n, a step is successful
when alpha has already dropped below theta = (1/4 + eps - eps^2/2)n or the
removal strictly decreases alpha.  Past step i0 = floor((1/2 - eps)n), while
alpha stays at or above theta, the kernel of the current graph occupies at
least an eps fraction of its vertices, so each step succeeds with
probability at least eps; enough successes force the final alpha below
theta.  That mechanism yields the bound alpha'(G) <= 1/4 + eps - eps^2/3,
whose finite-n surrogate ``alpha_prime_bound`` evaluates.  The observed
successes on those steps are tested against that rate by the exact lower
binomial tail.

The deletion process splits the graph as the Monte Carlo estimator does:
each component within the 2^20-cell budget gets its subset table T, built
once for all traces, and a trace keeps only the local mask of that
component's surviving vertices.  Its alpha is T[mask], a removal clears one
bit, and its kernel, the vertices in every maximum independent set, is the
set of v with T[mask - v] < T[mask]; no clique search runs per step.  The
other components are searched.  A trace keeps them as live connected
components of the current graph, each with its alpha, a maximum
independent set W (its witness) and, once asked for, its kernel size.
Removing v touches only the component C that holds it.  If v is outside W,
nothing is solved: W lies in C - v, so alpha(C - v) = |W|, and each piece P
of C - v inherits W & P, maximum in P because the piece alphas sum to |W|.
Only when v is in W are the pieces solved afresh.  The kernel of the current graph is the union of the
component kernels, so a monitored step finds the kernel only of components
that changed since it was last found.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np

from .graph import (
    EXACT_MAX_N, Graph, VertexSet, _components, _iter_bits, _solve_kernel_corona, _solve_witness,
    _subset_alpha_tables, alpha_induced, induced_subgraph,
)
from .parallel import parallel_map

MC_BLOCK = 512
FREQUENCY_TAIL_LEVEL = Fraction(135, 100_000)  # one-sided normal tail at 3 sigma


@dataclass(frozen=True)
class AlphaPrimeEstimate:
    """Estimate of alpha'(G).  Exact means a rational with denominator n*2^n."""

    mean: Fraction | float
    exact: bool
    samples: int | None = None
    stderr: float | None = None
    ci95: tuple[float, float] | None = None

    def to_json_dict(self) -> dict:
        return {
            "mean": float(self.mean),
            "mean_fraction": str(self.mean) if self.exact else None,
            "exact": self.exact,
            "samples": self.samples,
            "stderr": self.stderr,
            "ci95": list(self.ci95) if self.ci95 is not None else None,
        }


def alpha_prime_exact(g: Graph) -> AlphaPrimeEstimate:
    """Exact alpha'(G) by the subset dynamic program, run per connected
    component; needs n >= 1 and every component of at most 20 vertices."""
    n = g.n
    if n < 1:
        raise ValueError("alpha' is undefined on the empty graph")
    comps = _components(g, (1 << n) - 1)
    largest = max(comp.bit_count() for comp in comps)
    if largest > EXACT_MAX_N:
        raise ValueError(
            f"exact subset DP supports components of at most {EXACT_MAX_N} vertices, "
            f"largest has {largest}"
        )
    total = 0
    for comp in comps:
        verts, table = _subset_alpha_table(g, comp)
        # each of the 2^(n - n_c) choices outside the component repeats its subset sum
        total += int(table.sum(dtype=np.int64)) << (n - len(verts))
    return AlphaPrimeEstimate(mean=Fraction(total, (1 << n) * n), exact=True)


def _subset_alpha_table(g: Graph, within: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The vertices of ``within``, ascending, and alpha(G[W]) for all subsets W
    of them, as a uint8 array indexed by W's bits in that vertex order: the
    batched subset DP on a batch of one."""
    sub, verts = induced_subgraph(g, VertexSet(g.n, within))
    return verts, _subset_alpha_tables(np.array(sub.adj, dtype=np.int64).reshape(1, sub.n))[0]


def _mc_tables(g: Graph) -> tuple[list[tuple[tuple[int, ...], np.ndarray]], int]:
    """Split ``g`` into tabled components and the mask of the rest, for the
    Monte Carlo estimator and the deletion process alike.

    Components are taken smallest first, each with its vertex list and subset
    table, while the tables hold at most 2^EXACT_MAX_N cells together, the
    exact DP's own largest table; every other component goes into ``rest``.
    """
    tables = []
    rest = 0
    cells = 0
    for comp in sorted(_components(g, (1 << g.n) - 1), key=int.bit_count):
        cells += 1 << comp.bit_count()
        if cells <= 1 << EXACT_MAX_N:
            tables.append(_subset_alpha_table(g, comp))
        else:
            rest |= comp
    return tables, rest


def _mc_block(g: Graph, tables, rest: int, seed, samples: int, block_index: int) -> np.ndarray:
    """alpha(G[W]), as int64, for the samples W of block ``block_index``: those
    numbered from 512 * block_index, at most 512 of them and below ``samples``.

    A sample is ``rng.bytes(ceil(n/8))`` of ``default_rng([seed, block_index])``,
    read little-endian and cut to n bits, drawn once per sample.
    ``Generator.bytes(b)`` draws ceil(b/4) uint32 words and keeps their first b
    little-endian bytes, so one draw of a row of ceil(n/32) words per sample
    yields the same bits in the same order.  A sample's alpha is the sum over
    components: a table lookup at its local index for each tabled component,
    and one search of W & rest.
    """
    count = min(MC_BLOCK, samples - MC_BLOCK * block_index)
    rng = np.random.default_rng([seed, block_index])
    words = rng.integers(0, 1 << 32, size=(count, (g.n + 31) // 32), dtype=np.uint32)
    raw = words.astype("<u4").view(np.uint8)
    bits = np.unpackbits(raw, axis=1, count=g.n, bitorder="little")
    values = np.zeros(count, dtype=np.int64)
    for verts, table in tables:
        index = bits[:, verts] @ (1 << np.arange(len(verts), dtype=np.int64))
        values += table[index]
    if rest:
        for j, row in enumerate(raw):
            values[j] += alpha_induced(g, int.from_bytes(row.tobytes(), "little") & rest)
    return values


def alpha_prime_mc(g: Graph, samples: int, seed, workers: int = 1) -> AlphaPrimeEstimate:
    """Monte Carlo alpha'(G): independent fair coin per vertex, seeded.

    Sample j lives in block j // 512, seeded (seed, block), and the blocks are
    joined in order, so results are identical for any worker count.  The
    components are split once per call: those within the exact DP's table
    budget answer every sample by lookup, and only the rest is searched.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if g.n < 1:
        raise ValueError("alpha' is undefined on the empty graph")
    tables, rest = _mc_tables(g)
    block = partial(_mc_block, g, tables, rest, seed, samples)
    blocks = parallel_map(block, range(-(-samples // MC_BLOCK)), workers)
    arr = np.concatenate(blocks).astype(np.float64)
    mean = float(arr.mean()) / g.n
    if samples == 1:
        return AlphaPrimeEstimate(mean=mean, exact=False, samples=1, stderr=None, ci95=None)
    stderr = float(arr.std(ddof=1)) / math.sqrt(samples) / g.n
    ci = (mean - 1.96 * stderr, mean + 1.96 * stderr)
    return AlphaPrimeEstimate(mean=mean, exact=False, samples=samples, stderr=stderr, ci95=ci)


# ---------------------------------------------------------------------------
# deletion process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessParams:
    """Finite-n surrogates for the deletion argument.

    i0 = floor((1/2 - eps) n), threshold theta = (1/4 + eps - eps^2/2) n,
    with all o(1) terms dropped; the monitored window is i0 < i <= n - target_size.
    """

    epsilon: Fraction
    n: int
    i0: int
    target_size: int
    threshold: Fraction

    def __post_init__(self):
        if not 0 < self.epsilon < Fraction(1, 4):
            raise ValueError(f"epsilon must lie strictly in (0, 1/4), got {self.epsilon}")
        if not 0 <= self.target_size < self.n:
            raise ValueError("target size must satisfy 0 <= target_size < n")
        if not self.i0 < self.n - self.target_size:
            raise ValueError(
                f"empty monitoring window: i0={self.i0} >= n - target_size={self.n - self.target_size}"
            )

    @classmethod
    def for_graph(cls, n: int, epsilon: Fraction, target_size: int | None = None) -> ProcessParams:
        epsilon = Fraction(epsilon)
        if target_size is None:
            target_size = round(n / 2)
        i0 = math.floor((Fraction(1, 2) - epsilon) * n)
        threshold = (Fraction(1, 4) + epsilon - epsilon * epsilon / 2) * n
        return cls(epsilon=epsilon, n=n, i0=i0, target_size=target_size, threshold=threshold)

    @property
    def window(self) -> int:
        """Number of monitored steps n - target_size - i0."""
        return self.n - self.target_size - self.i0

    @property
    def required_successes(self) -> int:
        """ceil(eps^2 n / 2) successes force the final alpha below threshold."""
        return math.ceil(self.epsilon * self.epsilon * self.n / 2)


class ProcessStep(NamedTuple):
    i: int
    removed: int
    alpha: int
    successful: bool
    kernel_size: int | None


@dataclass(frozen=True)
class ProcessTrace:
    initial_alpha: int
    steps: tuple[ProcessStep, ...]

    @property
    def final_alpha(self) -> int:
        return self.steps[-1].alpha if self.steps else self.initial_alpha

    def alphas_before(self) -> list[int]:
        """alpha(G_{i-1}) for each step i, aligned with ``steps``."""
        prev = [self.initial_alpha]
        prev.extend(step.alpha for step in self.steps[:-1])
        return prev


def _table_kernel_size(table: bytes, mask: int) -> int:
    """Kernel size of the tabled component's survivors ``mask``: the v in mask
    with alpha(mask - v) < alpha(mask), since they and only they lie in every
    maximum independent set."""
    top = table[mask]
    return sum(table[mask & ~(1 << v)] < top for v in _iter_bits(mask))


def _starting_components(g: Graph) -> tuple[tuple, tuple]:
    """What every trace of ``g`` starts from: (vertex list, subset table) for
    each component that ``_mc_tables`` tables, the table as bytes so that a
    lookup is a Python int, and (component mask, alpha, witness mask) for
    each component it leaves in ``rest``."""
    tables, rest = _mc_tables(g)
    return (
        tuple((verts, table.tobytes()) for verts, table in tables),
        tuple((comp, *_solve_witness(g, comp)) for comp in _components(g, rest)),
    )


def run_deletion_process(
    g: Graph, params: ProcessParams, seed, components: tuple[tuple, tuple]
) -> ProcessTrace:
    """Remove uniform random vertices down to the target size, tracking alpha.

    ``components`` is the pair ``_starting_components(g)``, built once by the
    caller for all traces.  A tabled component keeps the local mask of its
    surviving vertices: its alpha is its table at that mask, and removing v
    clears v's bit.  The other components are kept live by mask, and
    removing v splits only the component C that held it.  If v lies outside
    C's witness W, each piece P of C - v inherits W & P: W survives the
    removal, so the piece alphas, each at least |W & P|, sum to at most
    alpha(C) = |W| and each is exactly |W & P|.  Otherwise each piece is
    solved.  For every monitored step whose predecessor graph still has
    alpha >= threshold, the kernel size of that predecessor, the sum over
    its components, is recorded so the Hajnal-based fraction argument can be
    checked on the trace; a component's kernel is found the first time a
    step needs it after the component last changed, from its table if it
    has one and by ``_solve_kernel_corona`` if not.  Pieces are strict
    subsets of their component, so no mask recurs within a trace, and
    nothing is kept past it.
    """
    if params.n != g.n:
        raise ValueError(f"params built for n={params.n}, graph has n={g.n}")
    rng = np.random.default_rng(seed)
    tables, searched = components
    tabled = []  # per tabled component: [subset table, local mask of its survivors, kernel size or None]
    place = {}  # vertex of a tabled component -> (its entry, its local bit)
    for verts, table in tables:
        entry = [table, (1 << len(verts)) - 1, None]
        tabled.append(entry)
        for j, v in enumerate(verts):
            place[v] = (entry, 1 << j)
    live = {}  # component mask -> [alpha, witness mask, kernel size or None]
    owner = [0] * g.n  # vertex of a searched component -> mask of the live component holding it
    for comp, comp_alpha, witness in searched:
        live[comp] = [comp_alpha, witness, None]
        for v in _iter_bits(comp):
            owner[v] = comp
    initial_alpha = cur_alpha = (
        sum(table[mask] for table, mask, _ in tabled) + sum(entry[0] for entry in live.values())
    )
    vertices = list(range(g.n))  # the vertices of the current graph, ascending
    high = math.ceil(params.threshold)  # the least integer alpha at or above the threshold
    steps = []
    for i in range(1, g.n - params.target_size + 1):
        victim = vertices.pop(int(rng.integers(0, len(vertices))))
        kernel_size = None
        if i > params.i0 and cur_alpha >= high:
            kernel_size = 0
            for entry in tabled:
                if entry[2] is None:
                    entry[2] = _table_kernel_size(entry[0], entry[1])
                kernel_size += entry[2]
            for comp, entry in live.items():
                if entry[2] is None:
                    entry[2] = _solve_kernel_corona(g, comp)[1].bit_count()
                kernel_size += entry[2]
        hit = place.get(victim)
        if hit is not None:
            entry, bit = hit
            table, mask, _ = entry
            new_alpha = cur_alpha - table[mask] + table[mask ^ bit]
            entry[1] = mask ^ bit
            entry[2] = None
        else:
            comp = owner[victim]
            comp_alpha, witness, _ = live.pop(comp)
            new_alpha = cur_alpha - comp_alpha
            for piece in _components(g, comp & ~(1 << victim)):
                if witness >> victim & 1:
                    piece_alpha, piece_witness = _solve_witness(g, piece)
                else:
                    piece_witness = witness & piece
                    piece_alpha = piece_witness.bit_count()
                live[piece] = [piece_alpha, piece_witness, None]
                new_alpha += piece_alpha
                for v in _iter_bits(piece):
                    owner[v] = piece
        successful = cur_alpha < high or new_alpha < cur_alpha
        steps.append(ProcessStep(i, victim, new_alpha, successful, kernel_size))
        cur_alpha = new_alpha
    return ProcessTrace(initial_alpha=initial_alpha, steps=tuple(steps))


def run_deletion_traces(
    g: Graph, params: ProcessParams, count: int, seed: int, workers: int = 1
) -> list[ProcessTrace]:
    """``count`` traces; trace j is ``run_deletion_process`` seeded (seed, j).

    Every trace starts from the same graph, so ``_starting_components``
    builds each tabled component's subset table and solves each other
    component, for alpha and a witness, once here, bound into the mapped
    function; no trace re-solves the start.
    """
    trace = partial(run_deletion_process, g, params, components=_starting_components(g))
    return parallel_map(trace, [[seed, j] for j in range(count)], workers)


def _binomial_tail_at_least(n_trials: int, p: Fraction, k: int) -> Fraction:
    """P[Bin(n, p) >= k] for p = a/d, b = d - a: the sum of the integers C(n, j) a^j b^(n-j)
    over j >= k, over d^n.  Each term is the one before times (n - j) a / ((j + 1) b),
    an exact integer division, so no fraction is reduced until the end."""
    if k <= 0:
        return Fraction(1)
    if k > n_trials:
        return Fraction(0)
    a, d = p.numerator, p.denominator
    b = d - a
    if b == 0:
        return Fraction(1)
    term = math.comb(n_trials, k) * a**k * b ** (n_trials - k)
    total = term
    for j in range(k, n_trials):
        term = term * (n_trials - j) * a // ((j + 1) * b)
        total += term
    return Fraction(total, d**n_trials)


@dataclass(frozen=True)
class ProcessStats:
    """Aggregate over traces of one parameter set.

    ``success_frequency`` conditions on monitored steps whose predecessor
    alpha was still at or above the threshold; the kernel-fraction argument
    promises at least eps there.  ``implication_violations`` counts traces
    with enough successes whose final alpha nevertheless stayed above the
    threshold (must be zero).  The implication is only guaranteed when the
    trace starts with alpha <= (1/4 + eps) n, so traces run under an eps
    override inconsistent with the graph are excluded from that count.

    ``frequency_ok`` holds when q such steps with s successes are no rarer
    than that rate allows: P[Bin(q, eps) <= s] >= 0.00135, the one-sided
    3-sigma level, in exact arithmetic.  ``frequency_stderr`` is the Wald
    standard error, reported only.
    """

    success_counts: tuple[int, ...]
    mean_successes: float
    binomial_tail: float
    fraction_reaching_required: float
    fraction_final_below: float
    qualifying_steps: int
    qualifying_successes: int
    success_frequency: float | None
    frequency_stderr: float | None
    frequency_ok: bool
    implication_violations: int

    def to_json_dict(self) -> dict:
        """Every field but the per-trace ``success_counts``, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "success_counts"}


def success_statistics(traces, params: ProcessParams) -> ProcessStats:
    """Empirical behaviour of the monitored window against the binomial model.

    The traces were run under ``params``, so each stops at step n - target_size
    and its monitored steps are those with i > i0.
    """
    if not traces:
        raise ValueError("need at least one trace")
    counts = tuple(sum(s.successful for s in t.steps if s.i > params.i0) for t in traces)
    req = params.required_successes
    alpha_ceiling = (Fraction(1, 4) + params.epsilon) * params.n
    # for an integer alpha a: a >= theta iff a >= ceil(theta), a < theta iff a < ceil(theta),
    # and a > theta iff a > floor(theta)
    high = math.ceil(params.threshold)
    low = math.floor(params.threshold)
    qual_steps = 0
    qual_succ = 0
    violations = 0
    for t, count in zip(traces, counts):
        for step, prev_alpha in zip(t.steps, t.alphas_before()):
            if step.i > params.i0 and prev_alpha >= high:
                qual_steps += 1
                qual_succ += step.successful
        if (
            t.initial_alpha <= alpha_ceiling
            and count >= req
            and t.final_alpha > low
        ):
            violations += 1
    if qual_steps:
        freq = qual_succ / qual_steps
        stderr = math.sqrt(freq * (1 - freq) / qual_steps)
        # P[Bin(q, eps) <= s] is the chance of at least q - s failures at rate 1 - eps
        lower_tail = _binomial_tail_at_least(qual_steps, 1 - params.epsilon, qual_steps - qual_succ)
        freq_ok = lower_tail >= FREQUENCY_TAIL_LEVEL
    else:
        freq = None
        stderr = None
        freq_ok = True
    return ProcessStats(
        success_counts=counts,
        mean_successes=sum(counts) / len(counts),
        binomial_tail=float(_binomial_tail_at_least(params.window, params.epsilon, req)),
        fraction_reaching_required=sum(c >= req for c in counts) / len(counts),
        fraction_final_below=sum(t.final_alpha < high for t in traces) / len(traces),
        qualifying_steps=qual_steps,
        qualifying_successes=qual_succ,
        success_frequency=freq,
        frequency_stderr=stderr,
        frequency_ok=freq_ok,
        implication_violations=violations,
    )


# ---------------------------------------------------------------------------
# the averaged bound
# ---------------------------------------------------------------------------


def alpha_prime_bound(epsilon: Fraction) -> Fraction:
    """The proved ceiling 1/4 + eps - eps^2/3 on alpha'(G) when alpha = (1/4+eps)n."""
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < Fraction(1, 4):
        raise ValueError(f"epsilon must lie strictly in (0, 1/4), got {epsilon}")
    return Fraction(1, 4) + epsilon - epsilon * epsilon / 3


def export_trace_jsonl(trace: ProcessTrace, path) -> None:
    """One JSON object per step: {i, removed, alpha, success, kernel_size?}."""
    with open(path, "w") as fh:
        for step in trace.steps:
            obj = {
                "i": step.i,
                "removed": step.removed,
                "alpha": step.alpha,
                "success": step.successful,
            }
            if step.kernel_size is not None:
                obj["kernel_size"] = step.kernel_size
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
