"""Command-line front door.

Subcommands construct the graph families, run the exact solvers and the
stochastic experiments, and emit human tables on stdout plus optional JSON /
CSV artifacts.  Every stochastic command requires an explicit --seed and is
bit-reproducible: identical configuration and seed give byte-identical
artifacts for any --workers value.  The exit code is 0 only when every check
the command ran came out clean, and 2 with a one-line message when the input
is invalid or unreadable; progress chatter goes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from . import families, hajnal, hitting, process
from .graph import EXACT_MAX_N, FamilyTooLargeError, alpha, enumerate_mis, is_independent, load_graph, save_graph


def _write_family_json(path: str, family) -> None:
    """Families export as a JSON list of sorted vertex arrays."""
    with open(path, "w") as fh:
        json.dump([list(s.members()) for s in family.sets], fh, sort_keys=True)
        fh.write("\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _print_report(report: dict, checks: list[tuple[str, bool]]) -> None:
    for key, value in report.items():
        print(f"{key}: {value}")
    for label, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")


# artifact paths and the worker count do not change the result, so they stay out of config
_NON_CONFIG_KEYS = {"func", "json", "csv", "out", "trace_jsonl", "graph_out", "family_out", "workers"}


def _emit(args, report: dict, checks: list[tuple[str, bool]], csv_spec=None) -> int:
    payload = {
        "config": {k: v for k, v in vars(args).items() if k not in _NON_CONFIG_KEYS},
        "report": report,
        "checks": {label: ok for label, ok in checks},
    }
    _print_report(report, checks)
    if getattr(args, "json", None):
        _write_json(args.json, payload)
    if csv_spec is not None and getattr(args, "csv", None):
        header, rows = csv_spec
        _write_csv(args.csv, header, rows)
    return 0 if all(ok for _, ok in checks) else 1


def _require_seed(args) -> None:
    if args.seed is None:
        raise ValueError("this command is stochastic: an explicit --seed is required")
    if args.seed < 0:  # numpy's seeding takes non-negative integers only
        raise ValueError(f"--seed must be at least 0, got {args.seed}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

SHIFT_EXACT_MAX_K = 5


def cmd_shift(args) -> int:
    if args.k < 1:
        raise ValueError("--k must be a positive integer")
    if args.k > SHIFT_EXACT_MAX_K:
        raise ValueError(
            f"exact hitting numbers are gated at k <= {SHIFT_EXACT_MAX_K}; "
            f"largest feasible: --k {SHIFT_EXACT_MAX_K}"
        )
    g, spec = families.build_shift_graph(args.k)
    family = enumerate_mis(g, families.shift_generators(spec))
    a = family.alpha
    structural = families.shift_mis_family(spec)
    same_family = {s.bits for s in family.sets} == {s.bits for s in structural.sets}
    # enumerate_mis verified the generators as automorphisms that move arc (1, 2) to every
    # arc, so they map the family onto itself and some minimum transversal holds vertex 0
    hit = hitting.min_hitting_set(structural, transitive=True)
    h = len(hit)
    cycle = families.shift_cycle_hitting_set(spec)
    cycle_hits = all(not s.isdisjoint(cycle) for s in structural.sets)
    n = spec.n
    n_alt = 2 * args.k * (args.k - 1)  # the 2k(k-1) count variant; both ratios reported
    report = {
        "k": args.k,
        "n": n,
        "alpha": a,
        "mis_count": len(family),
        "h": h,
        "hitting_set": [spec.index_to_pair(v) for v in hit],
        "cycle_certificate": [spec.index_to_pair(v) for v in cycle],
        "sqrt_n_over_2": math.sqrt(n) / 2,
        "sqrt_n_over_2_alt_count": math.sqrt(n_alt) / 2,
    }
    checks = [
        ("alpha equals k^2", a == args.k**2),
        ("family complete with C(2k,k) members", len(family) == math.comb(2 * args.k, args.k)),
        ("enumerated family equals partition family", same_family),
        ("h equals k+1", h == args.k + 1),
        ("cycle certificate has size k+1 and hits every set", len(cycle) == args.k + 1 and cycle_hits),
        ("h exceeds sqrt(n)/2", 4 * h * h > n),
    ]
    if args.graph_out:
        save_graph(g, args.graph_out)
    if args.family_out:
        _write_family_json(args.family_out, structural)
    header = ["k", "n", "alpha", "mis_count", "h", "sqrt_n_over_2", "sqrt_n_over_2_alt_count"]
    return _emit(args, report, checks, (header, [[report[key] for key in header]]))


HAMMING_EXACT_MAX_M = 6


def cmd_hamming(args) -> int:
    spec = families.HammingSpec(args.m, args.t)
    exact = args.m <= HAMMING_EXACT_MAX_M
    # built once for the checks and the exports; the builders refuse m > 12 before any work
    g = families.build_hamming_graph(spec) if exact or args.graph_out else None
    balls = families.hamming_mis_family(spec) if exact or args.family_out else None
    kle = families.kleitman_alpha(spec)
    report = {
        "m": args.m,
        "t": args.t,
        "n": spec.n,
        "kleitman_alpha": kle,
        "ball_radius": spec.ball_radius,
        "discrepancy_lower_bound": hitting.discrepancy_lower_bound(spec),
        "kneser_lower_bound": hitting.kneser_lower_bound(spec),
    }
    checks: list[tuple[str, bool]] = []
    if exact:
        family = enumerate_mis(g, families.hamming_generators(spec))
        report["alpha_exact"] = family.alpha
        checks.append(("exact alpha equals the Kleitman sum", family.alpha == kle))
        balls_match = {s.bits for s in family.sets} == {s.bits for s in balls.sets}
        report["mis_count"] = len(family)
        checks.append(("MIS family is exactly the 2^m balls", balls_match))
        # enumerate_mis verified the unit translations as automorphisms that move word 0
        # to every word, so they map the family onto itself and some minimum transversal holds 0
        h = len(hitting.min_hitting_set(family, transitive=True))
        report["h_exact"] = h
        if spec.ball_radius == 0:
            code_size = spec.n  # radius 0 forces the whole space
        elif (spec.n + kle - 1) // kle <= 6:
            # volume bound keeps the direct subset search tractable
            code_size = len(hitting.min_covering_code_search(args.m, spec.ball_radius))
        else:
            code_size = None
        report["min_code_size"] = code_size
        if code_size is not None and balls_match:
            checks.append(("hitting number equals minimum covering-code size", h == code_size))
    h0 = hitting.hadamard_prefix_order(args.t)
    if args.m >= h0:
        had = hitting.build_hadamard_covering_code(spec)
        report["hadamard_code_size"] = len(had)
        if h0 <= hitting.SCAN_MAX_PREFIX:
            rad, _ = hitting.covering_radius(had)
            report["hadamard_radius"] = rad
            checks.append(("Hadamard code covers at radius m/2 - t", rad <= spec.ball_radius))
    else:
        report["hadamard_code_size"] = None
    if args.graph_out:
        save_graph(g, args.graph_out)
    if args.family_out:
        _write_family_json(args.family_out, balls)
    csv_spec = (
        list(report.keys()),
        [list(report.values())],
    )
    return _emit(args, report, checks, csv_spec)


def cmd_hajnal_corpus(args) -> int:
    if not 0 <= args.max_n <= hajnal.EXHAUSTIVE_MAX_N:
        raise ValueError(f"--max-n must be between 0 and {hajnal.EXHAUSTIVE_MAX_N}, got {args.max_n}")
    # a cap on outside input: every row is held in memory, so no count near it could finish
    if not 0 <= args.random <= 1 << 32:
        raise ValueError(f"--random must be between 0 and 2^32 = {1 << 32}, got {args.random}")
    if not 1 <= args.n_max <= EXACT_MAX_N:  # every random graph is answered from its subset table
        raise ValueError(f"--n-max must be between 1 and {EXACT_MAX_N}, got {args.n_max}")
    if args.random > 0:
        _require_seed(args)
    exhaustive = hajnal.exhaustive_corpus_check(args.max_n)
    report = {
        "exhaustive_max_n": args.max_n,
        "exhaustive_checked": exhaustive.checked,
        "exhaustive_violations": exhaustive.violations,
    }
    checks = [("no violation among all graphs on <= max_n vertices", exhaustive.ok)]
    random_rows = []
    if args.random > 0:
        print(f"checking {args.random} random graphs...", file=sys.stderr)
        random_check, random_rows = hajnal.random_corpus_check(
            args.random, seed=args.seed, n_max=args.n_max, workers=args.workers
        )
        report["random_checked"] = random_check.checked
        report["random_violations"] = random_check.violations
        checks.append(("no violation among seeded random graphs", random_check.ok))
    code = _emit(args, report, checks)
    if args.csv:
        print("writing CSV rows...", file=sys.stderr)
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["graph_id", "n", "alpha", "kernel_size", "corona_size"])
            fh.writelines(hajnal.exhaustive_corpus_rows(exhaustive))  # streamed, never held whole
            writer.writerows(random_rows)
    return code


def cmd_alpha_prime(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.mode == "mc":
        _require_seed(args)
    g = load_graph(args.graph)
    if args.mode == "exact":
        estimate = process.alpha_prime_exact(g)  # refuses a component beyond the DP before alpha is solved
    a = alpha(g)
    # the ceiling applies for alpha/n in (1/4, 1/2); n = 0 is refused by the estimators
    epsilon = Fraction(a, g.n) - Fraction(1, 4) if g.n else None
    ceiling_applies = epsilon is not None and 0 < epsilon < Fraction(1, 4)
    if args.mode == "mc":
        # a verdict needs the interval of two or more samples: refused before any is drawn
        if args.samples == 1 and ceiling_applies:
            raise ValueError("--samples must be at least 2 for a Monte Carlo verdict on the alpha' ceiling")
        estimate = process.alpha_prime_mc(g, args.samples, args.seed, workers=args.workers)
    report = {
        "n": g.n,
        "alpha": a,
        "mode": args.mode,
        "estimate": estimate.to_json_dict(),
    }
    # a Monte Carlo mean averages integers of at most a, and float rounding is monotone
    checks = [("alpha' at most alpha/n", estimate.mean <= (Fraction(a, g.n) if estimate.exact else a / g.n))]
    if ceiling_applies:
        # the ceiling is proved as n grows, so a verdict at this n neither refutes nor proves it;
        # an exact estimate is compared as a rational, a Monte Carlo one by its 95% interval's upper end
        bound = process.alpha_prime_bound(epsilon)
        holds = estimate.mean <= bound if estimate.exact else estimate.ci95[1] <= float(bound)
        report["bound"] = {
            "n": g.n,
            "alpha": a,
            "epsilon": str(epsilon),
            "bound": str(bound),
            "bound_float": float(bound),
            "estimate": report["estimate"],
            "holds": holds,
            "statistical": not estimate.exact,
        }
        report["bound_holds_at_this_n"] = holds
    else:
        report["bound"] = None
        report["bound_note"] = f"alpha/n = {Fraction(a, g.n)} outside (1/4, 1/2); ceiling not applicable"
    return _emit(args, report, checks)


def _parse_epsilon(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--epsilon must be a fraction such as 1/12, got {text!r}") from None


def cmd_process(args) -> int:
    _require_seed(args)
    if args.traces < 1:
        raise ValueError(f"--traces must be at least 1, got {args.traces}")
    epsilon = _parse_epsilon(args.epsilon) if args.epsilon else None
    g = load_graph(args.graph)
    if g.n < 1:
        raise ValueError("the deletion process is undefined on the empty graph")
    a = alpha(g)  # for eps; run_deletion_traces answers each component once more, for all its traces
    if epsilon is None:
        epsilon = Fraction(a, g.n) - Fraction(1, 4)
    params = process.ProcessParams.for_graph(g.n, epsilon, target_size=args.target_size)
    print(f"running {args.traces} traces...", file=sys.stderr)
    traces = process.run_deletion_traces(g, params, args.traces, seed=args.seed, workers=args.workers)
    stats = process.success_statistics(traces, params)
    high = math.ceil(params.threshold)  # an integer alpha is below the threshold iff it is below this
    step_ok = True
    kernel_ok = True
    flag_ok = True
    for trace in traces:
        before = trace.alphas_before()
        for step, prev in zip(trace.steps, before):
            if not 0 <= prev - step.alpha <= 1:
                step_ok = False
            expected = prev < high or step.alpha < prev
            if step.successful != expected:
                flag_ok = False
            if step.kernel_size is not None:
                vertices_before = params.n - step.i + 1
                if step.kernel_size < 2 * prev - vertices_before:
                    kernel_ok = False
    report = {
        "n": g.n,
        "alpha": a,
        "epsilon": str(params.epsilon),
        "i0": params.i0,
        "target_size": params.target_size,
        "threshold": str(params.threshold),
        "traces": args.traces,
        "stats": {
            "traces": len(traces),
            "window": params.window,
            "required_successes": params.required_successes,
            **stats.to_json_dict(),
        },
    }
    checks = [
        ("alpha decreases by 0 or 1 each step", step_ok),
        ("success flags match their definition", flag_ok),
        ("recorded kernels meet the 2*alpha - |V| floor", kernel_ok),
        ("enough successes always forced alpha below threshold", stats.implication_violations == 0),
        ("conditional successes within the binomial 3-sigma tail at rate eps", stats.frequency_ok),
    ]
    if args.trace_jsonl:
        process.export_trace_jsonl(traces[0], args.trace_jsonl)
    csv_spec = (
        ["trace", "window_successes", "final_alpha", "final_below_threshold"],
        [
            [i, successes, t.final_alpha, t.final_alpha < high]
            for i, (t, successes) in enumerate(zip(traces, stats.success_counts))
        ],
    )
    return _emit(args, report, checks, csv_spec)


def cmd_covering_code(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.count is not None and args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    spec = families.HammingSpec(args.m, args.t)
    report = {"m": args.m, "t": args.t, "method": args.method}
    if args.method == "hadamard":
        code = hitting.build_hadamard_covering_code(spec)
        trials_used = None
        h0 = hitting.hadamard_prefix_order(args.t)
        scan = hitting.covering_radius(code) if h0 <= hitting.SCAN_MAX_PREFIX else None
    else:
        _require_seed(args)
        outcome = hitting.build_random_covering_code(
            spec, trials=args.trials, rng_seed=args.seed, count=args.count
        )
        if outcome.code is None:  # every trial scanned, none within target: no code to write
            report.update(code_size=None, target_radius=spec.ball_radius, trials_used=outcome.trials_used)
            return _emit(args, report, [("some trial's covering radius within target", False)])
        code = outcome.code
        trials_used = outcome.trials_used
        scan = (outcome.radius, outcome.far_point)  # the accepted trial's scan
    report.update(code_size=len(code), target_radius=code.target_radius, trials_used=trials_used)
    checks = []
    if scan is None:
        report["covering_radius"] = None
    else:
        radius, far = scan
        report["covering_radius"] = radius
        checks.append(("covering radius within target", radius <= code.target_radius))
        report["far_point"] = far
        exists_iff = (far is None) == (radius <= code.target_radius)
        far_is_far = far is None or all((far ^ w).bit_count() > code.target_radius for w in code.words)
        checks.append(("far point exists iff radius exceeds target", exists_iff and far_is_far))
    if args.out:
        hitting.write_code(code, args.out)
    return _emit(args, report, checks)


def cmd_hitting_set(args) -> int:
    g = load_graph(args.graph)
    family = enumerate_mis(g)
    hit = hitting.min_hitting_set(family)
    hits_all = all(not s.isdisjoint(hit) for s in family.sets)
    report = {
        "n": g.n,
        "alpha": family.alpha,
        "mis_count": len(family),
        "size": len(hit),
        "vertices": list(hit.members()),
        "optimal": True,  # min_hitting_set tried every smaller budget first
    }
    checks = [
        ("transversal meets every maximum independent set", hits_all),
        ("witness independent set is valid", is_independent(g, family.sets[0])),
    ]
    return _emit(args, report, checks)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Refuses bad command lines with one ``mishit: error:`` line and exit 2,
    no usage block; ``add_subparsers`` gives the subcommands this class too."""

    def error(self, message):
        self.exit(2, f"mishit: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mishit",
        description="hitting numbers of maximum-independent-set families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False, workers=False, csv_opt=False):
        p.add_argument("--json", metavar="PATH", help="write a JSON report")
        if csv_opt:
            p.add_argument("--csv", metavar="PATH", help="write CSV rows")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="RNG seed (required for stochastic runs)")
        if workers:
            p.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")

    def add_exports(p):
        p.add_argument("--graph-out", metavar="PATH", dest="graph_out",
                       help="write the graph in the JSON edge format")
        p.add_argument("--family-out", metavar="PATH", dest="family_out",
                       help="write the MIS family as a JSON list of sorted vertex arrays")

    p = sub.add_parser("shift", help="shift-graph family: alpha, MIS family, exact h")
    p.add_argument("--k", type=int, required=True)
    add_exports(p)
    add_common(p, csv_opt=True)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("hamming", help="Hamming family: Kleitman alpha, h bounds, Hadamard code")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    add_exports(p)
    add_common(p, csv_opt=True)
    p.set_defaults(func=cmd_hamming)

    p = sub.add_parser("hajnal-corpus", help="kernel+corona inequality over graph corpora")
    p.add_argument("--max-n", type=int, default=7, dest="max_n")
    p.add_argument("--random", type=int, default=0, help="additional seeded random graphs")
    p.add_argument("--n-max", type=int, default=14, dest="n_max",
                   help=f"random graphs have 1 to n-max vertices, n-max from 1 to {EXACT_MAX_N} (default %(default)s)")
    add_common(p, seed=True, workers=True, csv_opt=True)
    p.set_defaults(func=cmd_hajnal_corpus)

    p = sub.add_parser("alpha-prime", help="average independence number of random induced subgraphs")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=int, default=20_000)
    add_common(p, seed=True, workers=True)
    p.set_defaults(func=cmd_alpha_prime)

    p = sub.add_parser("process", help="random deletion process with success statistics")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--epsilon", default=None, help="override eps as a fraction, e.g. 1/12")
    p.add_argument("--traces", type=int, default=100)
    p.add_argument("--target-size", type=int, default=None, dest="target_size")
    p.add_argument("--trace-jsonl", metavar="PATH", dest="trace_jsonl",
                   help="export the first trace as JSON lines")
    add_common(p, seed=True, workers=True, csv_opt=True)
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("covering-code", help="build and verify covering codes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--method", choices=["hadamard", "random"], required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--count", type=int, default=None, help="random prefixes per trial")
    p.add_argument("--out", metavar="PATH", help="write the code file")
    add_common(p, seed=True)
    p.set_defaults(func=cmd_covering_code)

    p = sub.add_parser("hitting-set", help="exact hitting number of a graph file")
    p.add_argument("--graph", required=True, metavar="FILE")
    add_common(p)
    p.set_defaults(func=cmd_hitting_set)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except (ValueError, OSError, FamilyTooLargeError) as exc:
        print(f"mishit: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
