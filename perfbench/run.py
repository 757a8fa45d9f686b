"""Benchmark for mishit: real CLI workloads, answer checks, and a traced run.

    python3 perfbench/run.py --workload hitting --seed 1 --seconds 35 --trace 0

One client in a closed loop: the workload's CLI invocations run back to
back through ``mishit.cli.main(argv)`` in this process, with ``--workers 1``
and every artifact in a temporary directory under ``.perfbench/``.  Passes
over the task list repeat until ``--seconds`` would be exceeded; timings are
medians over passes.  A fixed probe of pure-Python and numpy work runs
between invocations; ``wall_rel`` divides each invocation's time by the
mean of the probes on either side of it, which cancels the shared host's
speed drift (see NOTES.md).  Set-up (interpreter start, ``import
mishit.cli`` and writing the seeded input files) runs as a separate process
several times over the run and reports its median.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics are printed.  Every answer is checked against perfbench/oracles.py
after the timed passes.  The last line of stdout is the JSON result; a
record of the run, and in traced runs the spans, go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import oracles
import workloads
from tracing import LAYERS, Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
PROBE_REPEATS = 5
PROBE_WORDS = np.arange(1 << 16, dtype=np.uint32)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, failed set-up)."""


@dataclass
class Outcome:
    """One CLI invocation: its time, exit status and the artifacts to check."""

    task: workloads.Task
    seconds: float
    exit_code: int | None
    error: str | None
    payload: bytes | None
    extra: object = None
    artifact_bytes: int = 0
    probe_s: float = 0.0  # mean of the host probes just before and after
    problems: list[str] = field(default_factory=list)
    wrong: bool = False


def host_probe() -> float:
    """The host's speed now: median time of fixed pure-Python big-integer and
    numpy work, over PROBE_REPEATS back-to-back repeats."""
    times = []
    x = (1 << 48) - 1
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += ((x >> (i & 31)) & (i * 2654435761)).bit_count()
        for c in range(24):
            acc += int(np.bitwise_count(PROBE_WORDS ^ np.uint32(c)).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def time_setup(workload: str, seed: int, out: Path) -> float:
    """Wall time of one fresh set-up process writing its inputs into ``out``."""
    out.mkdir()
    argv = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up failed (exit {proc.returncode}): {proc.stderr.strip()[-400:]}")
    return seconds


def _artifacts(task) -> list[str]:
    return [p for p in (task.json, task.csv, task.code) if p]


def invoke(cli, task, tracer=None) -> Outcome:
    """Run one CLI invocation; only ``cli.main`` is inside the timed region
    and, when tracing, inside the task's root span."""
    for path in _artifacts(task):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    chatter = io.StringIO()
    exit_code, error = None, None
    root = tracer.task(task.id) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with root, contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
            exit_code = cli.main(list(task.argv))
    except SystemExit as exc:  # the CLI's own error exits carry a message
        exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # a crash is a failed invocation, not a benchmark crash
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    payload = Path(task.json).read_bytes() if os.path.exists(task.json) else None
    extra = None
    if task.csv and os.path.exists(task.csv):
        extra = oracles.csv_digest(task.csv)
    if task.code and os.path.exists(task.code):
        extra = oracles.code_words(task.code)
    size = sum(os.path.getsize(p) for p in _artifacts(task) if os.path.exists(p))
    return Outcome(task, seconds, exit_code, error, payload, extra, size)


def judge(outcomes: list[Outcome], known_defects: dict[str, str]) -> None:
    """Fill in problems: crash, nonzero exit, missing artifact, oracle miss,
    or output that differs from the task's first invocation."""
    verdicts: dict = {}
    first: dict = {}
    for o in outcomes:
        if o.error:
            o.problems.append(f"raised {o.error}")
            o.wrong = True
        if o.exit_code not in (0, None):
            note = known_defects.get(o.task.id)
            o.problems.append(f"exit {o.exit_code}" + (f" (known defect: {note})" if note else ""))
        if o.payload is None or ((o.task.csv or o.task.code) and o.extra is None):
            o.problems.append("artifact missing")
            o.wrong = True
            continue
        key = (o.task.id, o.payload, o.extra)
        if key not in verdicts:
            try:
                verdicts[key] = o.task.check(json.loads(o.payload), o.extra)
            except (KeyError, TypeError, ValueError) as exc:
                verdicts[key] = [f"unreadable report: {type(exc).__name__}: {exc}"]
        if verdicts[key]:
            o.problems.extend(verdicts[key])
            o.wrong = True
        if first.setdefault(o.task.id, key) != key:
            o.problems.append("output differs from the first invocation of this task")
            o.wrong = True


def run_pass(cli, tasks, tracer=None, setup=None) -> dict:
    """One pass over the task list.

    ``setup`` (traced passes only) runs first as a "setup" task, so the
    set-up's layers appear in the per-layer totals.
    """
    first_span = len(tracer.spans) if tracer else 0
    if tracer and setup:
        with tracer.task("setup", kind="setup"):
            setup()
    outcomes = []
    before = host_probe()
    for task in tasks:
        outcome = invoke(cli, task, tracer)
        after = host_probe()
        outcome.probe_s = (before + after) / 2
        outcomes.append(outcome)
        before = after
    return {"outcomes": outcomes, "wall_s": sum(o.seconds for o in outcomes),
            "spans": slice(first_span, len(tracer.spans)) if tracer else None}


def repeat_within(seconds: float, one_round) -> None:
    """Call ``one_round`` at least once, and again while another still fits."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
            return


def relative_wall(passes) -> float:
    """Sum over tasks of the median of time / probe over a task's invocations."""
    ratios: dict[str, list[float]] = {}
    for p in passes:
        for o in p["outcomes"]:
            ratios.setdefault(o.task.id, []).append(o.seconds / o.probe_s)
    return sum(statistics.median(r) for r in ratios.values())


def group_times(passes, groups) -> dict[str, float]:
    return {
        g: statistics.median(sum(o.seconds for o in p["outcomes"] if o.task.group == g) for p in passes)
        for g in groups
    }


def layer_metrics(tracer, traced_pass, tasks) -> dict[str, float]:
    """Per-layer figures of one traced pass, named as in BENCHMARK.json."""
    by_name, by_task = layer_totals(tracer, traced_pass["spans"])
    m: dict[str, float] = {}
    for layer, agg in by_name.items():
        for key, value in agg.items():
            m[f"{layer}.{key}"] = value
    solve_calls = m.get("graph.solve.calls", 0)
    m["graph.solve.repeat_share"] = m.get("graph.solve.repeat", 0) / solve_calls if solve_calls else 0.0
    m["cli.artifact_bytes"] = sum(o.artifact_bytes for o in traced_pass["outcomes"])
    for task in tasks:
        per = by_task.get(task.id, {})
        calls = per.get("graph.solve.calls", 0)
        m[f"task.{task.id}.solve.repeat_share"] = per.get("graph.solve.repeats", 0) / calls if calls else 0.0
        m[f"task.{task.id}.solve.repeat_s"] = per.get("graph.solve.repeat_s", 0.0)
        m[f"task.{task.id}.dp.calls"] = per.get("process.dp.calls", 0)
        m[f"task.{task.id}.mc.calls"] = per.get("process.mc.calls", 0)
        m[f"task.{task.id}.solve.calls"] = calls
    return m


def select_metrics(specs, values: dict[str, float], may_be_absent=lambda name: False) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with their units.

    A name ``may_be_absent`` accepts reads 0 when nothing produced it; any
    other missing name is a bug in this file.
    """
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in values and not may_be_absent(name):
            raise BenchError(f"metric {name} was not computed")
        out[name] = {"value": values.get(name, 0), "unit": spec["unit"]}
    return out


def run(args, tmp: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_runs = [time_setup(args.workload, args.seed, tmp / f"inputs{i}") for i in range(SETUP_REPEATS)]
    input_dir = tmp / "inputs0"

    # imported only now: main() first checks that the sources exist
    import inputs  # puts src/ on sys.path and imports mishit.cli
    from mishit import cli

    input_paths = {p.stem: str(p) for p in input_dir.glob("*.json")}
    tasks = workloads.tasks_for(args.workload, args.seed, input_paths, tmp)
    groups = workloads.GROUPS[args.workload]

    run_start = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []

    def plain_pass():
        # one more set-up process after every untraced pass spreads the
        # set-up samples over the whole run
        plain.append(run_pass(cli, tasks))
        setup_runs.append(time_setup(args.workload, args.seed, tmp / f"inputs{len(setup_runs)}"))

    if args.trace:
        # untraced and traced passes alternate, so host drift hits both alike
        tracer = Tracer()

        def traced_setup():
            out = tmp / f"traced-inputs{len(traced)}"
            out.mkdir()
            inputs.make_inputs(args.workload, args.seed, out)

        def both():
            plain_pass()
            tracer.install()
            try:
                traced.append(run_pass(cli, tasks, tracer, traced_setup))
            finally:
                tracer.uninstall()

        repeat_within(args.seconds, both)
    else:
        repeat_within(args.seconds, plain_pass)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured_s = time.perf_counter() - run_start

    outcomes = [o for p in plain + traced for o in p["outcomes"]]
    judge(outcomes, workloads.KNOWN_DEFECTS)
    failed = sum(1 for o in outcomes if o.problems)
    correct = not any(o.wrong for o in outcomes)

    wall_s = statistics.median(p["wall_s"] for p in plain)
    calib_s = statistics.median(o.probe_s for p in plain for o in p["outcomes"])
    e2e = {"wall_rel": relative_wall(plain), "wall_s": wall_s,
           "setup_s": statistics.median(setup_runs), "peak_rss_mib": peak_rss_mib,
           "fail_ratio": failed / len(outcomes)}
    e2e.update(group_times(plain, groups))
    if args.trace:
        per_pass = [layer_metrics(tracer, p, tasks) for p in traced]
        # median_low keeps every figure a measured value, and counts whole
        values = {name: statistics.median_low(pp.get(name, 0) for pp in per_pass)
                  for name in set().union(*per_pass)}
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall_s
        values["env.calib_s"] = calib_s
        values["run.wall_s"] = wall_s
        every_group = [g for gs in workloads.GROUPS.values() for g in gs]
        values.update({f"group.{g}": v for g, v in group_times(plain, every_group).items()})
        # a layer the workload never enters, or a task of another workload, reads 0
        layer_names = {name for name, *_ in LAYERS}
        metrics = select_metrics(spec["per_layer"], values, lambda name: name.startswith("task.")
                                 or name.rsplit(".", 1)[0] in layer_names)
    else:
        metrics = select_metrics(spec["end_to_end"], e2e)

    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "calib_s": calib_s, "setup_runs_s": setup_runs,
        "passes_untraced": len(plain), "passes_traced": len(traced),
        "measured_s": measured_s,
    }
    print_report(env, e2e, tasks, outcomes)
    record = {"env": env, "end_to_end": e2e, "metrics": metrics, "layers": values if args.trace else None,
              "task_s": {t.id: [o.seconds for o in outcomes if o.task is t] for t in tasks},
              "task_probe_s": {t.id: [o.probe_s for o in outcomes if o.task is t] for t in tasks},
              "failures": sorted({f"{o.task.id}: {'; '.join(o.problems)}" for o in outcomes if o.problems})}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write_jsonl(OUT_DIR / f"spans-{stem}.jsonl", run_start)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


def print_report(env, e2e, tasks, outcomes) -> None:
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{'task':28} {'group':20} {'runs':>4} {'failed':>6} {'median_s':>10}")
    for task in tasks:
        mine = [o for o in outcomes if o.task is task]
        bad = [o for o in mine if o.problems]
        print(f"{task.id:28} {task.group:20} {len(mine):4d} {len(bad):6d} "
              f"{statistics.median(o.seconds for o in mine):10.4f}")
        if bad:
            print(f"  problems: {'; '.join(bad[0].problems)}")
    units = {"wall_rel": "ratio", "peak_rss_mib": "MiB", "fail_ratio": "ratio"}
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {units.get(name, 's')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mishit benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mishit" / "cli.py").is_file():
        print(f"error: no mishit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        return run(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
