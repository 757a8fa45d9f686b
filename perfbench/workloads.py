"""The benchmark's workloads: CLI invocations, task groups and answer checks.

Every task is one ``mishit`` command line with its ``--json`` (and, where
listed, ``--csv`` or ``--out``) artifact in a temporary directory.  The
group names the end-to-end figure the task's time is summed into.  Why each
workload exists, and which layer should move which figure, is in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("hitting", "deletion", "corpus")
GROUPS = {
    "hitting": ("exact_h_s", "covering_code_s"),
    "deletion": ("process_s", "alpha_prime_exact_s", "alpha_prime_mc_s"),
    "corpus": ("hajnal_corpus_s", "hajnal_csv_s"),
}
# Invocations that exit nonzero at the parent commit although their answers
# are right; they still count as failed, and the note says why.
KNOWN_DEFECTS = {
    "shift_k4": "CLI check 'h exceeds sqrt(n/2)' is false for k >= 4 (5 < sqrt(28))",
    "process_g2x4": "on some seeds (e.g. 22) no qualifying step succeeds, so stderr is 0 "
                    "and the check 'frequency >= eps - 3*stderr' fails",
}


@dataclass(frozen=True)
class Task:
    id: str
    group: str
    argv: tuple[str, ...]
    check: Callable[[dict, object], list[str]]
    json: str                # --json path
    csv: str | None = None   # --csv path, digested for the check
    code: str | None = None  # --out code path, read for the check


def tasks_for(workload: str, seed: int, inputs: dict[str, str], tmp: Path) -> list[Task]:
    s = str(seed)
    tasks: list[Task] = []

    def add(task_id, group, argv, check, csv=False, code=False):
        json_path = str(tmp / f"{task_id}.json")
        extra = ["--json", json_path]
        csv_path = str(tmp / f"{task_id}.csv") if csv else None
        code_path = str(tmp / f"{task_id}.code") if code else None
        if csv_path:
            extra += ["--csv", csv_path]
        if code_path:
            extra += ["--out", code_path]
        tasks.append(Task(task_id, group, tuple(argv) + tuple(extra), check, json_path, csv_path, code_path))

    if workload == "hitting":
        for k in (2, 3, 4):
            add(f"shift_k{k}", "exact_h_s", ["shift", "--k", str(k)], oracles.check_shift(k))
        add("hamming_m6_t1", "exact_h_s", ["hamming", "--m", "6", "--t", "1"], oracles.check_hamming_6_1)
        add("hitting_set_shift4", "exact_h_s", ["hitting-set", "--graph", inputs["shift4"]],
            oracles.check_hitting_set_shift(4, inputs["shift4"]))
        add("hitting_set_gnp", "exact_h_s", ["hitting-set", "--graph", inputs["gnp"]],
            oracles.check_hitting_set_graph(inputs["gnp"]))
        add("code_hadamard_m24", "covering_code_s",
            ["covering-code", "--m", "24", "--t", "2", "--method", "hadamard"],
            oracles.check_code(24, 2, 64), code=True)
        add("code_random_m22", "covering_code_s",
            ["covering-code", "--m", "22", "--t", "2", "--method", "random", "--trials", "5", "--seed", s],
            oracles.check_code(22, 2, 128, exact_size=False), code=True)
    elif workload == "deletion":
        add("process_g2x4", "process_s",
            ["process", "--graph", inputs["g2x4"], "--traces", "5", "--seed", s, "--workers", "1"],
            oracles.check_process(4, 5))
        add("process_g2x2", "process_s",
            ["process", "--graph", inputs["g2x2"], "--traces", "100", "--seed", s, "--workers", "1"],
            oracles.check_process(2, 100))
        add("alpha_prime_exact_g2c8", "alpha_prime_exact_s",
            ["alpha-prime", "--graph", inputs["g2c8"], "--mode", "exact", "--workers", "1"],
            oracles.check_alpha_prime_exact)
        add("alpha_prime_mc_g2x4", "alpha_prime_mc_s",
            ["alpha-prime", "--graph", inputs["g2x4"], "--mode", "mc", "--samples", "2000",
             "--seed", s, "--workers", "1"],
            oracles.check_alpha_prime_mc(4, 2000))
    elif workload == "corpus":
        add("hajnal_random", "hajnal_corpus_s",
            ["hajnal-corpus", "--max-n", "7", "--random", "10000", "--seed", s, "--workers", "1"],
            oracles.check_corpus(10000, csv_rows=False))
        add("hajnal_csv", "hajnal_csv_s",
            ["hajnal-corpus", "--max-n", "7", "--random", "2000", "--seed", s, "--workers", "1"],
            oracles.check_corpus(2000, csv_rows=True), csv=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tasks
