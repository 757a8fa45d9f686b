"""The benchmark can still drive the program it measures.

``perfbench/tracing.py`` looks up each of its layer functions by name in the
``mishit`` modules, and ``perfbench/workloads.py`` passes fixed command
lines to the CLI, so renaming or deleting a function or a flag breaks the
benchmark run.  These tests make that a tier-1 failure instead.  They only
read ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import mishit.cli  # loads every module the tracer patches, as perfbench/run.py does

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    """``perfbench/<name>.py`` as module ``name``, in sys.modules for this test
    only: its dataclasses look their module up there, and its siblings import
    each other by plain name."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _mishit_namespaces():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and (name == "mishit" or name.startswith("mishit."))
    }


def test_tracer_installs_every_layer_and_restores_it(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    before = _mishit_namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _, home, fn_names, _ in tracing.LAYERS:
            for fn_name in fn_names:
                wrapped = getattr(sys.modules[home], fn_name)
                assert wrapped is not before[home][fn_name], f"{home}.{fn_name} was not wrapped"
    finally:
        tracer.uninstall()
    after = _mishit_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        changed = [key for key, value in namespace.items() if after[name].get(key) is not value]
        assert not changed, f"{name}: {changed} not restored"


class _InputPaths(dict):
    """Any input name the workloads ask for maps to a file name; nothing is read."""

    def __missing__(self, name):
        return f"{name}.json"


def test_every_benchmark_command_line_parses(monkeypatch, tmp_path):
    _load(monkeypatch, "oracles")
    workloads = _load(monkeypatch, "workloads")
    parser = mishit.cli.build_parser()
    for workload in workloads.WORKLOADS:
        tasks = workloads.tasks_for(workload, 1, _InputPaths(), tmp_path)
        assert tasks, workload
        for task in tasks:
            try:
                parser.parse_args(list(task.argv))
            except SystemExit:
                pytest.fail(f"{task.id}: the CLI rejects {' '.join(task.argv)}")
