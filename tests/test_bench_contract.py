"""The benchmark's tracer can still wrap every function it names.

``perfbench/tracing.py`` looks up each of its layer functions by name in the
``mishit`` modules, so renaming or deleting one breaks the traced benchmark
run.  This test makes that a tier-1 failure instead.  It only reads
``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import mishit  # noqa: F401  (loads every module the tracer patches)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mishit_namespaces():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and (name == "mishit" or name.startswith("mishit."))
    }


def test_tracer_installs_every_layer_and_restores_it():
    tracing = _load_tracing()
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
