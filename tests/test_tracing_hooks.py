"""Every span hook of bench/tracing.py names a function that exists.

Tracer.install looks each (module, attribute) pair up with getattr on the
module, and a dotted attribute with vars() on the class, so a renamed or
deleted function would crash a traced benchmark run.  This reads the hook
table only; nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def hooks():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("name, module, attr",
                         [(name, module, attr) for name, module, attr, _ in hooks()])
def test_hook_resolves(name, module, attr):
    mod = importlib.import_module(module)
    owner, _, leaf = attr.rpartition(".")
    if owner:
        assert callable(vars(getattr(mod, owner)).get(leaf)), name
    else:
        assert callable(getattr(mod, leaf, None)), name
