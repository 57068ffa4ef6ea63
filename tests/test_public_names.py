"""Public names resolve: each module's __all__, and the functions the benchmark traces.

perfbench/spans.py wraps randchain functions by their "module.function"
names and reads work counts off their bound arguments by keyword.  A
deletion or a renamed parameter would otherwise show only when the
benchmark runs.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import randchain

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["randchain"] + [f"randchain.{m.name}" for m in pkgutil.iter_modules(randchain.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)] == []


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_functions_resolve_with_the_arguments_read():
    traced = _traced()
    assert traced
    for qual, (_, work) in traced.items():
        mod_name, fn_name = qual.split(".")
        fn = getattr(importlib.import_module(f"randchain.{mod_name}"), fn_name, None)
        assert callable(fn), qual
        if work is not None:
            read = set(re.findall(r'a\["(\w+)"\]', inspect.getsource(work)))
            assert read and read <= set(inspect.signature(fn).parameters), (qual, read)
