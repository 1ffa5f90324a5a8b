"""The benchmark's layer trace wraps thermoqm functions by name: every name it
lists must resolve, or a traced benchmark run fails."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    spans = _spans()
    return [(mod, attr) for table in (spans.LAYERS, spans.COUNTED)
            for fns in table.values() for mod, attr in fns]


@pytest.mark.parametrize("mod,attr", _targets())
def test_traced_name_resolves(mod, attr):
    module = importlib.import_module(f"thermoqm.{mod}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert any(meth in c.__dict__ for c in cls.__mro__), f"{attr} is not defined"
    else:
        assert callable(getattr(module, attr))
