"""Every name perfbench's traced run patches still exists in the engine.

``perfbench/spans.py`` wraps the functions and methods listed in its
``TARGETS`` with timers. A renamed or deleted target breaks only the
``--trace 1`` benchmark run (a class method is looked up in the class
``__dict__``, so it raises ``KeyError``). This test reads ``TARGETS``
without installing the timers, so Ray is neither imported nor started.
"""

from __future__ import annotations

import importlib

import pytest

from perfbench import spans


@pytest.mark.parametrize("modname,attr,name", spans.TARGETS,
                         ids=[f"{m}.{a}" for m, a, _ in spans.TARGETS])
def test_traced_target_resolves(modname, attr, name):
    mod = importlib.import_module(f"{spans.PKG}.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(mod, cls_name).__dict__.get(meth)), attr
    else:
        assert callable(getattr(mod, attr, None)), attr
