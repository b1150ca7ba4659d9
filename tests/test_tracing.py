"""The benchmark tracer patches names that exist where it looks for them.

``perfbench/spans.py`` wraps functions by replacing module and class
attributes; a refactor that moves or renames one of them fails here instead
of breaking traced benchmark runs.
"""

from __future__ import annotations

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in spans.PATCHES
        if attr not in owner.__dict__
    ]
    assert spans.PATCHES and not missing
