"""The traced bench (`bench/spans.py`) wraps functions by module attribute;
a rename in `selection` or `cli` must fail here, not only in the bench."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_call_site_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    assert spans.CALL_SITES
    for module, attr, name in spans.CALL_SITES:
        assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr} is gone"
