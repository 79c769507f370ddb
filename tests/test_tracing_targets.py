"""The benchmark tracer wraps names that the package must keep importable."""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_name_exists_and_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracing import TARGETS

    assert TARGETS
    for module_name, attr, _ in TARGETS:
        assert module_name.split(".")[0] == "specscale"
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
