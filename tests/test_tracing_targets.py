"""The benchmark tracer wraps names that the package must keep importable and
that the pipeline must keep calling."""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from specscale import cli, generate_toy, save_matrix

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_name_exists_and_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracing import TARGETS

    assert TARGETS
    for module_name, attr, _ in TARGETS:
        assert module_name.split(".")[0] == "specscale"
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


# the attribute each span that ``tracing._annotate`` reads records from its result
ANNOTATED = {
    "similarity.pair_tensor": "bytes",
    "similarity.graph": "edges",
    "eigensolvers.pencil": "pairs",
    "embedding.embed": "eigenvalues",
}


@pytest.mark.parametrize("command", ["cluster", "classify"])
def test_every_required_span_is_called(monkeypatch, tmp_path, command):
    # a traced benchmark run fails when a span records no call, or when a
    # result no longer carries what the tracer reads from it; a code path that
    # bypasses a traced name, or a changed return type, must fail here too
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracing import TARGETS, Tracer

    tracer = Tracer()
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, tracer.wrap(span, getattr(module, attr)))

    data = tmp_path / "toy.csv"
    save_matrix(generate_toy(120, seed=0), str(data))
    argv = [
        command,
        "--data", str(data),
        "--output-dir", str(tmp_path),
        "--repetitions", "2",
        "--sigma-grid", "0.1,1",
    ]
    assert cli.main(argv) == 0
    calls = Counter(name for _, name, *_ in tracer.spans)
    skipped = "clustering.nn1" if command == "cluster" else "clustering.kmeans"
    required = {span for _, _, span in TARGETS} - {skipped}
    assert sorted(required - set(calls)) == []
    for _, name, _, _, _, attrs in tracer.spans:
        if name in ANNOTATED:
            assert attrs[ANNOTATED[name]], name
        else:
            assert attrs is None, name
