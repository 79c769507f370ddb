"""The benchmark tracer wraps names that the package must keep importable and
that the pipeline must keep calling."""

import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from specscale import DataMatrix, cli, generate_toy, save_matrix

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


def wide_matrix():
    """24 samples of 40 features, so a half split has n_train = 12 < m = 40."""
    rng = np.random.default_rng(0)
    values = rng.standard_normal((24, 40))
    values[:8, :3] += 1.5
    labels = np.array([1] * 8 + [2] * 16)
    return DataMatrix(values=values, feature_names=[f"g{j}" for j in range(40)], labels=labels)


@pytest.mark.parametrize(
    "command, data, sigma_grid",
    [
        ("cluster", generate_toy(120, seed=0), "0.1,1"),
        ("classify", generate_toy(120, seed=0), "0.1,1"),
        ("classify", wide_matrix(), "10,100"),
    ],
    ids=["cluster", "classify", "classify-wide"],
)
def test_every_required_span_is_called(monkeypatch, tmp_path, command, data, sigma_grid):
    # a traced benchmark run fails when a span records no call, or when a
    # result no longer carries what the tracer reads from it; a code path that
    # bypasses a traced name, or a changed return type, must fail here too,
    # for the wide pencils of gene-shaped data as much as for the tall toy's
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracing import TARGETS, Tracer

    tracer = Tracer()
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, tracer.wrap(span, getattr(module, attr)))

    path = tmp_path / "input.csv"
    save_matrix(data, str(path))
    argv = [
        command,
        "--data", str(path),
        "--output-dir", str(tmp_path),
        "--repetitions", "2",
        "--sigma-grid", sigma_grid,
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
