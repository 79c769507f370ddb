"""In-memory span tracing around the calls between ``specscale`` modules.

The package is not modified: ``install`` replaces the name a calling module
imported (``specscale.experiments.build_similarity`` and so on) with a wrapper
that records one span per call. Spans are kept in memory and handed back as
plain lists when the run is over.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (calling module, imported name, span name). The span is named after the layer
# that does the work; the module is the one whose call is intercepted.
TARGETS = (
    ("specscale.cli", "load_matrix", "data.load"),
    ("specscale.cli", "standardize", "data.standardize"),
    ("specscale.cli", "run_pipeline", "experiments.run_pipeline"),
    ("specscale.cli", "reports_to_csv", "cli.report"),
    ("specscale.cli", "reports_to_manifest", "cli.report"),
    ("specscale.experiments", "pairwise_sqdiff", "similarity.pair_tensor"),
    ("specscale.experiments", "build_similarity", "similarity.graph"),
    ("specscale.experiments", "assemble_pencil", "scaling.assemble"),
    ("specscale.experiments", "learn_scaling", "scaling.learn"),
    ("specscale.experiments", "linearization_violation_fraction", "scaling.linviol"),
    ("specscale.experiments", "embed", "embedding.embed"),
    ("specscale.experiments", "kmeans", "clustering.kmeans"),
    ("specscale.experiments", "nn1_classify", "clustering.nn1"),
    ("specscale.experiments", "rand_index", "metrics.score"),
    ("specscale.experiments", "nmi_score", "metrics.score"),
    ("specscale.scaling", "pairwise_sqdiff", "similarity.pair_tensor"),
    ("specscale.scaling", "rect_pencil_eig", "eigensolvers.pencil"),
    ("specscale.scaling", "pencil_residual", "eigensolvers.residual"),
    ("specscale.eigensolvers", "pencil_residual", "eigensolvers.residual"),
    ("specscale.embedding", "sym_gen_eig", "eigensolvers.symeig"),
)

ROOT_SPAN = "cli.main"


def _annotate(name, result):
    """Counts recorded at the layer boundary, from the call's result."""
    if name == "similarity.pair_tensor":
        return {"bytes": int(result.sqdiff.nbytes)}
    if name == "similarity.graph":
        return {"edges": int(result.weights.nnz)}
    if name == "eigensolvers.pencil":
        return {"pairs": len(result)}
    if name == "embedding.embed":
        return {"eigenvalues": [float(v) for v in result.eigenvalues]}
    return None


class Tracer:
    """Records spans (id, name, parent id, start, end, attrs) in call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [span_id, name, parent, self.clock(), None, None]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[4] = self.clock()
            self._stack.pop()
        record[5] = _annotate(name, result)
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self):
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(span, getattr(module, attr)))


def self_times(spans):
    """Per span name: (total self time, call count).

    A span's self time is its duration minus the part of its interval that its
    child spans cover; overlapping children are merged before subtracting.
    ``spans`` holds (id, name, parent, start, end, ...) records.
    """
    children = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            children[span[2]].append(span)
    totals = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        span_id, name, _, start, end = span[:5]
        covered = 0.0
        cursor = start
        for child in sorted(children[span_id], key=lambda c: c[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
        calls[name] += 1
    return dict(totals), dict(calls)
