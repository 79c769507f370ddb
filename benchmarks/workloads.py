"""The three fixed benchmark workloads and their seeded input generators.

Each workload is one ``specscale`` CLI invocation on an input file that is
written before timing starts. The workload seed sets both the data and the
CLI's ``--seed`` (train/test splits and k-means restarts), so one seed gives
one input and one expected output. Why each workload is there is recorded in
BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from specscale.data import DataMatrix, generate_toy, save_matrix
from tracing import TARGETS


def wide_data(seed, n_per_class=(48, 96), n_features=2000, n_informative=3, gap=1.5):
    """Gene-expression-shaped data: a few planted features among N(0, 1) noise.

    Class 1 is shifted by ``gap`` on the first ``n_informative`` features;
    every other entry is N(0, 1). Rows are shuffled. Deterministic per seed.
    """
    n1, n2 = n_per_class
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n1 + n2, n_features))
    values[:n1, :n_informative] += gap
    labels = np.concatenate([np.ones(n1, dtype=int), np.full(n2, 2, dtype=int)])
    perm = rng.permutation(n1 + n2)
    names = [f"g{j:04d}" for j in range(1, n_features + 1)]
    return DataMatrix(values=values[perm], feature_names=names, labels=labels[perm])


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # specscale subcommand
    repetitions: int
    sigma_grid: tuple
    extra: tuple          # further CLI flags
    make_data: object     # (seed, size) -> DataMatrix

    def write_input(self, path, seed, size):
        save_matrix(self.make_data(seed, size), str(path))

    def argv(self, data_path, output_dir, seed):
        return [
            self.command,
            "--data", str(data_path),
            "--output-dir", str(output_dir),
            "--seed", str(seed),
            "--repetitions", str(self.repetitions),
            "--sigma-grid", ",".join(repr(float(s)) for s in self.sigma_grid),
            *self.extra,
        ]

    @property
    def expected_rows(self):
        return self.repetitions * len(self.sigma_grid)

    @property
    def spans(self):
        """Span names a traced run of this workload must record at least once."""
        skipped = "clustering.nn1" if self.command == "cluster" else "clustering.kmeans"
        return {span for _, _, span in TARGETS} - {skipped}


# "tiny" sizes run the same code path in seconds; the benchmark's self-tests use them.
_TOY_SIZES = {"full": 800, "tiny": 60}
_LARGE_SIZES = {"full": 3200, "tiny": 80}
_WIDE_SHAPES = {"full": ((48, 96), 2000), "tiny": ((8, 16), 60)}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy-cluster",
            command="cluster",
            repetitions=4,  # not the CLI's 10, so that several workers fit in one run
            sigma_grid=(0.01, 0.1, 1.0, 10.0, 100.0),
            extra=(),
            make_data=lambda seed, size: generate_toy(_TOY_SIZES[size], seed=seed),
        ),
        Workload(
            name="large-classify",
            command="classify",
            repetitions=1,
            sigma_grid=(1.0,),
            extra=("--ell", "2", "--fiedler-negative", "auto"),
            make_data=lambda seed, size: generate_toy(_LARGE_SIZES[size], seed=seed),
        ),
        # sigma=1 overflows the kernel on most seeds: the solver returns arbitrary
        # signed factors for wide pencils (a known defect), and exp(-s^T x / 2)
        # exceeds the float range. sigma=100 keeps the pencil shape and the
        # defect (chance-level RI) without the crash. Two repetitions average
        # that RI over two splits, so that it varies less between seeds.
        Workload(
            name="wide-pencil",
            command="classify",
            repetitions=2,
            sigma_grid=(100.0,),
            extra=(),
            make_data=lambda seed, size: wide_data(
                seed, _WIDE_SHAPES[size][0], _WIDE_SHAPES[size][1]
            ),
        ),
    )
}
