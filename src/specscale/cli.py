"""Command-line harness for the supervised feature-scaling experiments.

Subcommands: ``generate`` (synthetic data to a file), ``cluster``,
``classify``, ``sweep``, ``loocv`` and ``inspect-scaling``. A key=value config
file can be supplied with --config; its entries override command-line flags.
Outputs are a human-readable table on stdout plus report.csv and manifest.json
in the output directory. Exit code 0 on success, 1 on a toolkit error, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .data import SplitSpec, generate_toy, load_matrix, save_matrix, split, standardize
from .errors import SpecScaleError
from .experiments import (
    DEFAULT_SIGMA_GRID,
    ExperimentConfig,
    loocv,
    reports_to_csv,
    reports_to_manifest,
    run_pipeline,
    sweep,
    training_target,
)
from .scaling import assemble_pencil, learn_scaling, scaling_table
from .similarity import KernelParams


def _parse_float_list(text):
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got '{text}'")
    if not values:
        raise argparse.ArgumentTypeError("list must not be empty")
    return values


def _parse_fiedler(text):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("fiedler-negative must be a number or 'auto'")


def _parse_delimiter(text):
    # load_matrix tells only these two apart, so any other would write a file
    # that cluster and classify cannot read
    if text not in (",", "\t"):
        raise argparse.ArgumentTypeError(f"delimiter must be ',' or a tab, got {text!r}")
    return text


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text):
    if text.lower() not in _BOOLEANS:
        raise argparse.ArgumentTypeError(f"expected true/false/1/0/yes/no, got '{text}'")
    return _BOOLEANS[text.lower()]


def _add_common(parser, classification):
    parser.add_argument("--data", required=True, help="delimited text file with a 'label' column")
    parser.add_argument("--output-dir", default=".", help="where report.csv and manifest.json go")
    parser.add_argument("--sigma-grid", type=_parse_float_list,
                        default=list(DEFAULT_SIGMA_GRID),
                        help="comma-separated kernel widths (default 0.01,0.1,1,10,100)")
    parser.add_argument("--k-neighbors", type=int, default=7)
    parser.add_argument("--fiedler-negative", type=_parse_fiedler, default=-0.2,
                        help="value for the second class, or 'auto'")
    parser.add_argument("--fraction", type=float, default=0.5, help="training fraction")
    parser.add_argument("--repetitions", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kmeans-restarts", type=int, default=20)
    parser.add_argument("--no-standardize", action="store_true",
                        help="skip the mean-0 / variance-1 normalization")
    parser.add_argument("--no-feature-scaling", action="store_true",
                        help="run the unsupervised baseline (all factors = 1)")
    parser.add_argument("--config", help="key=value file; entries override flags")
    if classification:
        parser.add_argument("--ell", type=int, default=1, choices=(1, 2, 3),
                            help="embedding dimension")


_CONFIG_TYPES = {
    "data": str,
    "output_dir": str,
    "sigma_grid": _parse_float_list,
    "k_neighbors": int,
    "fiedler_negative": _parse_fiedler,
    "fraction": float,
    "repetitions": int,
    "seed": int,
    "kmeans_restarts": int,
    "ell": int,
    "samples": int,
    "out": str,
    "delimiter": _parse_delimiter,
    "fractions": _parse_float_list,
    "no_standardize": _parse_bool,
    "no_feature_scaling": _parse_bool,
    "sigma": float,
}


def _apply_config_file(args):
    if getattr(args, "config", None) is None:
        return args
    with open(args.config, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            # a tab is a value (delimiter=<tab>), so only spaces are trimmed
            line = line.rstrip("\r\n").strip(" ")
            if not line.strip() or line.startswith("#"):
                continue
            if "=" not in line:
                raise SpecScaleError(f"{args.config}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise SpecScaleError(f"{args.config}:{lineno}: unknown key '{key}'")
            if not hasattr(args, key):
                raise SpecScaleError(
                    f"{args.config}:{lineno}: key '{key}' does not apply to this command"
                )
            try:
                setattr(args, key, _CONFIG_TYPES[key](value.strip(" ")))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise argparse.ArgumentTypeError(f"{args.config}:{lineno}: {key}: {exc}") from exc
    return args


def _load_data(args):
    data = load_matrix(args.data)
    if data.labels is None:
        raise SpecScaleError(f"{args.data} has no 'label' column")
    if not args.no_standardize:
        data = standardize(data)
    return data


def _usage_errors(build):
    """``build()``, with its ValueError raised as a usage error (exit code 2)."""
    try:
        return build()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_config(args, task):
    return _usage_errors(
        lambda: ExperimentConfig(
            task=task,
            ell=getattr(args, "ell", 1),
            sigma_grid=tuple(args.sigma_grid),
            k_neighbors=args.k_neighbors,
            fiedler_negative=args.fiedler_negative,
            split=SplitSpec(
                train_fraction=args.fraction, seed=args.seed, repetitions=args.repetitions
            ),
            kmeans_restarts=args.kmeans_restarts,
            seed=args.seed,
            feature_scaling=not args.no_feature_scaling,
        )
    )


def _emit(reports, output_dir):
    os.makedirs(output_dir, exist_ok=True)
    with open(os.path.join(output_dir, "report.csv"), "w", encoding="utf-8", newline="") as f:
        f.write(reports_to_csv(reports))
    with open(os.path.join(output_dir, "manifest.json"), "w", encoding="utf-8", newline="") as f:
        f.write(reports_to_manifest(reports))
    for report in reports:
        print(report.format_table())
    if all(r.selected_sigma is None for r in reports):
        raise SpecScaleError("every run failed; see report.csv for the errors")


def _cmd_generate(args):
    data = generate_toy(n_samples=args.samples, seed=args.seed)
    save_matrix(data, args.out, delimiter=args.delimiter)
    print(f"wrote {data.n_samples}x{data.n_features} matrix to {args.out}")
    return 0


def _cmd_cluster(args):
    config = _build_config(args, "cluster")
    report = run_pipeline(config, _load_data(args))
    _emit([report], args.output_dir)
    return 0


def _cmd_classify(args):
    config = _build_config(args, "classify")
    report = run_pipeline(config, _load_data(args))
    _emit([report], args.output_dir)
    return 0


def _cmd_sweep(args):
    config = _build_config(args, args.task)
    _usage_errors(lambda: [SplitSpec(fraction) for fraction in args.fractions])
    reports = sweep(config, args.fractions, _load_data(args))
    _emit(reports, args.output_dir)
    return 0


def _cmd_loocv(args):
    config = _build_config(args, "classify")
    report = loocv(config, _load_data(args))
    _emit([report], args.output_dir)
    return 0


def _cmd_inspect_scaling(args):
    spec = _usage_errors(lambda: SplitSpec(args.fraction, args.seed, repetitions=1))
    _usage_errors(lambda: KernelParams(args.sigma))
    data = _load_data(args)
    train, _ = split(data, spec, repetition=0)
    v = training_target(data.values[train], data.labels[train], args.fiedler_negative, args.sigma)
    pencil = assemble_pencil(data.values[train], v, args.sigma)
    scaling = learn_scaling(pencil)
    table = scaling_table(scaling.factors, data.feature_names)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            f.write(table)
    else:
        sys.stdout.write(table)
    print(
        f"# mu={scaling.eigenvalue!r} residual={scaling.residual!r} "
        f"constraint_violation={scaling.constraint_violation!r} "
        f"certified={str(scaling.certified).lower()}",
        file=sys.stderr,
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specscale",
        description="Supervised feature scaling for spectral clustering and classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic benchmark dataset")
    p.add_argument("--samples", type=int, default=800)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--delimiter", type=_parse_delimiter, default=",",
                   help="',' (default) or a tab")
    p.add_argument("--config", help="key=value file; entries override flags")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("cluster", help="spectral clustering with learned scaling")
    _add_common(p, classification=False)
    p.set_defaults(func=_cmd_cluster, ell=1)

    p = sub.add_parser("classify", help="transductive 1-NN classification")
    _add_common(p, classification=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", help="repeat a task over several training fractions")
    _add_common(p, classification=True)
    p.add_argument("--task", choices=("cluster", "classify"), default="classify")
    p.add_argument("--fractions", type=_parse_float_list,
                   default=[0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5])
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("loocv", help="leave-one-out classification")
    _add_common(p, classification=True)
    p.set_defaults(func=_cmd_loocv)

    p = sub.add_parser("inspect-scaling", help="emit the learned factor table")
    p.add_argument("--data", required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fiedler-negative", type=_parse_fiedler, default=-0.2)
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--out")
    p.add_argument("--config", help="key=value file; entries override flags")
    p.set_defaults(func=_cmd_inspect_scaling)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args)
        return args.func(args)
    except argparse.ArgumentTypeError as exc:  # a bad option value: exit code 2
        parser.error(str(exc))
    except SpecScaleError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
