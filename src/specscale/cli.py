"""Command-line harness for the supervised feature-scaling experiments.

Subcommands: ``generate`` (synthetic data to a file), ``cluster``,
``classify``, ``sweep``, ``loocv`` and ``inspect-scaling``; each takes only
the options it reads. A key=value config file can be supplied with --config;
its entries override command-line flags. A key is one of the subcommand's own
long option names, with '-' or '_' (``k-neighbors=3``, ``no_standardize=yes``).
A value parses as the flag's would and is checked against the flag's choices;
a flag that takes no value takes true/false/1/0/yes/no. A key the subcommand
does not declare is an error. A required option (--data, or generate's --out)
may be given either way. Outputs are a human-readable table on stdout plus
report.csv and manifest.json in the output directory. Exit code 0 on success,
1 on a toolkit error, 2 on usage errors, a missing required option among them.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .data import SplitSpec, generate_toy, load_matrix, save_matrix, split, standardize
from .errors import SpecScaleError
from .experiments import (
    DEFAULT_SIGMA_GRID,
    ExperimentConfig,
    fit_unit_scaling,
    loocv,
    reports_to_csv,
    reports_to_manifest,
    run_pipeline,
    sweep,
)
from .scaling import scaling_table


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
        value = float(text)
    except ValueError:
        value = None
    # at or above 0 the target is one class's indicator or the constant vector
    if value is None or not -math.inf < value < 0.0:
        raise argparse.ArgumentTypeError(
            "fiedler-negative must be a finite number or 'auto', a number below 0"
        )
    return value


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


# every option that more than one subcommand reads, declared once
_SHARED = {
    "--data": {"help": "delimited text file with a 'label' column (required)"},
    "--output-dir": {"default": ".", "help": "where report.csv and manifest.json go"},
    "--sigma-grid": {"type": _parse_float_list, "default": DEFAULT_SIGMA_GRID,
                     "help": "comma-separated kernel widths (default 0.01,0.1,1,10,100)"},
    "--k-neighbors": {"type": int, "default": 7},
    "--fiedler-negative": {"type": _parse_fiedler, "default": -0.2,
                           "help": "value for the second class, or 'auto'"},
    "--fraction": {"type": float, "default": 0.5, "help": "training fraction"},
    "--repetitions": {"type": int, "default": 10},
    "--seed": {"type": int, "default": 0},
    "--ell": {"type": int, "default": 1, "choices": (1, 2, 3), "help": "embedding dimension"},
    "--no-standardize": {"action": "store_true",
                         "help": "skip the mean-0 / variance-1 normalization"},
    "--no-feature-scaling": {"action": "store_true",
                             "help": "run the unsupervised baseline (all factors = 1)"},
    "--config": {"help": "key=value file; entries override flags"},
}

# what cluster, classify, sweep and loocv all read
_PIPELINE = ("--data", "--output-dir", "--sigma-grid", "--k-neighbors", "--fiedler-negative",
             "--no-standardize", "--no-feature-scaling", "--config")


def _add_command(sub, name, summary, func, shared, own=None, required=("data",)):
    """Add subcommand ``name`` taking the ``shared`` options named and its
    ``own`` ones (flag -> add_argument keywords). Its options go into the
    namespace as ``options``, by config key, for _apply_config_file, and the
    subcommand's parser as ``parser``, whose usage a later usage error prints.
    A flag is taken only in full, as a key is: sweep's --fractions is not
    --fraction. The options keyed ``required`` may be given by flag or by
    config file, so _check_required, not argparse, asks for them once the
    file is applied."""
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    actions = [p.add_argument(flag, **_SHARED[flag]) for flag in shared]
    actions += [p.add_argument(flag, **kwargs) for flag, kwargs in (own or {}).items()]
    p.set_defaults(func=func, options={a.dest: a for a in actions if a.dest != "config"},
                   required=required, parser=p)


def _parse_entry(action, text):
    """A config value, parsed as option ``action`` parses its flag's value; a
    flag that takes no value takes a boolean word."""
    if action.nargs == 0:
        return _parse_bool(text)
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise argparse.ArgumentTypeError(f"expected one of {list(action.choices)}")
    return value


def _apply_config_file(args):
    if args.config is None:
        return
    with open(args.config, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            # a tab is a value (delimiter=<tab>), so only spaces are trimmed
            line = line.rstrip("\r\n").strip(" ")
            if not line.strip() or line.startswith("#"):
                continue
            where = f"{args.config}:{lineno}"
            if "=" not in line:
                raise SpecScaleError(f"{where}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in args.options:
                raise SpecScaleError(f"{where}: unknown key '{key}' for {args.command}")
            try:
                setattr(args, key, _parse_entry(args.options[key], value.strip(" ")))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise argparse.ArgumentTypeError(f"{where}: {key}: {exc}") from exc


def _check_required(args):
    for key in args.required:
        if getattr(args, key) is None:
            raise argparse.ArgumentTypeError(
                f"{args.options[key].option_strings[0]} is required, as a flag or as "
                f"'{key}=' in the --config file"
            )


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


def _declared(args, **dests):
    """``{field: args.<dest>}`` for each ``dest`` the subcommand declares."""
    return {field: getattr(args, dest) for field, dest in dests.items() if dest in args.options}


def _build_config(args, task):
    # a field whose option the subcommand does not declare keeps its default
    def build():
        config = ExperimentConfig(
            task=task,
            sigma_grid=tuple(args.sigma_grid),
            k_neighbors=args.k_neighbors,
            fiedler_negative=args.fiedler_negative,
            feature_scaling=not args.no_feature_scaling,
            **_declared(args, ell="ell"),
        )
        spec = _declared(args, train_fraction="fraction", seed="seed", repetitions="repetitions")
        return dataclasses.replace(config, split=dataclasses.replace(config.split, **spec))

    return _usage_errors(build)


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
    data = _usage_errors(lambda: generate_toy(n_samples=args.samples, seed=args.seed))
    save_matrix(data, args.out, delimiter=args.delimiter)
    print(f"wrote {data.n_samples}x{data.n_features} matrix to {args.out}")
    return 0


def _cmd_pipeline(args):
    """``cluster``, ``classify`` and ``loocv``: one protocol, one report."""
    config = _build_config(args, "cluster" if args.command == "cluster" else "classify")
    protocol = loocv if args.command == "loocv" else run_pipeline
    _emit([protocol(config, _load_data(args))], args.output_dir)
    return 0


def _cmd_sweep(args):
    config = _build_config(args, args.task)
    _usage_errors(lambda: [SplitSpec(fraction) for fraction in args.fractions])
    _emit(sweep(config, args.fractions, _load_data(args)), args.output_dir)
    return 0


def _cmd_inspect_scaling(args):
    spec = _usage_errors(lambda: SplitSpec(args.fraction, args.seed, repetitions=1))
    if not 0.0 < args.sigma < math.inf:
        raise argparse.ArgumentTypeError(f"sigma must be positive and finite, got {args.sigma}")
    if args.k_neighbors < 1:
        raise argparse.ArgumentTypeError("k_neighbors must be at least 1")
    data = _load_data(args)
    train, _ = split(data, spec, repetition=0)
    # the pipeline's fit: the pencil at unit width, factors t, s = 2 sigma^2 t
    scaling = fit_unit_scaling(data.values[train], data.labels[train], args.fiedler_negative,
                               args.sigma, args.k_neighbors)
    table = scaling_table(2.0 * args.sigma**2 * scaling.factors, data.feature_names)
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="specscale",
        description="Supervised feature scaling for spectral clustering and classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "generate", "write a synthetic benchmark dataset", _cmd_generate,
                 ("--seed", "--config"),
                 {"--samples": {"type": int, "default": 800},
                  "--out": {"help": "file to write (required)"},
                  "--delimiter": {"type": _parse_delimiter, "default": ",",
                                  "help": "',' (default) or a tab"}},
                 required=("out",))
    _add_command(sub, "cluster", "spectral clustering with learned scaling", _cmd_pipeline,
                 _PIPELINE + ("--fraction", "--repetitions", "--seed"))
    _add_command(sub, "classify", "transductive 1-NN classification", _cmd_pipeline,
                 _PIPELINE + ("--fraction", "--repetitions", "--seed", "--ell"))
    _add_command(sub, "sweep", "repeat a task over several training fractions", _cmd_sweep,
                 _PIPELINE + ("--repetitions", "--seed", "--ell"),
                 {"--task": {"choices": ("cluster", "classify"), "default": "classify"},
                  "--fractions": {"type": _parse_float_list,
                                  "default": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4,
                                              0.45, 0.5]}})
    _add_command(sub, "loocv", "leave-one-out classification", _cmd_pipeline,
                 _PIPELINE + ("--ell",))
    _add_command(sub, "inspect-scaling", "emit the learned factor table", _cmd_inspect_scaling,
                 ("--data", "--fraction", "--seed", "--k-neighbors", "--fiedler-negative",
                  "--no-standardize", "--config"),
                 {"--sigma": {"type": float, "default": 1.0, "help": "kernel width: the table "
                              "reports s = 2 sigma^2 t; 'auto' uses the unscaled graph at sigma"},
                  "--out": {}})
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _apply_config_file(args)
        _check_required(args)
        return args.func(args)
    except argparse.ArgumentTypeError as exc:  # a bad or missing option: exit code 2
        args.parser.error(str(exc))
    except (SpecScaleError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
