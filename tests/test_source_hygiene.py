"""Static checks of the package source: no unused imports, no unused private
names, no public function that no other module reads, no public method or
property that nothing reads, no unread config fields, a consistent public
surface, and neither scipy, numpy.ma nor numpy.random loaded by a run."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import specscale

PACKAGE = Path(specscale.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Name bound by each import statement in the module (``__future__`` aside)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree):
    """Every name the module reads, including names inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(imported_names(tree) - used_names(tree)) == []


def private_definitions(tree):
    """Module-level private functions, classes and constants (``_name``)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_every_private_name_it_defines(path):
    # a private helper nothing in its own module reads is dead code
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert sorted(private_definitions(tree) - read) == []


def read_names(tree):
    """Names the module reads, bare (``f``) or as an attribute (``m.f``), by a
    call or a reference, with an ``import ... as`` alias read as its source."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }
    return read | {aliases[name] for name in read & aliases.keys()}


def test_every_public_function_is_read_by_another_module():
    # a public helper that no other module of the package calls or passes on
    # earns no place there, exported or not; ``main`` is the console entry point
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    orphans = []
    for stem, tree in trees.items():
        read = set().union(*(read_names(t) for s, t in trees.items() if s != stem))
        orphans.extend(
            f"{stem}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and node.name not in read | {"main"}
        )
    assert orphans == []


def test_every_public_method_and_property_is_read():
    # a public method, classmethod or property of a package class must be read
    # by attribute name in the package outside its own definition, or by the
    # benchmark, whose tracer is the one reader of ``SymmetricCSR.nnz``
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    members = [
        (cls.name, node)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]
    benchmarks = [ast.parse(path.read_text(encoding="utf-8"))
                  for path in sorted((REPO / "benchmarks").glob("*.py"))]
    orphans = []
    for cls, member in members:
        own = {id(node) for node in ast.walk(member)}
        read = any(
            isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr == member.name and id(node) not in own
            for tree in trees + benchmarks
            for node in ast.walk(tree)
        )
        if not read:
            orphans.append(f"{cls}.{member.name}")
    assert orphans == []


def test_every_experiment_config_field_is_read():
    # a field that only its own dataclass reads, to validate it or echo it into
    # the manifest, changes nothing a run does. The package names an
    # ExperimentConfig ``config``, so a read is ``config.<field>`` outside
    # ``__post_init__`` and ``to_dict``.
    fields = {f.name for f in dataclasses.fields(specscale.ExperimentConfig)}
    read = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "ExperimentConfig"
            for method in cls.body
            if isinstance(method, ast.FunctionDef)
            and method.name in ("__post_init__", "to_dict")
            for node in ast.walk(method)
        }
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "config"
            and id(node) not in own
        }
    assert sorted(fields - read) == []


def test_public_surface_matches_all():
    for name in specscale.__all__:
        assert hasattr(specscale, name), name
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    public = {name for name in imported_names(tree) if not name.startswith("_")}
    assert sorted(public - set(specscale.__all__)) == []


def test_no_module_imports_scipy():
    # scipy is a test oracle only; numpy carries the whole pipeline
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders.extend(f"{path.name}: {m}" for m in modules if m.split(".")[0] == "scipy")
    assert offenders == []


@pytest.fixture(scope="module")
def exponent_table(tmp_path_factory):
    """A 420-sample toy written with an exponent in every feature cell, which
    the decimal reader reads."""
    toy = specscale.generate_toy(420, seed=0)
    path = tmp_path_factory.mktemp("exponents") / "toy.csv"
    rows = ["f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,label"] + [
        ",".join("%.17e" % x for x in row) + f",{label}"
        for row, label in zip(toy.values, toy.labels)
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def loaded_after_runs(tmp_path_factory, exponent_table):
    """The watched modules loaded after ``import specscale.cli``, then after
    ``cluster`` and after ``classify``, run in turn in one fresh interpreter on
    a ``generate`` toy, and after a ``classify`` of the toy with exponent
    cells. 420 samples is above the dense limit, so the embedding takes
    Lanczos. Watched are scipy, numpy.ma, and numpy.random with what it loads:
    secrets, hashlib and OpenSSL's _hashlib. ``generate`` loads numpy.random,
    so the toy is written by another process."""
    script = textwrap.dedent(
        """
        import json, sys
        def watched():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                          or m.split(".")[:2] in (["numpy", "ma"], ["numpy", "random"])
                          or m in ("secrets", "hashlib", "_hashlib"))
        from specscale.cli import main
        data, out, exponents = sys.argv[1], sys.argv[2], sys.argv[3]
        loaded = {"import": watched()}
        for task, path in (("cluster", data), ("classify", data), ("exponents", exponents)):
            argv = ["classify" if task == "exponents" else task, "--data", path,
                    "--output-dir", out, "--sigma-grid", "1", "--repetitions", "1"]
            assert main(argv) == 0
            loaded[task] = watched()
        print(json.dumps(loaded))
        """
    )
    tmp_path = tmp_path_factory.mktemp("run")
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    data = str(tmp_path / "toy.csv")
    subprocess.run(
        [sys.executable, "-m", "specscale.cli", "generate", "--samples", "420", "--seed", "0",
         "--out", data],
        capture_output=True, text=True, env=env, check=True,
    )
    done = subprocess.run(
        [sys.executable, "-c", script, data, str(tmp_path / "run"), str(exponent_table)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_a_run_loads_no_scipy(loaded_after_runs):
    assert [m for m in loaded_after_runs["classify"] if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("task", ["cluster", "classify", "exponents"])
def test_a_run_loads_no_numpy_ma(loaded_after_runs, task):
    # numpy's unique imports numpy.ma; the package takes classes from a sort
    assert [m for m in loaded_after_runs[task] if m.startswith("numpy.ma")] == []


@pytest.mark.parametrize("task", ["import", "cluster", "classify", "exponents"])
def test_a_run_loads_no_numpy_random(loaded_after_runs, task):
    # numpy.random maps nine extension modules and, through secrets, OpenSSL's
    # libcrypto; the package draws its splits and Lanczos start from pcg64
    assert [m for m in loaded_after_runs[task]
            if m.startswith("numpy.random") or m in ("secrets", "hashlib", "_hashlib")] == []


def test_the_exponent_table_takes_the_decimal_reader(exponent_table):
    from specscale.data import _read_decimal

    assert _read_decimal(exponent_table) is not None
