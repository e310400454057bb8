"""The package namespace: names and submodules load on first use and
resolve to the objects their modules define."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import clusterdilog
from test_cli import cli_env


def run_fresh(script):
    """stdout of `script` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_bare_import_loads_no_submodule():
    assert run_fresh(
        "import sys, clusterdilog\n"
        "print(*[m for m in sys.modules if m.startswith('clusterdilog')])\n"
        "print(type(clusterdilog.torus).__name__, clusterdilog.torus.__name__)"
    ) == ["clusterdilog", "module", "clusterdilog.torus"]


def test_every_name_is_its_modules_object():
    assert len(clusterdilog.__all__) == 69
    for name in clusterdilog.__all__:
        module = importlib.import_module(
            f"clusterdilog.{clusterdilog._MODULE_OF[name]}")
        assert getattr(clusterdilog, name) is getattr(module, name), name


@pytest.mark.parametrize("first", [
    "from clusterdilog import PhibParams",
    "import clusterdilog.phib",
    "from clusterdilog.phib import phib",
    "import clusterdilog.cli; clusterdilog.cli.main(['phib'])",
])
def test_phib_stays_the_function(first):
    """Importing the submodule phib binds it on the package; the package
    keeps the function of that name."""
    assert run_fresh(
        "import io, contextlib, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {first}\n"
        "import clusterdilog\n"
        "from clusterdilog import phib\n"
        "print(phib is sys.modules['clusterdilog.phib'].phib,\n"
        "      clusterdilog.phib is phib, type(phib).__name__)"
    ) == ["True", "True", "function"]


def test_star_import_binds_all():
    namespace = {}
    exec("from clusterdilog import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == clusterdilog.__all__


def test_dir_lists_all():
    assert set(clusterdilog.__all__) <= set(dir(clusterdilog))


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        clusterdilog.no_such_name
    assert not hasattr(clusterdilog, "__no_such_dunder__")


ROOT = Path(__file__).resolve().parents[1]


def spans_table(name):
    """The literal value of a top-level assignment in perfbench/spans.py,
    read from the file's source, which stays untouched."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    value, = (ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [t.id for t in node.targets] == [name])
    return value


def test_traced_methods_exist():
    """perfbench/spans.py wraps the methods named in its METHODS table,
    looked up with inspect.getattr_static: a rename breaks the benchmark's
    tracer, so each name must be defined by its class (not `object`)."""
    methods = spans_table("METHODS")
    assert methods
    for layer, classes in methods.items():
        module = importlib.import_module(f"clusterdilog.{layer}")
        for cls_name, names in classes.items():
            cls = getattr(module, cls_name)
            for name in names:
                inspect.getattr_static(cls, name)
                assert any(name in vars(owner) for owner in cls.__mro__
                           if owner is not object), f"{cls_name}.{name}"


def test_per_layer_metrics_name_traced_functions():
    """A per-layer metric <layer>.<function>.<stat> reads the spans of a
    public function of clusterdilog.<layer>, unless <layer>.<function> is
    a short name from spans.py's RENAMED table: a renamed or deleted
    function would leave the metric silently empty."""
    layers = spans_table("LAYERS")
    short = set(spans_table("RENAMED").values())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    checked = []
    for metric in metrics:
        parts = metric["name"].split(".")
        if (len(parts) != 3 or parts[0] not in layers
                or ".".join(parts[:2]) in short):
            continue
        module = importlib.import_module(f"clusterdilog.{parts[0]}")
        fn = getattr(module, parts[1], None)
        assert (inspect.isfunction(fn) and not parts[1].startswith("_")
                and fn.__module__ == module.__name__), metric["name"]
        checked.append(metric["name"])
    assert "torus.invert.calls" in checked
    assert "qident.quantum_mutate.calls" in checked
