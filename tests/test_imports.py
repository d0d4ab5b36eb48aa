"""What a fresh interpreter loads: each subcommand imports only what it runs,
every public name resolves to its owning module's object, and no module
imports another's private names."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavescale

_SRC = str(Path(wavescale.__file__).resolve().parent.parent)


def _fresh(code):
    """Run ``code`` in a new interpreter; return its last stdout line, parsed
    as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_simulate_loads_no_ingest_config_or_classification(tmp_path):
    out = tmp_path / "sim.csv"
    rc, loaded = _fresh(f"""
import json, sys
from wavescale import cli
rc = cli.main(["simulate", "--h", "0.3,0.7", "--reps", "4", "--n", "64",
               "--out", {str(out)!r}])
print(json.dumps([rc, sorted(m for m in (
    "yaml", "wavescale.config", "wavescale.classify", "wavescale.pipeline",
    "wavescale.synthetic", "concurrent.futures", "numpy.ma")
    if m in sys.modules)]))
""")
    assert rc == 0 and out.exists()
    assert loaded == []


def test_extract_and_classify_load_no_yaml_or_config(tmp_path):
    """``extract`` loads neither YAML, the config loader nor the
    classifiers, and ``classify`` neither YAML nor the config loader: the
    settings parsers they share with ``pipeline`` live in the modules each
    command runs anyway."""
    matrix, labels = tmp_path / "m.csv", tmp_path / "l.csv"
    walks = np.random.default_rng(0).standard_normal((12, 256)).cumsum(axis=1)
    matrix.write_text("mz," + ",".join(f"s{j}" for j in range(12)) + "\n"
                      + "".join(f"{i + 1}.0," + ",".join(map(repr, row)) + "\n"
                                for i, row in enumerate(walks.T.tolist())),
                      encoding="utf-8")
    labels.write_text("sample_id,label\n" + "".join(
        f"s{j},{j % 2}\n" for j in range(12)), encoding="utf-8")
    feats = tmp_path / "f.csv"
    watched = ("yaml", "wavescale.config", "wavescale.classify")
    loaded = {}
    for command, argv in {
            "extract": ["extract", "--matrix", str(matrix), "--labels",
                        str(labels), "--method", "dwt", "--depth", "4",
                        "--window-len", "64", "--stride", "64",
                        "--out", str(feats)],
            "classify": ["classify", "--features", str(feats), "--p", "2",
                         "--repeats", "3", "--classifiers", "logistic",
                         "--out-dir", str(tmp_path / "out")]}.items():
        loaded[command] = _fresh(f"""
import json, sys
from wavescale import cli
rc = cli.main({argv!r})
print(json.dumps([rc, sorted(m for m in {watched!r} if m in sys.modules)]))
""")
    assert loaded["extract"] == [0, []]
    assert loaded["classify"] == [0, ["wavescale.classify"]]


def test_public_names_are_their_owning_modules_objects():
    report = _fresh("""
import importlib, json, sys, types
import wavescale
checks = {"best_basis before": isinstance(wavescale.best_basis,
                                          types.FunctionType),
          "estimators not yet loaded": "wavescale.estimators" not in sys.modules}
import wavescale.best_basis
import wavescale.estimators
checks["best_basis after"] = isinstance(wavescale.best_basis,
                                        types.FunctionType)
wrong = []
for name in wavescale.__all__:
    owner = importlib.import_module("wavescale." + wavescale._OWNER[name])
    obj = getattr(wavescale, name)
    defined_in = getattr(obj, "__module__", owner.__name__)
    if obj is not getattr(owner, name) or (
            callable(obj) and defined_in != owner.__name__):
        wrong.append(name)
print(json.dumps([checks, wrong, sorted(set(wavescale.__all__)) ==
                  sorted(wavescale.__all__)]))
""")
    checks, wrong, distinct = report
    assert checks == {"best_basis before": True,
                      "estimators not yet loaded": True,
                      "best_basis after": True}
    assert wrong == []
    assert distinct


def test_no_module_imports_another_modules_private_names():
    """A name one module takes from another is public: no relative
    ``from .x import _name`` (a dunder such as ``__version__`` aside)."""
    private = []
    for path in sorted(Path(wavescale.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")
                            and not alias.name.endswith("__")]
    assert private == []


def _prefix_bound(node):
    """The ``i`` of ``y[:i]``, or None if ``node`` is no prefix slice."""
    if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)
            and node.slice.lower is None):
        return node.slice.upper
    return None


def repeat_scans(package_dir) -> list:
    """``file:line`` of each hand-written repeat scan in the modules of
    ``package_dir``, each quadratic when run for every i:
    - an ``x in y[:i]`` (or ``not in``) test;
    - a comprehension or generator over ``y[:i]``, ``i`` (or a name in
      its expression) being a loop variable of the module;
    - a comparison whose left side is a ``.index(...)`` call.
    A ``for`` statement over a prefix slice is not one."""
    scans = []
    for path in sorted(Path(package_dir).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loop_names = {name.id for node in ast.walk(tree)
                      if isinstance(node, (ast.For, ast.comprehension))
                      for name in ast.walk(node.target)
                      if isinstance(name, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                scans += [f"{path.name}:{node.lineno}"
                          for op, right in zip(node.ops, node.comparators)
                          if isinstance(op, (ast.In, ast.NotIn))
                          and _prefix_bound(right) is not None]
                if (isinstance(node.left, ast.Call)
                        and isinstance(node.left.func, ast.Attribute)
                        and node.left.func.attr == "index"):
                    scans.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                scans += [f"{path.name}:{node.lineno}"
                          for gen in node.generators
                          if _prefix_bound(gen.iter) is not None
                          and any(isinstance(name, ast.Name)
                                  and name.id in loop_names for name
                                  in ast.walk(_prefix_bound(gen.iter)))]
    return scans


def test_no_membership_test_scans_a_slice():
    """A list is held to name each value once by ``utils.first_repeat``
    alone: no prefix scan, comprehension over a prefix or ``.index``
    comparison, which is quadratic when run for each i."""
    assert repeat_scans(Path(wavescale.__file__).parent) == []


@pytest.mark.parametrize("scan", [
    "found = x in y[:i]",
    "found = x not in y[:i]",
    "found = any(p == x for p in y[:i])",
    "found = [p for p in y[:i + 1] if p == x]",
    "found = {p: 1 for p in y[:i]}",
    "found = y.index(x) < i",
], ids=["in", "not-in", "generator", "list-comp", "dict-comp", "index"])
def test_repeat_scan_guard_flags_a_hand_written_scan(tmp_path, scan):
    (tmp_path / "m.py").write_text(
        f"for i, x in enumerate(y):\n    {scan}\n", encoding="utf-8")
    assert repeat_scans(tmp_path) == ["m.py:2"]


def test_repeat_scan_guard_passes_a_scan_run_once(tmp_path):
    """A ``for`` statement over a prefix, a comprehension over a prefix
    whose bound is no loop variable, and a suffix slice are no scans."""
    (tmp_path / "m.py").write_text(
        "for lo, hi in plan[:i]:\n    found = lo <= x <= hi\n"
        "head = [c.lower() for c in fields[:len(header)]]\n"
        "found = x in y[1:]\n", encoding="utf-8")
    assert repeat_scans(tmp_path) == []
