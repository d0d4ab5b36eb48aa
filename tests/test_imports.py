"""What a fresh interpreter loads: each subcommand imports only what it runs,
and every public name resolves to its owning module's object."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    "wavescale.synthetic", "concurrent.futures") if m in sys.modules)]))
""")
    assert rc == 0 and out.exists()
    assert loaded == []


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
