"""The benchmark's tracer wraps expanderlab functions by name; they must exist."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_exists():
    tracing = _load_tracing()
    missing = [
        f"{module}.{name}"
        for module, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"expanderlab.{module}"), name, None))
    ]
    assert not missing


def test_traced_search_names_its_strategy_spans(tmp_path):
    # the tracer names each search span by the strategy keyword of the call
    commands = [["gen", "random-regular:n=20,d=4,seed=3", "-o", "rr.el"]] + [
        ["search", "rr.el", "--girth", "5", "--strategy", strategy, "--budget", "40",
         "-o", f"{strategy}.el"]
        for strategy in ("trim", "percolate-repair")
    ]
    (tmp_path / "commands.json").write_text(json.dumps(commands))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(TRACING), "commands.json", "out.json"],
        cwd=tmp_path, env=env, check=True, timeout=300,
    )
    out = json.loads((tmp_path / "out.json").read_text())
    assert [c["rc"] for c in out["commands"]] == [0, 0, 0]
    layers = _load_tracing().per_layer(out["spans"], out["import_s"])
    assert layers["search.trim_to_girth.calls"] == 2  # trim, and percolate-repair's last step
    assert {"search.trim", "search.percolate-repair"} <= {span[0] for span in out["spans"]}
