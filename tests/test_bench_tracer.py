"""The benchmark's tracer (bench/layers.py) replaces public names of the
package with timing and counting wrappers, and refuses to install when a
name it wraps is bound nowhere. Installing it must keep working, and
every exported name must exist, so a deletion leaves no stale export."""
from __future__ import annotations

import os
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    paths = [str(ROOT / "src"), str(ROOT / "bench")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run(
        [sys.executable, "-c", "import layers; layers.Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["dissipation", "elastic", "evolution",
                                    "ve_core"])
def test_public_names_resolve(module):
    mod = importlib.import_module(f"vefrac.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
