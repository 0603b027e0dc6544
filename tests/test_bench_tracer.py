"""The benchmark's tracer (bench/layers.py) replaces public names of the
package with timing and counting wrappers, and refuses to install when a
name it wraps is bound nowhere. Installing it must keep working
(tests/test_modules.py checks that every exported name exists)."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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

