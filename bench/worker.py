"""One benchmark sample: a single `vefrac run` in this fresh process.

    python3 bench/worker.py CONFIG RESULT [--trace]

Imports vefrac from the checkout's `src/`, calls
`vefrac.cli_io.cli_dispatch(["run", CONFIG])` and writes one JSON object
to RESULT: the exit code, `setup_s` (cli_dispatch entry until
`cli_io.build_run` returns), `run_s` (from there until cli_dispatch
returns), the CPU time of both phases, and the peak resident memory of
the process. With --trace the layer wrappers of `layers.py` are
installed first and their metrics are added under "layers".

The run's own summary lines go to stdout, which the caller discards.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv) -> int:
    config, result_path = argv[0], Path(argv[1])
    traced = argv[2:] == ["--trace"]

    from vefrac import cli_io

    tracer = None
    if traced:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()

    marks = {}
    inner_build_run = cli_io.build_run

    def build_run(cfg, base):
        ctx = inner_build_run(cfg, base)
        marks["wall"], marks["cpu"] = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.phase = "run"
        return ctx

    cli_io.build_run = build_run
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    code = cli_io.cli_dispatch(["run", config])
    wall2 = time.perf_counter()
    cpu2 = time.process_time()

    result = {"exit_code": code}
    if "wall" in marks:
        result.update(
            setup_s=marks["wall"] - wall0, run_s=wall2 - marks["wall"],
            cpu_setup_s=marks["cpu"] - cpu0, cpu_run_s=cpu2 - marks["cpu"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and "wall" in marks:
        result["layers"] = tracer.metrics(result["setup_s"], result["run_s"])
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
