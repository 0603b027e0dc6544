"""The vefrac benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload strip|grid|fine --seed N --seconds S --trace 0|1

Run from the root of a checkout; vefrac is imported from its `src/`.
The inputs of the workload are generated into `bench/_work/<workload>/`.
Every sample is one `vefrac run` (`cli_io.cli_dispatch(["run", config])`)
in a fresh single-threaded process (`worker.py`), one at a time, and its
archive is checked against `references.json`.

--trace 0 runs samples for S seconds, starting no sample that the longest
one so far says would end after that (the first always runs), and
reports the medians of setup_s, run_s and peak_rss_mb.
--trace 1 runs one untraced and one traced sample and reports the
per-layer metrics of the traced one (see `layers.py`).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it are for people: the
environment, every sample, the fail rate and whether each archive is
byte-identical to the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
REFERENCES = BENCH / "references.json"
# One invocation must end within 180 s; samples are cut at this deadline.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
RATIOS = {"elastic.cg_residual_max", "evolution.cache_hit_ratio", "trace.overhead"}


def _layer_unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _environment() -> str:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return (f"environment: cpu {cpu!r}, nproc {os.cpu_count()}, "
            f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, "
            + ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))


def _run_sample(config: Path, traced: bool, deadline: float) -> dict:
    """One worker process; returns its result, or {"error": ...}."""
    with tempfile.NamedTemporaryFile("r", dir=config.parent, suffix=".json",
                                     delete=False) as fh:
        result_path = Path(fh.name)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(config), str(result_path)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            return {"error": f"worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"}
        return json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        return {"error": "sample cut at the invocation deadline"}
    finally:
        result_path.unlink(missing_ok=True)


def _audit_verdicts(archive: Path) -> list[str]:
    from vefrac.cli_io import cli_dispatch

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_dispatch(["audit", str(archive)])
    if code != 0:
        raise ValueError(f"vefrac audit exited {code}: {out.getvalue().strip()}")
    return [line.split(" (", 1)[0] for line in out.getvalue().splitlines()]


def outputs(archive: Path, base: Path) -> dict:
    """The checked outputs of one run: crack history, jump records,
    `vefrac audit` verdicts, and the sha256 of the archive with the
    config's absolute directory replaced by "."."""
    text = archive.read_text(encoding="utf-8")
    doc = json.loads(text)
    echo = '"base": ' + json.dumps(str(base))
    if echo not in text:
        raise ValueError("archive does not echo the config directory")
    normalized = text.replace(echo, '"base": "."', 1)
    return {
        "history": [s["edges"] for s in doc["steps"]],
        "jumps": doc["jumps"],
        "audit": _audit_verdicts(archive),
        "archive_sha256": hashlib.sha256(normalized.encode("utf-8")).hexdigest(),
    }


def _jumps_match(got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if any(g[k] != w[k] for k in ("index", "time", "left", "at", "right")):
            return False
        if abs(g["magnitude"] - w["magnitude"]) > 1e-9 * max(1.0, abs(w["magnitude"])):
            return False
    return True


def check(archive: Path, base: Path, ref: dict) -> tuple[list[str], bool]:
    """Differences from the reference that fail the sample, and whether
    the archive is byte-identical to the reference one. Floats in the
    ledger may move (a change must then say which and why), so byte
    identity is reported but does not fail a sample."""
    if not archive.is_file():
        return ["no archive written"], False
    try:
        got = outputs(archive, base)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable archive: {exc}"], False
    problems = []
    if got["history"] != ref["history"]:
        problems.append("crack history differs")
    if not _jumps_match(got["jumps"], ref["jumps"]):
        problems.append("jump records differ")
    if got["audit"] != ref["audit"]:
        problems.append(f"audit verdicts differ: {got['audit']}")
    return problems, got["archive_sha256"] == ref["archive_sha256"]


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (ROOT / "src" / "vefrac" / "__init__.py").is_file():
        print(f"error: no vefrac sources under {ROOT / 'src'}; run from the "
              "root of a vefrac checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    ref = json.loads(REFERENCES.read_text(encoding="utf-8"))[args.workload]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.generate(args.workload, work, args.seed)
    if args.workload == "strip":
        workloads.check_strip_inputs(inputs)
    base = inputs.config.parent.resolve()
    print(_environment())
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"generated in {time.monotonic() - started:.2f} s")

    def sample(traced: bool) -> dict:
        inputs.archive.unlink(missing_ok=True)
        res = _run_sample(inputs.config, traced, deadline)
        if "error" in res:
            problems, identical = [res["error"]], False
        elif res["exit_code"] != 0:
            problems, identical = [f"vefrac run exited {res['exit_code']}"], False
        else:
            problems, identical = check(inputs.archive, base, ref)
        res.update(traced=traced, problems=problems, identical=identical)
        line = f"sample{' (traced)' if traced else ''}: "
        if "run_s" in res:
            line += (f"setup {res['setup_s']:.4f} s (cpu {res['cpu_setup_s']:.4f}), "
                     f"run {res['run_s']:.3f} s (cpu {res['cpu_run_s']:.3f}), "
                     f"peak rss {res['peak_rss_mb']:.1f} MB, ")
        line += "output ok" if not problems else "FAILED: " + "; ".join(problems)
        print(line + (", archive identical" if identical else ", archive differs"))
        return res

    if args.trace:
        samples = [sample(False), sample(True)]
    else:
        samples, cycle, t0 = [], 0.0, time.monotonic()
        while True:
            t_sample = time.monotonic()
            samples.append(sample(False))
            cycle = max(cycle, time.monotonic() - t_sample)
            if ("error" in samples[-1]
                    or time.monotonic() - t0 + cycle > args.seconds):
                break

    failed = sum(1 for s in samples if s["problems"])
    timed = [s for s in samples if "run_s" in s]
    print(f"fail_rate: {failed}/{len(samples)} = {failed / len(samples):.3g}; "
          f"archives identical to the reference: "
          f"{sum(s['identical'] for s in samples)}/{len(samples)}")

    plain = [s for s in timed if not s["traced"]]
    if args.trace:
        traced_runs = [s for s in timed if s["traced"]]
        if not plain or not traced_runs:
            print("error: no complete traced and untraced sample", file=sys.stderr)
            return 1
        values = dict(traced_runs[0]["layers"])
        values["trace.overhead"] = values["trace.run_s"] / plain[0]["run_s"]
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
    else:
        if not plain:
            print("error: no sample completed", file=sys.stderr)
            return 1
        metrics = {}
        for name, unit in END_TO_END.items():
            vals = [s[name] for s in plain]
            print(f"{name}: median [q1, q3] over {len(vals)} samples: "
                  f"{_quartiles(vals)} {unit}")
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
