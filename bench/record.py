"""Record `references.json`, the expected outputs of every workload.

    python3 bench/record.py

Runs each workload once with the current code and stores its crack
history, jump records, `vefrac audit` verdicts and normalized archive
sha256. The committed file was recorded at the commit that introduced
the benchmark; re-record only when a change moves the outputs on
purpose, and say which and why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    refs = {}
    for name in workloads.WORKLOADS:
        work = run.WORK / name
        shutil.rmtree(work, ignore_errors=True)
        inputs = workloads.generate(name, work, seed=0)
        res = run._run_sample(inputs.config, False, time.monotonic() + 600.0)
        if res.get("exit_code") != 0:
            print(f"error: {name}: {res}", file=sys.stderr)
            return 1
        refs[name] = run.outputs(inputs.archive, inputs.config.parent.resolve())
        print(f"{name}: {refs[name]['audit']}, sha256 {refs[name]['archive_sha256']}")
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
