"""Golden archive digests of the three shipped VE benchmark runs.

Each run is built the way acceptance test 12 builds its archive (the
same minimal config for the audits, no config echo) and written with
save_archive; the sha256 of the bytes is pinned here. A refactor or a
speed-up that changes any float, any tie-break or any formatting of
these archives fails the test. Only digests are stored, no archives.

Regenerate after an intended change with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib

import pytest

from vefrac.benchmarks import growth_strip, nucleation_well, symmetric_strip
from vefrac.cli_io import collect_audits, parse_config, save_archive
from vefrac.dissipation import DissipationParams
from vefrac.evolution import TimePartition, detect_jumps, fracture_instance, run_scheme
from vefrac.geometry import CrackSet

PARAMS = DissipationParams(lam=0.1, mu=0.1)

GOLDEN = {
    "well": "fe79858f126d29703a33f12c5068e46e810c42346e5d7fc8f18f0a333bc46bd3",
    "growth_strip": "67b0f662a79deaa64b54dd3c4305fb65caac44eb4b2b3f81b71a7a7f3ccb7c58",
    "symmetric_strip": "514dea6d52a5a1fbd61c0772aacbd3fd380dcbc43e0592c59e63463fbf524f07",
}


def _well():
    mesh, load, pool = nucleation_well()
    return mesh, load, pool, CrackSet.empty(mesh), 3, TimePartition.uniform(12.0, 60)


def _growth_strip():
    mesh, load, k0, pool, _ = growth_strip(
        nx=16, ny=8, width=2.0, height=1.0, x_scale=1.0,
        horizon=5.5, n_precracked=6)
    return mesh, load, pool, k0, 1, TimePartition.uniform(5.5, 60)


def _symmetric_strip():
    mesh, load, k0, pool, _, _ = symmetric_strip(nx=12, ny=6, arm=4)
    return mesh, load, pool, k0, 2, TimePartition.uniform(4.0, 40)


RUNS = {"well": _well, "growth_strip": _growth_strip,
        "symmetric_strip": _symmetric_strip}


def archive_digest(name: str, tmp_dir) -> str:
    mesh, load, pool, k0, budget, part = RUNS[name]()
    cfg = parse_config("[run]\nmesh = unused.mesh\nlambda = 0.1\nmu = 0.1\n")
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=budget)
    evo = run_scheme(inst, part, k0)
    jumps = detect_jumps(evo)
    audits = collect_audits(evo, inst, jumps, cfg)
    path = save_archive(evo, audits, tmp_dir / f"{name}.json", jumps=jumps)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_archive_matches_golden_digest(name, tmp_path):
    assert archive_digest(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(GOLDEN):
            print(f'    "{name}": "{archive_digest(name, Path(tmp))}",')
