"""Input generator for the benchmark workloads.

Each workload is a mesh file, an INI config and, for `strip`, a nodal
profile file, all written into a work directory on every invocation.
The meshes and loads come from `vefrac.benchmarks`, so the inputs are
the shipped benchmark geometries as a user would hand them to
`vefrac run`.

The seed changes only how the mesh file presents its Dirichlet part: the
order of the `dirichlet pairs` lines and the order of the two vertex ids
on each. The program must treat all of these files alike, so every seed
has the same expected crack history, jumps, audits and archive bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vefrac.benchmarks import growth_strip, square_grid_mesh
from vefrac.geometry import write_mesh

LAMBDA = 0.1
MU = 0.1


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated inputs."""

    config: Path
    archive: Path


def _pairs(mesh, edge_ids) -> str:
    return ", ".join(f"{int(mesh.edges[e][0])} {int(mesh.edges[e][1])}"
                     for e in edge_ids)


def _write_mesh(mesh, path: Path, seed: int) -> None:
    write_mesh(mesh, path)
    rng = random.Random(seed)
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("dirichlet pairs ")]
    pairs = [ln.split()[2:] for ln in lines if ln.startswith("dirichlet pairs ")]
    rng.shuffle(pairs)
    for p in pairs:
        if rng.random() < 0.5:
            p.reverse()
    body.extend(f"dirichlet pairs {a} {b}" for a, b in pairs)
    path.write_text("\n".join(body) + "\n", encoding="utf-8")


def _config(mesh_name: str, profile: str, horizon: float, steps: int,
            pool: str, budget: int) -> str:
    return (f"[run]\nmesh = {mesh_name}\nmode = ve\nlambda = {LAMBDA!r}\n"
            f"mu = {MU!r}\noutput = out\n\n"
            f"[load]\nprofile = {profile}\namplitude = linear(0, 1)\n\n"
            f"[partition]\nhorizon = {horizon!r}\nsteps = {steps}\n\n"
            f"[pool]\n{pool}\n\n"
            f"[search]\nmode = exhaustive\nbudget = {budget}\n")


def _strip(work: Path, seed: int) -> str:
    mesh, load, k0, pool, _ = growth_strip(pool_span=10)
    _write_mesh(mesh, work / "strip.mesh", seed)
    (work / "strip.profile").write_text(
        "".join(f"{float(v)!r}\n" for v in load.profile), encoding="utf-8")
    items = f"kind = pairs\nitems = {_pairs(mesh, pool.edge_ids)}\n" \
            f"initial = {_pairs(mesh, k0.edge_ids)}"
    return _config("strip.mesh", "strip.profile", load.horizon, 60, items, 3)


def _grid(work: Path, seed: int) -> str:
    _write_mesh(square_grid_mesh(4, dirichlet="topbottom"), work / "grid.mesh",
                seed)
    return _config("grid.mesh", "builtin:linear-y", 6.0, 6,
                   "kind = all-interior", 2)


def _fine(work: Path, seed: int) -> str:
    _write_mesh(square_grid_mesh(48, dirichlet="topbottom"), work / "fine.mesh",
                seed)
    items = "kind = pairs\nitems = 1198 1199, 1199 1200, 1200 1201, 1201 1202"
    return _config("fine.mesh", "builtin:linear-y", 50.0, 60, items, 2)


WORKLOADS = {"strip": _strip, "grid": _grid, "fine": _fine}


def generate(name: str, work: Path, seed: int) -> Inputs:
    """Write the inputs of workload `name` into `work` and return their
    paths. The archive path is where `vefrac run` will write."""
    work.mkdir(parents=True, exist_ok=True)
    config = work / f"{name}.ini"
    config.write_text(WORKLOADS[name](work, seed), encoding="utf-8")
    return Inputs(config=config, archive=work / "out" / "archive.json")


def check_strip_inputs(inputs: Inputs) -> None:
    """The generated `strip` config must rebuild the in-process
    `growth_strip(pool_span=10)`: same pool, precrack and profile, bit
    for bit. Raises ValueError on any difference."""
    from vefrac.cli_io import build_run, parse_config

    ctx = build_run(parse_config(inputs.config.read_text(encoding="utf-8")),
                    inputs.config.parent.resolve())
    _, load, k0, pool, _ = growth_strip(pool_span=10)
    if ctx.pool.bits != pool.bits:
        raise ValueError("strip config rebuilds another pool")
    if ctx.k0.bits != k0.bits:
        raise ValueError("strip config rebuilds another precrack")
    if not np.array_equal(ctx.load.profile, load.profile):
        raise ValueError("strip profile does not read back bit-exactly")
    if ctx.load.amplitude != load.amplitude or ctx.load.horizon != load.horizon:
        raise ValueError("strip config rebuilds another amplitude or horizon")
