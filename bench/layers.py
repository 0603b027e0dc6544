"""Per-layer tracing of one `vefrac run`, installed from outside.

`Tracer.install()` replaces public functions of the vefrac modules with
timing or counting wrappers. A function imported into several module
namespaces (`evolution` binds its own `residual_stability`,
`split_along_crack`, `solve_on_space`, and `alpha` as `alpha_count`) is
replaced in every namespace that holds it, so no call path escapes.

Timed calls are spans. Each span keeps the time its child spans covered,
so a layer's self time is its span time minus its children's. Spans are
aggregated per layer as they close rather than stored. The hot, tiny
calls (`CrackSet.edge_ids`, `CrackSet.vertex_ids`, competitor yields,
energy and power lookups) are counted only.

A run has two phases, split where `cli_io.build_run` returns. Setup
layers are timed only during setup and run layers only during the run;
a run-layer call made during setup (power_bound_constant builds and
assembles the empty-crack space) is charged to the setup layer it runs
under. Hence, per phase, the self times of its layers plus an explicit
`other` remainder add up to the phase's wall time.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter, defaultdict

import scipy.sparse.linalg as spla

from vefrac import cli_io, dissipation, elastic, evolution, geometry, ve_core

# layer name -> metric reporting its self time, for each phase
SETUP_TIMES = {
    "cli_io.parse": "cli_io.parse_s",
    "cli_io.build_run": "cli_io.build_run_s",
    "geometry.read_mesh": "geometry.read_mesh_s",
    "elastic.power_bound": "elastic.power_bound_s",
}
RUN_TIMES = {
    "geometry.components": "geometry.components_s",
    "elastic.space": "elastic.space_s",
    "elastic.assemble": "elastic.assemble_s",
    "elastic.solve": "elastic.solve_s",
    "dissipation.hop": "dissipation.self_s",
    "dissipation.alpha": "dissipation.alpha_s",
    "dissipation.atw": "dissipation.atw_s",
    "evolution.scheme": "evolution.scheme_self_s",
    "ve_core.step": "ve_core.step_s",
    "ve_core.residual": "ve_core.residual_s",
    "ve_core.jump_cost": "ve_core.jump_cost_s",
    "ve_core.audit": "ve_core.audit_s",
    "cli_io.archive": "cli_io.archive_s",
}


class Tracer:
    """Span and counter bookkeeping for one process."""

    def __init__(self):
        self.phase = "setup"
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.covered = {"setup": 0.0, "run": 0.0}
        self.cg_iters_max = 0
        self.cg_residual_max = 0.0
        self.residual_examined = 0
        self.archive_bytes = 0
        self._stack: list[list[float]] = []
        self._assembled = weakref.WeakSet()

    # -- wrappers ---------------------------------------------------------

    def _timed(self, layer: str, fn):
        setup_layer = layer in SETUP_TIMES

        def wrapper(*args, **kwargs):
            self.counts[layer] += 1
            if setup_layer != (self.phase == "setup"):
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                self._stack.pop()
                self.self_s[layer] += span - frame[0]
                self.total_s[layer] += span
                if self._stack:
                    self._stack[-1][0] += span
                else:
                    self.covered[self.phase] += span

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        timed = self._timed
        _replace(geometry.read_mesh, timed("geometry.read_mesh", geometry.read_mesh))
        _replace(geometry.connected_components,
                 timed("geometry.components", geometry.connected_components))
        edge_ids = geometry.CrackSet.edge_ids.fget
        geometry.CrackSet.edge_ids = property(
            self._counted("geometry.edge_ids", edge_ids))
        geometry.CrackSet.vertex_ids = self._counted(
            "geometry.vertex_ids", geometry.CrackSet.vertex_ids)

        _replace(elastic.split_along_crack,
                 timed("elastic.space", elastic.split_along_crack))
        _replace(elastic.power_bound_constant,
                 timed("elastic.power_bound", elastic.power_bound_constant))
        elastic.CrackedSpace.stiffness = self._stiffness(
            elastic.CrackedSpace.stiffness)
        _replace(elastic.solve_on_space, self._solve(elastic.solve_on_space))
        spla.cg = self._cg(spla.cg)

        _replace(dissipation.dist_d, timed("dissipation.hop", dissipation.dist_d))
        _replace(dissipation.delta_atw,
                 timed("dissipation.hop", dissipation.delta_atw))
        _replace(dissipation.alpha, timed("dissipation.alpha", dissipation.alpha))
        _replace(dissipation.atw_integral,
                 timed("dissipation.atw", dissipation.atw_integral))

        _replace(evolution.run_scheme, timed("evolution.scheme", evolution.run_scheme))

        ve_core.RisInstance.competitors = self._competitors(
            ve_core.RisInstance.competitors)
        _replace(ve_core.incremental_step,
                 timed("ve_core.step", ve_core.incremental_step))
        _replace(ve_core.residual_stability,
                 self._residual(ve_core.residual_stability))
        _replace(ve_core.jump_cost, timed("ve_core.jump_cost", ve_core.jump_cost))
        _replace(ve_core.audit_balance, timed("ve_core.audit", ve_core.audit_balance))
        _replace(ve_core.audit_jump_conditions,
                 timed("ve_core.audit", ve_core.audit_jump_conditions))

        _replace(cli_io.parse_config, timed("cli_io.parse", cli_io.parse_config))
        _replace(cli_io.build_run, self._build_run(cli_io.build_run))
        _replace(cli_io.save_archive, self._archive(cli_io.save_archive))

    def _stiffness(self, fn):
        assemble = self._timed("elastic.assemble", fn)
        assembled = self._assembled

        def stiffness(space):
            if space in assembled:
                return fn(space)
            assembled.add(space)
            return assemble(space)

        return stiffness

    def _solve(self, fn):
        solve = self._timed("elastic.solve", fn)

        def solve_on_space(*args, **kwargs):
            sol = solve(*args, **kwargs)
            self.cg_residual_max = max(self.cg_residual_max, sol.residual)
            return sol

        return solve_on_space

    def _cg(self, fn):
        def cg(*args, callback=None, **kwargs):
            iters = 0

            def count(xk):
                nonlocal iters
                iters += 1
                if callback is not None:
                    callback(xk)

            try:
                return fn(*args, callback=count, **kwargs)
            finally:
                self.counts["elastic.cg_iters"] += iters
                self.cg_iters_max = max(self.cg_iters_max, iters)

        return cg

    def _competitors(self, fn):
        counts = self.counts

        def competitors(instance, state):
            for comp in fn(instance, state):
                counts["ve_core.competitors"] += 1
                yield comp

        return competitors

    def _residual(self, fn):
        residual = self._timed("ve_core.residual", fn)

        def residual_stability(*args, **kwargs):
            report = residual(*args, **kwargs)
            self.residual_examined += report.examined
            return report

        return residual_stability

    def _build_run(self, fn):
        build_run = self._timed("cli_io.build_run", fn)

        def wrapper(*args, **kwargs):
            ctx = build_run(*args, **kwargs)
            inst = ctx.instance
            inst.energy = self._counted("evolution.lookups", inst.energy)
            inst.power = self._counted("evolution.lookups", inst.power)
            return ctx

        return wrapper

    def _archive(self, fn):
        save = self._timed("cli_io.archive", fn)

        def save_archive(*args, **kwargs):
            path = save(*args, **kwargs)
            self.archive_bytes = path.stat().st_size
            return path

        return save_archive

    # -- report -----------------------------------------------------------

    def metrics(self, setup_s: float, run_s: float) -> dict:
        """Per-layer metrics of the traced run, given its wall-clock
        setup and run times."""
        c, s = self.counts, self.self_s
        lookups = c["evolution.lookups"]
        solves = c["elastic.solve"]
        out = {name: s[layer] for layer, name in {**SETUP_TIMES, **RUN_TIMES}.items()}
        out.update({
            "geometry.edge_ids_calls": c["geometry.edge_ids"],
            "geometry.vertex_ids_calls": c["geometry.vertex_ids"],
            "geometry.components_calls": c["geometry.components"],
            "elastic.space_builds": c["elastic.space"],
            "elastic.solves": solves,
            "elastic.cg_iters": c["elastic.cg_iters"],
            "elastic.cg_iters_max": self.cg_iters_max,
            "elastic.cg_residual_max": self.cg_residual_max,
            "dissipation.hop_calls": c["dissipation.hop"],
            "dissipation.alpha_calls": c["dissipation.alpha"],
            "dissipation.atw_calls": c["dissipation.atw"],
            "evolution.energy_calls": lookups,
            "evolution.cache_hit_ratio": 1.0 - solves / lookups if lookups else 0.0,
            "evolution.scheme_s": self.total_s["evolution.scheme"],
            "ve_core.competitors": c["ve_core.competitors"],
            "ve_core.step_calls": c["ve_core.step"],
            "ve_core.residual_calls": c["ve_core.residual"],
            "ve_core.residual_examined": self.residual_examined,
            "ve_core.jump_cost_calls": c["ve_core.jump_cost"],
            "cli_io.archive_bytes": self.archive_bytes,
            "trace.setup_s": setup_s,
            "trace.run_s": run_s,
            "trace.setup_other_s": setup_s - self.covered["setup"],
            "trace.run_other_s": run_s - self.covered["run"],
        })
        return out


def _replace(original, wrapper) -> None:
    """Bind `wrapper` in place of `original` in every vefrac module
    namespace that holds it."""
    found = 0
    for name, module in list(sys.modules.items()):
        if name != "vefrac" and not name.startswith("vefrac."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                found += 1
    if not found:
        raise RuntimeError(f"{original.__qualname__} is bound nowhere in vefrac")
