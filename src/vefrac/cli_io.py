"""Run configuration, archives, plot extracts, and the command line.

Configs are INI-style text (sections run/load/partition/pool/search/
tolerances) and validate strictly: unknown sections or keys are errors,
as are non-positive moduli. A finished run is persisted as a JSON
archive tagged `ve-fracture/1`: the effective config, the partition,
the per-step ledger, the detected jumps, and the audit residuals. The
archive is the product; audits report into it rather than failing the
process, and every float is written with 17 significant digits so a
reload reproduces the run bit for bit.

The dispatcher is plain single-threaded orchestration. Exit codes: 0
for success (including audits that report FAIL), 1 for validation
problems, 2 when the solver gives up.
"""

from __future__ import annotations

import configparser
import functools
import io
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dissipation import DissipationParams
from .elastic import (
    CG_RTOL,
    BoundaryLoad,
    ElasticError,
    LinearAmplitude,
    NumericalError,
    TableAmplitude,
)
from .evolution import (
    DiscreteEvolution,
    JumpRecord,
    StepLedger,
    TimePartition,
    component_bound_check,
    detect_jumps,
    fracture_instance,
    run_scheme,
)
from .geometry import CrackSet, Mesh, MeshError, read_mesh
from .griffith import GriffithError, TipPath, check_kkt, griffith_report
from .ve_core import audit_balance, audit_jump_conditions, jump_cost

SCHEMA_TAG = "ve-fracture/1"

GRIFFITH_COLUMNS = ("t", "tip", "sigma", "sigmadot", "kappa2", "slack", "compl")

_BUDGET_CAP = 12


class ConfigError(Exception):
    """A config file fails validation."""


class ArchiveError(Exception):
    """An archive is missing, malformed, or from another schema."""


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated run description. The defaults here are the documented
    ones, and __post_init__ is the only validator, so a config parsed
    from text, rebuilt from an archive's echo or edited by a sweep is
    checked alike. mesh is required; empty means missing.

    pool_items holds vertex pairs for kind "pairs" and edge ids for
    kind "edges"; it is empty for "all-interior".
    """

    mesh: str = ""
    mode: str = "ve"
    lam: float = 1.0
    mu: float = 1.0
    output: str = "out"
    profile: str = "builtin:linear-y"
    amplitude: str = "linear(0, 1)"
    steps: int = 50
    horizon: float = 1.0
    times: tuple[float, ...] | None = None
    pool_kind: str = "all-interior"
    pool_items: tuple = ()
    initial: tuple = ()
    search: str = "exhaustive"
    budget: int = 3
    tol_stability: float = 1e-9
    tol_balance: float = 1e-9

    def __post_init__(self):
        if not self.mesh:
            raise ConfigError("missing mesh")
        if self.mode not in ("ve", "energetic"):
            raise ConfigError(f"mode must be 've' or 'energetic', got {self.mode!r}")
        # a non-finite number is refused by its config key, before any
        # rule it would pass (inf tolerances) or fail misleadingly
        for (section, key), (name, read) in _FIELDS.items():
            if read is _number or read is _numbers:
                value = getattr(self, name)
                for x in (value or ()) if read is _numbers else (value,):
                    if not math.isfinite(x):
                        raise ConfigError(
                            f"{section}.{key} must be a finite number, got {x!r}")
        if self.lam <= 0:
            raise ConfigError("lambda must be positive")
        if self.mu <= 0:
            raise ConfigError("mu must be positive")
        if self.steps < 1:
            raise ConfigError("partition needs at least one step")
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.times is not None and len(self.times) < 2:
            raise ConfigError("explicit times need at least the two endpoints")
        if self.pool_kind not in ("all-interior", "pairs", "edges"):
            raise ConfigError(
                f"pool kind must be all-interior, pairs or edges, got {self.pool_kind!r}")
        if self.pool_kind == "all-interior":
            if self.pool_items:
                raise ConfigError("pool items make no sense with kind all-interior")
        elif not self.pool_items:
            raise ConfigError(f"pool kind {self.pool_kind} needs items")
        if self.search not in ("exhaustive", "greedy"):
            raise ConfigError(
                f"search mode must be exhaustive or greedy, got {self.search!r}")
        if not 0 <= self.budget <= _BUDGET_CAP:
            raise ConfigError(f"budget must be between 0 and {_BUDGET_CAP}")
        for (section, key), (name, _) in _FIELDS.items():
            if section == "tolerances" and name and getattr(self, name) <= 0:
                raise ConfigError(f"tolerance {key} must be positive")


# Tolerance keys that accept one value only: CG stops at its fixed
# relative residual and nothing reads an h tolerance. Archives still
# echo both, so every archive states the constants it was made with.
_FIXED_TOLERANCES = {"solver": CG_RTOL, "h": 1e-8}


def _text(section: str, key: str, raw: str) -> str:
    return raw


def _number(section: str, key: str, raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise ConfigError(
            f"malformed number for {section}.{key}: {raw!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{section}.{key} must be a finite number, got {x!r}")
    return x


def _integer(section: str, key: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(
            f"malformed integer for {section}.{key}: {raw!r}") from None


def _numbers(section: str, key: str, raw: str) -> tuple[float, ...]:
    return tuple(_number(section, key, e) for e in raw.split(",") if e.strip())


def _pool_items(kind: str, section: str, key: str, raw: str):
    """Vertex pairs for kind "pairs", edge ids otherwise; errors name
    section.key."""
    groups = [g.strip() for g in raw.split(",") if g.strip()]
    if kind == "pairs":
        pairs = []
        for g in groups:
            parts = g.split()
            if len(parts) != 2:
                raise ConfigError(
                    f"{section}.{key} pairs need two vertex ids per group, got {g!r}")
            pairs.append((_integer(section, key, parts[0]),
                          _integer(section, key, parts[1])))
        return tuple(pairs)
    ids = []
    for g in groups:
        ids.extend(_integer(section, key, p) for p in g.split())
    return tuple(ids)


def _pairs(section: str, key: str, raw: str) -> tuple:
    return _pool_items("pairs", section, key, raw)


def _fixed(section: str, key: str, raw: str) -> None:
    if _number(section, key, raw) != _FIXED_TOLERANCES[key]:
        raise ConfigError(f"tolerance {key} is fixed at {_FIXED_TOLERANCES[key]:g}")


# Every config key, in the order of the archive's config echo -> its
# RunConfig field (None for a fixed tolerance, echoed as its constant)
# and the reader of its raw text. Pool items are kept as text until the
# pool kind is known.
_FIELDS = {
    ("run", "mesh"): ("mesh", _text),
    ("run", "mode"): ("mode", _text),
    ("run", "lambda"): ("lam", _number),
    ("run", "mu"): ("mu", _number),
    ("run", "output"): ("output", _text),
    ("load", "profile"): ("profile", _text),
    ("load", "amplitude"): ("amplitude", _text),
    ("partition", "steps"): ("steps", _integer),
    ("partition", "horizon"): ("horizon", _number),
    ("partition", "times"): ("times", _numbers),
    ("pool", "kind"): ("pool_kind", _text),
    ("pool", "items"): ("pool_items", _text),
    ("pool", "initial"): ("initial", _pairs),
    ("search", "mode"): ("search", _text),
    ("search", "budget"): ("budget", _integer),
    ("tolerances", "stability"): ("tol_stability", _number),
    ("tolerances", "solver"): (None, _fixed),
    ("tolerances", "h"): (None, _fixed),
    ("tolerances", "balance"): ("tol_balance", _number),
}
_SECTIONS = {section for section, _ in _FIELDS}
# Keys added after the first archives were written; an echo without
# one rebuilds with the RunConfig default.
_LATER_KEYS = {("pool", "initial")}


def parse_config(text: str) -> RunConfig:
    """Parse an INI-like config document into a RunConfig.

    Unknown sections and keys are rejected by name; each key present is
    read into its RunConfig field, and every key left out takes the
    RunConfig default (notably budget 3 and 50 steps).
    """
    parser = configparser.ConfigParser(
        delimiters=("=",), interpolation=None,
        inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from None

    fields = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section: {section}")
        for key, raw in parser.items(section):
            if (section, key) not in _FIELDS:
                raise ConfigError(f"unknown config key: {section}.{key}")
            name, read = _FIELDS[section, key]
            value = read(section, key, raw.strip())
            if name is not None:
                fields[name] = value
    if "pool_items" in fields:
        kind = fields.get("pool_kind", RunConfig.pool_kind)
        fields["pool_items"] = _pool_items(kind, "pool", "items", fields["pool_items"])
    return RunConfig(**fields)


# ---------------------------------------------------------------------------
# assembling a run from a config
# ---------------------------------------------------------------------------

@dataclass
class RunContext:
    """Everything a subcommand needs to drive or re-drive a run."""

    config: RunConfig
    base: str
    mesh: Mesh
    load: BoundaryLoad
    pool: CrackSet
    instance: object
    partition: TimePartition
    k0: CrackSet


_AMPLITUDE_RE = re.compile(r"^(linear|table)\s*\((.*)\)$")


def _parse_amplitude(spec: str, base: Path):
    m = _AMPLITUDE_RE.match(spec.strip())
    if not m:
        raise ConfigError(
            f"amplitude must be linear(c0, c1) or table(file), got {spec!r}")
    kind, body = m.group(1), m.group(2)
    if kind == "linear":
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"linear amplitude needs two coefficients: {spec!r}")
        return LinearAmplitude(*(_number("load", "amplitude", p) for p in parts))
    table_path = _resolve(body.strip(), base)
    rows = []
    for ln in table_path.read_text(encoding="utf-8").splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.replace(",", " ").split()
        if len(parts) != 2:
            raise ConfigError(f"amplitude table rows need two values: {ln!r}")
        rows.append(tuple(_number("load", "amplitude", p) for p in parts))
    return TableAmplitude([r[0] for r in rows], [r[1] for r in rows])


def _read_profile(spec: str, mesh: Mesh, base: Path) -> np.ndarray:
    if spec == "builtin:linear-y":
        return mesh.vertices[:, 1].copy()
    if spec.startswith("builtin:"):
        raise ConfigError(f"unknown builtin load profile {spec!r}")
    vals = []
    for ln in _resolve(spec, base).read_text(encoding="utf-8").splitlines():
        ln = ln.split("#", 1)[0].strip()
        if ln:
            vals.append(_number("load", "profile", ln))
    return np.array(vals, dtype=float)


def _build_pool(cfg: RunConfig, mesh: Mesh) -> CrackSet:
    if cfg.pool_kind == "all-interior":
        exclude = set(map(int, mesh.dirichlet_edges()))
        return CrackSet.of_edges(
            mesh, [e for e in range(mesh.n_edges) if e not in exclude])
    if cfg.pool_kind == "pairs":
        return CrackSet.of_vertex_pairs(mesh, cfg.pool_items)
    return CrackSet.of_edges(mesh, cfg.pool_items)


def _resolve(path_str: str, base: Path) -> Path:
    p = Path(path_str)
    return p if p.is_absolute() else Path(base) / p


def build_run(cfg: RunConfig, base) -> RunContext:
    """Materialize a config: read the mesh, wire the load, the pool and
    the driving instance. Relative paths resolve against `base`, the
    directory of the config file."""
    base = Path(base)
    mesh = read_mesh(_resolve(cfg.mesh, base))
    if cfg.times is not None:
        try:
            partition = TimePartition(np.array(cfg.times, dtype=float))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        partition = TimePartition.uniform(cfg.horizon, cfg.steps)
    profile = _read_profile(cfg.profile, mesh, base)
    amplitude = _parse_amplitude(cfg.amplitude, base)
    load = BoundaryLoad(profile=profile, amplitude=amplitude, horizon=partition.horizon)
    # a run scales its energies by a(t)^2 and its powers by a'(t) a(t);
    # an overflow there would only surface in the archive write
    for t in partition.times.tolist():
        a, slope = amplitude(t), amplitude.derivative(t)
        if not (math.isfinite(a * a) and math.isfinite(slope * a)):
            raise ConfigError(f"load.amplitude overflows at t={t!r}: a(t)^2 = {a * a!r}, "
                              f"a'(t)*a(t) = {slope * a!r}")
    pool = _build_pool(cfg, mesh)
    params = DissipationParams(lam=cfg.lam, mu=cfg.mu)
    instance = fracture_instance(
        mesh, load, params, pool, budget=cfg.budget, search=cfg.search,
        stability_rtol=cfg.tol_stability, viscous=cfg.mode == "ve")
    k0 = (CrackSet.of_vertex_pairs(mesh, cfg.initial) if cfg.initial
          else CrackSet.empty(mesh))
    return RunContext(config=cfg, base=str(base), mesh=mesh, load=load,
                      pool=pool, instance=instance, partition=partition,
                      k0=k0)


def _lists(value):
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _echo_sections(cfg: RunConfig) -> dict:
    sections = {}
    for (section, key), (name, _) in _FIELDS.items():
        value = _FIXED_TOLERANCES[key] if name is None else getattr(cfg, name)
        sections.setdefault(section, {})[key] = _lists(value)
    return sections


def _config_echo(cfg: RunConfig, base: str) -> dict:
    return {"base": base, **_echo_sections(cfg)}


def _config_from_echo(echo: dict) -> tuple[RunConfig, str]:
    fields = {}
    for (section, key), (name, _) in _FIELDS.items():
        if name is None:
            continue
        try:
            value = echo[section][key]
        except KeyError:
            if (section, key) in _LATER_KEYS:
                continue
            raise ArchiveError(f"archive config echo lacks {section}.{key}") from None
        fields[name] = _tuples(value)
    if "base" not in echo:
        raise ArchiveError("archive config echo lacks base")
    return RunConfig(**fields), echo["base"]


# ---------------------------------------------------------------------------
# archives
# ---------------------------------------------------------------------------

# archive step key -> StepLedger column, in the order a step is written
# (after its time "t" and its crack "edges")
_LEDGER = (("E", "energy"), ("power", "power"), ("power_pre", "power_pre"),
           ("d", "d"), ("Delta", "delta"), ("alpha", "alpha"), ("R", "r"))


@dataclass
class EvolutionArchive:
    """In-memory image of an archive document."""

    schema: str
    config: dict | None
    times: np.ndarray
    steps: list[dict]
    jumps: list[dict]
    audits: dict | None
    griffith: dict | None

    def to_evolution(self, mesh: Mesh) -> DiscreteEvolution:
        """Rebuild the run on its mesh; exact because floats round-trip."""
        states = [CrackSet.of_edges(mesh, s["edges"]) for s in self.steps]
        cols = {name: np.array([float(s[key]) for s in self.steps])
                for key, name in _LEDGER}
        return DiscreteEvolution(
            partition=TimePartition(self.times.copy()),
            states=states, ledger=StepLedger(**cols))

    def jump_records(self, mesh: Mesh) -> list[JumpRecord]:
        return [JumpRecord(index=j["index"], time=j["time"],
                           left=CrackSet.of_edges(mesh, j["left"]),
                           at=CrackSet.of_edges(mesh, j["at"]),
                           right=CrackSet.of_edges(mesh, j["right"]),
                           magnitude=j["magnitude"])
                for j in self.jumps]


def _document(evolution: DiscreteEvolution, audits, config, jumps, griffith) -> dict:
    columns = [(key, getattr(evolution.ledger, name)) for key, name in _LEDGER]
    times = evolution.partition.times
    steps = []
    for i, state in enumerate(evolution.states):
        steps.append({
            "t": float(times[i]),
            "edges": [int(e) for e in sorted(state.edge_ids)],
            **{key: float(col[i]) for key, col in columns},
        })
    jump_docs = []
    for rec in (jumps or []):
        jump_docs.append({
            "index": int(rec.index), "time": float(rec.time),
            "left": [int(e) for e in sorted(rec.left.edge_ids)],
            "at": [int(e) for e in sorted(rec.at.edge_ids)],
            "right": [int(e) for e in sorted(rec.right.edge_ids)],
            "magnitude": float(rec.magnitude),
        })
    return {
        "schema": SCHEMA_TAG,
        "config": config,
        "partition": [float(t) for t in times],
        "steps": steps,
        "jumps": jump_docs,
        "audits": audits,
        "griffith": griffith,
    }


@functools.lru_cache(maxsize=1024)
def _key_text(key) -> str:
    """A dict key as archive text, with the colon that follows it."""
    return json.dumps(str(key)) + ": "


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ArchiveError(f"archives cannot hold non-finite floats ({x})")
    return format(x, ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """obj as archive text. The shapes an archive is made of, Python
    floats and lists and dicts of them, are written by exact type; any
    other value goes through the general chain below, which writes them
    to the same bytes."""
    kind = type(obj)
    if kind is float:
        return _float_text(obj)
    if kind is list or kind is tuple or kind is np.ndarray:
        items = list(obj)
        kinds = set(map(type, items))
        if kinds == {float}:
            if not all(map(math.isfinite, items)):
                for x in items:
                    _float_text(x)
            return "[" + ", ".join([format(x, ".17g") for x in items]) + "]"
        if kinds == {int}:
            return "[" + ", ".join(map(str, items)) + "]"
        pad = " " * indent
        if any(issubclass(k, (dict, list, tuple, np.ndarray)) for k in kinds):
            inner = (",\n" + pad + "  ").join(
                _json_text(x, indent + 2) for x in items)
            return "[\n" + pad + "  " + inner + "\n" + pad + "]"
        return "[" + ", ".join(_json_text(x, indent) for x in items) + "]"
    if kind is dict:
        if not obj:
            return "{}"
        pad = " " * indent
        rows = (",\n" + pad + "  ").join([
            _key_text(k) + (_float_text(v) if type(v) is float else _json_text(v, indent + 2))
            for k, v in obj.items()])
        return "{\n" + pad + "  " + rows + "\n" + pad + "}"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray, dict)):
        # a subclass of a container: written as its base type
        return _json_text(dict(obj) if isinstance(obj, dict) else list(obj), indent)
    raise ArchiveError(f"cannot serialize {type(obj).__name__} into an archive")


def save_archive(evolution: DiscreteEvolution, audits, path,
                 config: dict | None = None, jumps=None,
                 griffith: dict | None = None) -> Path:
    """Write the run as a schema-tagged JSON document and return the
    path. Floats carry 17 significant digits, so loading is lossless;
    key order and newlines are fixed, so reruns are byte-identical. The
    document is serialized before the file is opened, so a save that
    fails leaves an existing archive as it was."""
    text = _json_text(_document(evolution, audits, config, jumps, griffith)) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _archive_from_document(doc: dict) -> EvolutionArchive:
    schema = doc.get("schema")
    if schema != SCHEMA_TAG:
        raise ArchiveError(
            f"unsupported archive schema {schema!r}; this build reads "
            f"{SCHEMA_TAG!r}")
    for key in ("partition", "steps", "jumps"):
        if key not in doc:
            raise ArchiveError(f"archive lacks {key!r}")
        if not isinstance(doc[key], list):
            raise ArchiveError(f"archive {key!r} must be a list, not {type(doc[key]).__name__}")
    if not doc["steps"]:
        raise ArchiveError("archive has no steps")
    for i, step in enumerate(doc["steps"]):
        if not isinstance(step, dict):
            raise ArchiveError(f"archive step {i} must be an object, not {type(step).__name__}")
        for key in ("t", "edges", *(key for key, _ in _LEDGER)):
            if key not in step:
                raise ArchiveError(f"archive step {i} lacks {key!r}")
    return EvolutionArchive(
        schema=schema, config=doc.get("config"),
        times=np.array(doc["partition"], dtype=float),
        steps=doc["steps"], jumps=doc["jumps"],
        audits=doc.get("audits"), griffith=doc.get("griffith"))


def load_archive(path) -> EvolutionArchive:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ArchiveError(f"cannot read archive: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ArchiveError(f"archive is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ArchiveError("archive root must be an object")
    return _archive_from_document(doc)


def collect_audits(evolution: DiscreteEvolution, instance, jumps,
                   cfg: RunConfig) -> dict:
    """Recompute every audit for the archive. Failures become data."""
    balance = audit_balance(evolution, instance, upper_tol=cfg.tol_balance)
    identities = audit_jump_conditions(instance, jumps=jumps)
    comp = component_bound_check(evolution, instance)
    return {
        "tolerances": _echo_sections(cfg)["tolerances"],
        "balance": {
            "residual": [float(x) for x in balance.residual],
            "residual_alt": [float(x) for x in balance.residual_alt],
            "form_difference": [float(x) for x in balance.form_difference],
            "quadrature_bound": [float(x) for x in balance.quadrature_bound],
            "work": [float(x) for x in balance.work],
            "upper_ok": [bool(x) for x in balance.upper_ok],
            "max_form_difference": float(balance.max_form_difference),
        },
        "jump_identities": [
            {"time": a.time, "res_left": a.res_left,
             "res_right": a.res_right, "res_across": a.res_across}
            for a in identities],
        "component_bound": _component_bound_entry(comp),
    }


def _component_bound_entry(comp) -> dict:
    """The bound as a float, or, past the largest float, as null beside
    its finite natural log."""
    if math.isfinite(comp.bound):
        bound = {"bound": float(comp.bound)}
    else:
        bound = {"bound": None, "log_bound": float(comp.log_bound)}
    return {**bound, "worst": float(comp.counts.max()), "ok": bool(comp.ok)}


# ---------------------------------------------------------------------------
# plot extracts
# ---------------------------------------------------------------------------

def _csv(rows, header) -> str:
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, (int, np.integer)):
                cells.append(str(int(x)))
            else:
                cells.append(format(float(x), ".17g"))
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def emit_plot_data(archive: EvolutionArchive, kind: str) -> str:
    """Tidy CSV for one plot kind: energy, dissipation, tips, balance."""
    if kind == "energy":
        bal = (archive.audits or {}).get("balance")
        if bal is None:
            raise ArchiveError("archive carries no balance audit; "
                               "energy plots need the work column")
        rows = zip(archive.times, (s["E"] for s in archive.steps),
                   bal["work"], bal["residual"])
        return _csv(rows, ("t", "E", "work", "balance_residual"))
    if kind == "dissipation":
        rows = ((s["t"], s["d"], s["Delta"], s["alpha"], s["R"])
                for s in archive.steps)
        return _csv(rows, ("t", "d", "Delta", "alpha", "R"))
    if kind == "balance":
        bal = (archive.audits or {}).get("balance")
        if bal is None:
            raise ArchiveError("archive carries no balance audit")
        rows = zip(archive.times, bal["residual"], bal["residual_alt"],
                   bal["form_difference"], bal["quadrature_bound"])
        return _csv(rows, ("t", "residual", "residual_alt",
                           "form_difference", "quadrature_bound"))
    if kind == "tips":
        if not archive.griffith:
            raise ArchiveError("archive has no griffith report; "
                               "run the griffith subcommand first")
        return _csv(archive.griffith["rows"],
                    tuple(archive.griffith["columns"]))
    raise ArchiveError(f"unknown plot kind {kind!r}")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

USAGE = """usage: vefrac <subcommand> [arguments]

subcommands:
  run <config> [--output DIR]         drive a run, write archive.json
  audit <archive>                     re-state the stored audits, PASS/FAIL
  jumpcost <archive> --time T --left IDS --right IDS
                                      price one transition on the run's system
  griffith <archive> --paths E,E,..[;E,..] [--estimator sif|release] [--hsteps N]
                                      tip tracking, KKT checks, griffith.csv
  compare <configA> <configB>         run both, compare first growth steps
  sweep <config> --param NAME --values V1,V2,..
                                      rerun the config across one parameter

exit codes: 0 success (audits report FAIL as data), 1 validation error,
2 numerical failure (CG did not converge, or an energy fell below the
energy floor).
"""


def _split_args(args, n_positional, flags):
    """Tiny deterministic option scanner: every flag takes one value."""
    positional, options = [], {}
    it = iter(args)
    for a in it:
        if a.startswith("--"):
            if a not in flags:
                raise ConfigError(f"unknown option {a}")
            try:
                options[a] = next(it)
            except StopIteration:
                raise ConfigError(f"option {a} needs a value") from None
        else:
            positional.append(a)
    if len(positional) != n_positional:
        raise ConfigError(
            f"expected {n_positional} positional argument(s), "
            f"got {len(positional)}")
    return positional, options


def _read_config(config_path: str) -> tuple[RunConfig, Path]:
    """The config of a file and the directory its paths resolve against."""
    path = Path(config_path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return parse_config(text), path.parent.resolve()


def _run_to_archive(ctx: RunContext, out_dir: Path):
    """Drive the run, detect its jumps, recompute its audits and write
    them with the config echo to out_dir/archive.json. Returns the
    evolution, the jumps, the audits and the archive path."""
    evolution = run_scheme(ctx.instance, ctx.partition, ctx.k0)
    jumps = detect_jumps(evolution)
    audits = collect_audits(evolution, ctx.instance, jumps, ctx.config)
    path = save_archive(evolution, audits, out_dir / "archive.json",
                        config=_config_echo(ctx.config, ctx.base), jumps=jumps)
    return evolution, jumps, audits, path


def _first_change(evolution: DiscreteEvolution):
    changing = evolution.changing_steps()
    return changing[0] if changing else None


def _growth(evolution: DiscreteEvolution) -> str:
    first = _first_change(evolution)
    where = ("never" if first is None
             else f"step {first} (t={evolution.partition.times[first]:.6g})")
    return (f"first growth {where}, "
            f"final {evolution.states[-1].cardinality} edge(s)")


def _summarize_run(evolution: DiscreteEvolution, jumps) -> list[str]:
    first = _first_change(evolution)
    lines = [f"steps: {len(evolution.partition) - 1}, "
             f"final crack: {evolution.states[-1].cardinality} edge(s), "
             f"jumps detected: {len(jumps)}"]
    if first is None:
        lines.append("the crack never moves")
    else:
        t = evolution.partition.times[first]
        lines.append(f"first growth at step {first} (t={t:.6g})")
    return lines


def _cmd_run(args) -> int:
    positional, options = _split_args(args, 1, {"--output"})
    ctx = build_run(*_read_config(positional[0]))
    out_dir = Path(options.get("--output",
                               _resolve(ctx.config.output, Path(ctx.base))))
    evolution, jumps, audits, path = _run_to_archive(ctx, out_dir)
    for line in _summarize_run(evolution, jumps):
        print(line)
    for line in _audit_lines(audits, evolution.ledger.energy.tolist()):
        print(line)
    print(f"archive: {path}")
    return 0


def _audit_lines(audits: dict | None, energies: list[float]) -> list[str]:
    """The verdict lines of a run's audits, whose steps have the
    energies `energies`: what `vefrac audit` prints of an archive and
    `vefrac run` of the audits it stores."""
    if not audits:
        return ["no audits stored"]
    lines = []
    # the energies' size: limits relative to it hold at any load scale
    scale = 1.0 + max(map(abs, energies))
    bal = audits.get("balance")
    if bal:
        diff = bal["max_form_difference"]
        limit = 1e-12 * scale
        ok = diff < limit
        lines.append(f"balance forms: {'PASS' if ok else 'FAIL'} "
                     f"(max difference {diff:.3g}, limit {limit:.3g})")
        upper = all(bal["upper_ok"])
        worst = max(r - q for r, q in zip(bal["residual"],
                                          bal["quadrature_bound"]))
        lines.append(f"upper estimate: {'PASS' if upper else 'FAIL'} "
                     f"(worst residual excess {worst:.3g})")
    idents = audits.get("jump_identities", [])
    if idents:
        tols = audits.get("tolerances", {})
        limit = (tols.get("balance", 1e-9) + tols.get("stability", 1e-9)) * scale
        worst = max(max(abs(a["res_left"]), abs(a["res_right"]),
                        abs(a["res_across"])) for a in idents)
        ok = worst <= limit
        lines.append(f"jump identities: {'PASS' if ok else 'FAIL'} "
                     f"(worst residual {worst:.3g}, limit {limit:.3g})")
    else:
        lines.append("jump identities: PASS (no jumps)")
    comp = audits.get("component_bound")
    if comp:
        bound = (f"{comp['bound']:.3g}" if comp["bound"] is not None
                 else f"exp({comp['log_bound']:.6g})")
        lines.append(f"component bound: {'PASS' if comp['ok'] else 'FAIL'} "
                     f"(worst {comp['worst']:.0f} vs bound {bound})")
    return lines


def _cmd_audit(args) -> int:
    positional, _ = _split_args(args, 1, {})
    archive = load_archive(positional[0])
    energies = [s["E"] for s in archive.steps]
    try:
        lines = _audit_lines(archive.audits, energies)
    except KeyError as exc:
        raise ArchiveError(f"archive audits lack {exc.args[0]!r}") from None
    for line in lines:
        print(line)
    return 0


def _context_from_archive(archive: EvolutionArchive) -> RunContext:
    if not archive.config:
        raise ArchiveError("archive stores no config echo; cannot rebuild "
                           "the run's system")
    cfg, base = _config_from_echo(archive.config)
    return build_run(cfg, base)


def _edge_list(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    try:
        return [int(p) for p in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"malformed edge id list {raw!r}") from None


def _cmd_jumpcost(args) -> int:
    positional, options = _split_args(
        args, 1, {"--time", "--left", "--right"})
    for needed in ("--time", "--left", "--right"):
        if needed not in options:
            raise ConfigError(f"jumpcost needs {needed}")
    archive = load_archive(positional[0])
    ctx = _context_from_archive(archive)
    try:
        t = float(options["--time"])
    except ValueError:
        raise ConfigError(
            f"malformed time {options['--time']!r}") from None
    if not math.isfinite(t):
        raise ConfigError(f"jumpcost --time must be a finite number, got {t!r}")
    left = CrackSet.of_edges(ctx.mesh, _edge_list(options["--left"]))
    right = CrackSet.of_edges(ctx.mesh, _edge_list(options["--right"]))
    # a huge finite t can overflow a(t)^2, and R's arithmetic turns an
    # infinite energy into a NaN cost
    a = ctx.load.amplitude(t)
    if not math.isfinite(a * a):
        raise ConfigError(f"jumpcost cannot price t={t!r}: a(t)^2 = {a * a!r} "
                          "is not finite")
    for name, k in (("--left", left), ("--right", right)):
        energy = ctx.instance.energy(t, k)
        if not math.isfinite(energy):
            raise ConfigError(f"jumpcost cannot price t={t!r}: the energy of "
                              f"{name} is {energy!r}, not finite")
    result = jump_cost(t, left, right, ctx.instance)
    if result.chain is not None and not math.isfinite(result.cost):
        raise ConfigError(f"jumpcost cannot price t={t!r}: the cost is "
                          f"{result.cost!r}, not finite")
    print(f"jump cost at t={t:.6g}: {result.cost:.17g}")
    if result.chain is not None:
        states = " -> ".join(
            "{" + ",".join(map(str, sorted(k.edge_ids))) + "}"
            for k in result.chain)
        print(f"chain: {states}")
        for i, hop in enumerate(result.hops):
            print(f"hop {i}: Delta={hop.delta:.6g} alpha={hop.alpha:.0f} "
                  f"R={hop.r_start:.6g}")
        print(f"lattice nodes: {result.expanded} expanded, "
              f"{result.pruned} pruned")
    return 0


def _parse_paths(mesh: Mesh, raw: str) -> list[TipPath]:
    groups = [g for g in raw.split(";") if g.strip()]
    if not groups:
        raise ConfigError("empty --paths")
    return [TipPath.along(mesh, _edge_list(g)) for g in groups]


def _cmd_griffith(args) -> int:
    positional, options = _split_args(
        args, 1, {"--paths", "--estimator", "--output", "--hsteps"})
    if "--paths" not in options:
        raise ConfigError("griffith needs --paths")
    estimator = options.get("--estimator", "sif")
    if estimator not in ("sif", "release"):
        raise ConfigError(f"estimator must be sif or release, got {estimator!r}")
    try:
        h_steps = int(options.get("--hsteps", "3"))
    except ValueError:
        raise ConfigError(
            f"malformed --hsteps {options['--hsteps']!r}") from None
    if not 1 <= h_steps <= 8:
        raise ConfigError("--hsteps must be between 1 and 8")
    archive_path = Path(positional[0])
    archive = load_archive(archive_path)
    ctx = _context_from_archive(archive)
    evolution = archive.to_evolution(ctx.mesh)
    paths = _parse_paths(ctx.mesh, options["--paths"])
    report = griffith_report(evolution, ctx.load, paths, estimator=estimator,
                             h_steps=h_steps)
    kkt = check_kkt(report)
    rows = [list(r) for r in report.rows()]
    griffith_doc = {
        "estimator": estimator,
        "columns": list(GRIFFITH_COLUMNS),
        "rows": rows,
        "kkt": {
            "tol": kkt.tol, "passed": bool(kkt.passed),
            "rate_ok": bool(kkt.rate_ok),
            "threshold_ok": bool(kkt.threshold_ok),
            "complementarity_ok": bool(kkt.complementarity_ok),
            "worst_rate": kkt.worst_rate,
            "worst_slack": kkt.worst_slack,
            "worst_complementarity": kkt.worst_complementarity,
        },
    }
    save_archive(evolution, archive.audits, archive_path,
                 config=archive.config,
                 jumps=archive.jump_records(ctx.mesh),
                 griffith=griffith_doc)
    out_dir = Path(options.get("--output", archive_path.parent))
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "griffith.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_csv(rows, GRIFFITH_COLUMNS))
    print(f"tips: {report.n_tips}, samples: {len(report.times)}, "
          f"estimator: {estimator}")
    print(f"rate condition: {'PASS' if kkt.rate_ok else 'FAIL'} "
          f"(min sigmadot {kkt.worst_rate:.3g})")
    print(f"threshold condition: {'PASS' if kkt.threshold_ok else 'FAIL'} "
          f"(min slack {kkt.worst_slack:.3g}, tol {kkt.tol:.3g})")
    print(f"complementarity: {'PASS' if kkt.complementarity_ok else 'FAIL'} "
          f"(max {kkt.worst_complementarity:.3g}, tol {kkt.tol:.3g})")
    print(f"csv: {csv_path}")
    return 0


def _cmd_compare(args) -> int:
    positional, _ = _split_args(args, 2, {})
    firsts = []
    for label, cfg_path in zip("AB", positional):
        ctx = build_run(*_read_config(cfg_path))
        evolution = run_scheme(ctx.instance, ctx.partition, ctx.k0)
        firsts.append(_first_change(evolution))
        print(f"{label} [{ctx.config.mode}]: {_growth(evolution)}")
    fa, fb = firsts
    if fa == fb:
        print("both runs first move at the same step"
              if fa is not None else "neither run moves")
    else:
        earlier = "A" if (fb is None or (fa is not None and fa < fb)) else "B"
        print(f"run {earlier} moves first")
    return 0


# sweep parameter -> its config key
_SWEEPABLE = {
    "lambda": ("run", "lambda"),
    "mu": ("run", "mu"),
    "budget": ("search", "budget"),
    "steps": ("partition", "steps"),
    "horizon": ("partition", "horizon"),
    "mode": ("run", "mode"),
}


def _cmd_sweep(args) -> int:
    positional, options = _split_args(args, 1, {"--param", "--values"})
    for needed in ("--param", "--values"):
        if needed not in options:
            raise ConfigError(f"sweep needs {needed}")
    param = options["--param"]
    if param not in _SWEEPABLE:
        raise ConfigError(
            f"unknown sweep parameter {param!r}; pick one of "
            + ", ".join(sorted(_SWEEPABLE)))
    section, key = _SWEEPABLE[param]
    field, read = _FIELDS[section, key]
    values = [read(section, key, v.strip())
              for v in options["--values"].split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")

    base_cfg, base = _read_config(positional[0])
    if section == "partition" and base_cfg.times is not None:
        # explicit times fix the partition whatever steps or horizon say
        raise ConfigError(f"sweep over {param} changes nothing: the config "
                          "sets partition.times")
    # every swept run is built, and so validated, before the first one
    runs = [(value, build_run(replace(base_cfg, **{field: value}), base))
            for value in values]
    for value, ctx in runs:
        out_dir = _resolve(ctx.config.output, base) / f"sweep-{param}-{value}"
        evolution, jumps, _, _ = _run_to_archive(ctx, out_dir)
        print(f"{param}={value}: {_growth(evolution)}, jumps {len(jumps)}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "audit": _cmd_audit,
    "jumpcost": _cmd_jumpcost,
    "griffith": _cmd_griffith,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
}

# inputs a run cannot take (exit 1); a NumericalError is an ElasticError
# that reports a failed computation (exit 2), so it is caught first
_VALIDATION_ERRORS = (ConfigError, ArchiveError, MeshError, GriffithError,
                      ElasticError, ValueError, OSError)


def cli_dispatch(argv) -> int:
    """Route one invocation; never raises for user-input problems."""
    argv = list(argv)
    if not argv:
        print(USAGE, end="")
        return 1
    if argv[0] in ("-h", "--help", "help"):
        print(USAGE, end="")
        return 0
    handler = _COMMANDS.get(argv[0])
    if handler is None:
        print(f"unknown subcommand {argv[0]!r}")
        print(USAGE, end="")
        return 1
    try:
        return handler(argv[1:])
    except NumericalError as exc:
        print(f"numerical failure: {exc}")
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}")
        return 1


def main() -> None:
    import sys
    raise SystemExit(cli_dispatch(sys.argv[1:]))
