from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vefrac.benchmarks import growth_strip, nucleation_well
from vefrac.cli_io import (
    ArchiveError,
    ConfigError,
    build_run,
    cli_dispatch,
    collect_audits,
    emit_plot_data,
    load_archive,
    parse_config,
    save_archive,
)
from vefrac.elastic import ElasticError, LinearAmplitude, TableAmplitude
from vefrac.evolution import (
    DiscreteEvolution,
    StepLedger,
    TimePartition,
    detect_jumps,
    run_scheme,
)
from vefrac.geometry import CrackSet, write_mesh

MINIMAL = """
[run]
mesh = well.mesh
"""

WELL_INI = """
[run]
mesh = well.mesh
lambda = 0.1
mu = 0.1
mode = {mode}
output = {output}

[load]
profile = builtin:linear-y
amplitude = linear(0, 1)

[partition]
steps = 24
horizon = 12

[pool]
kind = pairs
items = 11 12, 12 13

[search]
mode = exhaustive
budget = 3
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with the two-well mesh, a strip mesh with its load
    profile, and ready-made configs."""
    root = tmp_path_factory.mktemp("cli")
    mesh, _, _ = nucleation_well()
    write_mesh(mesh, root / "well.mesh")
    (root / "well.ini").write_text(WELL_INI.format(mode="ve", output="out"))
    (root / "well-e.ini").write_text(
        WELL_INI.format(mode="energetic", output="out-e"))

    smesh, sload, sk0, spool, spath = growth_strip(
        nx=16, ny=8, width=2.0, height=1.0, x_scale=1.0,
        horizon=5.5, n_precracked=6)
    write_mesh(smesh, root / "strip.mesh")
    np.savetxt(root / "strip-profile.txt", sload.profile, fmt="%.17g")
    pair = lambda e: "{} {}".format(*map(int, smesh.edges[e]))
    strip_ini = f"""
[run]
mesh = strip.mesh
lambda = 0.1
mu = 0.1
output = strip-out

[load]
profile = strip-profile.txt
amplitude = linear(0, 1)

[partition]
steps = 40
horizon = 5.5

[pool]
kind = pairs
items = {", ".join(pair(e) for e in spath)}
initial = {", ".join(pair(e) for e in spath[:6])}

[search]
budget = 1
"""
    (root / "strip.ini").write_text(strip_ini)
    tip_arg = ",".join(str(e) for e in spath[6:])
    return {"root": root, "tip_arg": tip_arg}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.mesh == "well.mesh"
    assert cfg.budget == 3
    assert cfg.steps == 50
    assert cfg.mode == "ve" and cfg.search == "exhaustive"
    assert cfg.lam == 1.0 and cfg.mu == 1.0
    assert cfg.pool_kind == "all-interior" and cfg.pool_items == ()
    assert cfg.initial == ()
    assert cfg.tol_stability == 1e-9 and cfg.tol_balance == 1e-9


README = Path(__file__).resolve().parent.parent / "README.md"

# README key -> RunConfig field
_DOCUMENTED_FIELDS = {
    ("run", "mode"): "mode", ("run", "lambda"): "lam", ("run", "mu"): "mu",
    ("run", "output"): "output", ("load", "profile"): "profile",
    ("load", "amplitude"): "amplitude", ("partition", "steps"): "steps",
    ("partition", "horizon"): "horizon", ("pool", "kind"): "pool_kind",
    ("search", "mode"): "search", ("search", "budget"): "budget",
    ("tolerances", "stability"): "tol_stability",
    ("tolerances", "balance"): "tol_balance",
}


def test_readme_defaults_match_parser():
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| `([^`]*)` \|$",
                      README.read_text(encoding="utf-8"), flags=re.M)
    documented = {(sec, key): raw for sec, key, raw in rows}
    assert set(documented) == set(_DOCUMENTED_FIELDS)
    cfg = parse_config(MINIMAL)
    for (sec, key), raw in documented.items():
        value = getattr(cfg, _DOCUMENTED_FIELDS[(sec, key)])
        if isinstance(value, str):
            assert value == raw, (sec, key)
        else:
            assert value == float(raw), (sec, key)


def test_parse_rejects_nonpositive_moduli():
    with pytest.raises(ConfigError, match="^lambda must be positive$"):
        parse_config(MINIMAL + "lambda = 0\n")
    with pytest.raises(ConfigError, match="mu must be positive"):
        parse_config(MINIMAL + "mu = -2\n")


def test_parse_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown config key: run.colour"):
        parse_config(MINIMAL + "colour = red\n")
    with pytest.raises(ConfigError, match="unknown config section: extras"):
        parse_config(MINIMAL + "\n[extras]\nx = 1\n")


def test_parse_rejects_malformed_numbers():
    with pytest.raises(ConfigError, match="malformed number for run.lambda"):
        parse_config(MINIMAL + "lambda = tiny\n")
    with pytest.raises(ConfigError, match="malformed integer for search.budget"):
        parse_config(MINIMAL + "\n[search]\nbudget = many\n")


def test_parse_requires_mesh():
    with pytest.raises(ConfigError, match="missing mesh"):
        parse_config("[run]\nmode = ve\n")


def test_parse_explicit_times_and_pool():
    cfg = parse_config(MINIMAL + """
[partition]
times = 0, 0.5, 1.25

[pool]
kind = pairs
items = 3 4, 4 5
initial = 3 4
""")
    assert cfg.times == (0.0, 0.5, 1.25)
    assert cfg.pool_items == ((3, 4), (4, 5))
    assert cfg.initial == ((3, 4),)


def test_parse_validation_grab_bag():
    with pytest.raises(ConfigError, match="budget must be between"):
        parse_config(MINIMAL + "\n[search]\nbudget = 40\n")
    with pytest.raises(ConfigError, match="mode must be"):
        parse_config(MINIMAL + "mode = frantic\n")
    with pytest.raises(ConfigError, match="pool kind"):
        parse_config(MINIMAL + "\n[pool]\nkind = everything\n")
    with pytest.raises(ConfigError, match="two vertex ids"):
        parse_config(MINIMAL + "\n[pool]\nkind = pairs\nitems = 1 2 3\n")
    with pytest.raises(ConfigError, match="make no sense"):
        parse_config(MINIMAL + "\n[pool]\nitems = 1 2\n")
    with pytest.raises(ConfigError, match="needs items"):
        parse_config(MINIMAL + "\n[pool]\nkind = edges\n")
    with pytest.raises(ConfigError, match="at least the two endpoints"):
        parse_config(MINIMAL + "\n[partition]\ntimes = 1.0\n")
    with pytest.raises(ConfigError, match="tolerance balance must be positive"):
        parse_config(MINIMAL + "\n[tolerances]\nbalance = 0\n")
    with pytest.raises(ConfigError, match="^tolerance solver is fixed at 1e-10$"):
        parse_config(MINIMAL + "\n[tolerances]\nsolver = 1e-12\n")
    with pytest.raises(ConfigError, match="^tolerance h is fixed at 1e-08$"):
        parse_config(MINIMAL + "\n[tolerances]\nh = 1e-6\n")
    parse_config(MINIMAL + "\n[tolerances]\nsolver = 1e-10\nh = 0.00000001\n")
    # edited configs are validated by the same rules
    with pytest.raises(ConfigError, match="budget must be between"):
        replace(parse_config(MINIMAL), budget=40)


# ---------------------------------------------------------------------------
# building runs
# ---------------------------------------------------------------------------

def test_build_run_wires_everything(workdir):
    root = workdir["root"]
    cfg = parse_config((root / "well.ini").read_text())
    ctx = build_run(cfg, root)
    assert ctx.mesh.n_vertices == 25
    assert ctx.pool.cardinality == 2
    assert ctx.k0.cardinality == 0
    assert len(ctx.partition) == 25
    assert ctx.partition.horizon == 12.0
    assert isinstance(ctx.load.amplitude, LinearAmplitude)
    assert ctx.instance.budget == 3


def test_build_run_all_interior_excludes_grips(workdir):
    root = workdir["root"]
    cfg = parse_config(MINIMAL)
    ctx = build_run(cfg, root)
    grips = set(map(int, ctx.mesh.dirichlet_edges()))
    assert grips
    assert not (set(ctx.pool.edge_ids) & grips)
    assert ctx.pool.cardinality == ctx.mesh.n_edges - len(grips)


def test_build_run_profile_file_and_table(workdir, tmp_path):
    root = workdir["root"]
    (tmp_path / "well.mesh").write_bytes((root / "well.mesh").read_bytes())
    mesh, _, _ = nucleation_well()
    np.savetxt(tmp_path / "prof.txt", 2.0 * mesh.vertices[:, 1], fmt="%.17g")
    (tmp_path / "amp.tab").write_text("0 0\n6 1\n12 3\n")
    cfg = parse_config("""
[run]
mesh = well.mesh

[load]
profile = prof.txt
amplitude = table(amp.tab)
""")
    ctx = build_run(cfg, tmp_path)
    np.testing.assert_allclose(ctx.load.profile, 2.0 * mesh.vertices[:, 1])
    assert isinstance(ctx.load.amplitude, TableAmplitude)
    assert ctx.load.amplitude(9.0) == pytest.approx(2.0)


def test_build_run_rejects_bad_specs(workdir):
    root = workdir["root"]
    with pytest.raises(ConfigError, match="unknown builtin"):
        build_run(parse_config(MINIMAL + "\n[load]\nprofile = builtin:waves\n"),
                  root)
    with pytest.raises(ConfigError, match="amplitude must be"):
        build_run(parse_config(MINIMAL + "\n[load]\namplitude = steps(1)\n"),
                  root)
    with pytest.raises(ConfigError, match="start at time 0"):
        build_run(parse_config(MINIMAL + "\n[partition]\ntimes = 1, 2\n"),
                  root)


# ---------------------------------------------------------------------------
# archives
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def well_run(workdir):
    root = workdir["root"]
    cfg = parse_config((root / "well.ini").read_text())
    ctx = build_run(cfg, root)
    evo = run_scheme(ctx.instance, ctx.partition, ctx.k0)
    jumps = detect_jumps(evo)
    audits = collect_audits(evo, ctx.instance, jumps, cfg)
    return ctx, evo, jumps, audits


def test_archive_round_trip_is_lossless(workdir, well_run, tmp_path):
    ctx, evo, jumps, audits = well_run
    path = save_archive(evo, audits, tmp_path / "a.json", jumps=jumps)
    arch = load_archive(path)
    assert arch.schema == "ve-fracture/1"
    rebuilt = arch.to_evolution(ctx.mesh)
    assert np.array_equal(rebuilt.partition.times, evo.partition.times)
    assert [k.bits for k in rebuilt.states] == [k.bits for k in evo.states]
    for name, col in evo.ledger.as_dict().items():
        assert np.array_equal(getattr(rebuilt.ledger, name), col), name
    recs = arch.jump_records(ctx.mesh)
    assert [(r.index, r.time, r.magnitude) for r in recs] == \
           [(r.index, r.time, r.magnitude) for r in jumps]


def test_archive_carries_17_digit_floats(well_run, tmp_path):
    _, evo, _, _ = well_run
    path = save_archive(evo, None, tmp_path / "a.json",
                        config={"lam": 0.1, "third": 1 / 3})
    text = path.read_text()
    assert "0.10000000000000001" in text
    assert "0.33333333333333331" in text
    doc = json.loads(text)
    assert doc["schema"] == "ve-fracture/1"
    for i, step in enumerate(doc["steps"]):
        assert step["E"] == float(evo.ledger.energy[i])


def test_archive_rejects_other_schema(well_run, tmp_path):
    _, evo, _, _ = well_run
    path = save_archive(evo, None, tmp_path / "a.json")
    doc = json.loads(path.read_text())
    doc["schema"] = "ve-fracture/2"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match="unsupported archive schema"):
        load_archive(path)
    path.write_text("not json at all")
    with pytest.raises(ArchiveError, match="not valid JSON"):
        load_archive(path)


def test_minimal_archive_of_an_empty_run(workdir, tmp_path):
    root = workdir["root"]
    cfg = parse_config(MINIMAL)
    ctx = build_run(cfg, root)
    n = 2
    evo = DiscreteEvolution(
        partition=TimePartition.uniform(1.0, 1),
        states=[CrackSet.empty(ctx.mesh)] * n,
        ledger=StepLedger(*(np.zeros(n) for _ in range(7))))
    path = save_archive(evo, None, tmp_path / "empty.json")
    arch = load_archive(path)
    assert arch.audits is None and arch.jumps == []
    back = arch.to_evolution(ctx.mesh)
    assert [k.bits for k in back.states] == [0, 0]


def test_archive_refuses_non_finite(workdir, tmp_path):
    root = workdir["root"]
    ctx = build_run(parse_config(MINIMAL), root)
    evo = DiscreteEvolution(
        partition=TimePartition.uniform(1.0, 1),
        states=[CrackSet.empty(ctx.mesh)] * 2,
        ledger=StepLedger(*(np.full(2, np.inf) for _ in range(7))))
    with pytest.raises(ArchiveError, match="non-finite"):
        save_archive(evo, None, tmp_path / "bad.json")


# ---------------------------------------------------------------------------
# plot extracts
# ---------------------------------------------------------------------------

def test_emit_plot_data_kinds(well_run, tmp_path):
    _, evo, jumps, audits = well_run
    path = save_archive(evo, audits, tmp_path / "a.json", jumps=jumps)
    arch = load_archive(path)
    n = len(evo.partition)
    for kind, header in (
            ("energy", "t,E,work,balance_residual"),
            ("dissipation", "t,d,Delta,alpha,R"),
            ("balance", "t,residual,residual_alt,form_difference,"
                        "quadrature_bound")):
        lines = emit_plot_data(arch, kind).strip().split("\n")
        assert lines[0] == header
        assert len(lines) - 1 == n
    with pytest.raises(ArchiveError, match="no griffith report"):
        emit_plot_data(arch, "tips")
    with pytest.raises(ArchiveError, match="unknown plot kind"):
        emit_plot_data(arch, "entropy")


def test_emit_energy_needs_audits(well_run, tmp_path):
    _, evo, _, _ = well_run
    arch = load_archive(save_archive(evo, None, tmp_path / "a.json"))
    with pytest.raises(ArchiveError, match="no balance audit"):
        emit_plot_data(arch, "energy")


# ---------------------------------------------------------------------------
# the dispatcher
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def well_archive(workdir):
    root = workdir["root"]
    assert cli_dispatch(["run", str(root / "well.ini")]) == 0
    return root / "out" / "archive.json"


def test_cli_run_writes_deterministic_archive(workdir, well_archive, capsys):
    root = workdir["root"]
    first = well_archive.read_bytes()
    assert cli_dispatch(["run", str(root / "well.ini")]) == 0
    out = capsys.readouterr().out
    assert "archive:" in out and "first growth at step" in out
    assert well_archive.read_bytes() == first


def test_cli_audit_reports_pass_and_fail(workdir, well_archive, capsys):
    root = workdir["root"]
    assert cli_dispatch(["audit", str(well_archive)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 3 and "FAIL" not in out
    doc = json.loads(well_archive.read_text())
    doc["audits"]["balance"]["max_form_difference"] = 1.0
    tampered = root / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert cli_dispatch(["audit", str(tampered)]) == 0
    assert "FAIL" in capsys.readouterr().out


def test_cli_audit_passes_an_energetic_archive(workdir, capsys):
    # an energetic run is audited with the energetic costs that drove it
    root = workdir["root"]
    assert cli_dispatch(["run", str(root / "well-e.ini")]) == 0
    capsys.readouterr()
    assert cli_dispatch(["audit", str(root / "out-e" / "archive.json")]) == 0
    out = capsys.readouterr().out
    assert "jump identities: PASS (worst" in out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_cli_jumpcost(well_archive, capsys):
    code = cli_dispatch(["jumpcost", str(well_archive),
                         "--time", "6.5", "--left", "", "--right", "29,32"])
    assert code == 0
    out = capsys.readouterr().out
    assert "jump cost at t=6.5" in out and "chain:" in out
    assert cli_dispatch(["jumpcost", str(well_archive),
                         "--time", "6.5", "--left", ""]) == 1
    assert "needs --right" in capsys.readouterr().out


def test_cli_griffith_updates_archive(workdir, capsys):
    root = workdir["root"]
    assert cli_dispatch(["run", str(root / "strip.ini")]) == 0
    capsys.readouterr()
    arch = root / "strip-out" / "archive.json"
    code = cli_dispatch(["griffith", str(arch),
                         "--paths", workdir["tip_arg"],
                         "--estimator", "release", "--hsteps", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rate condition: PASS" in out
    assert "complementarity: PASS" in out
    assert (root / "strip-out" / "griffith.csv").read_text().startswith(
        "t,tip,sigma,sigmadot,kappa2,slack,compl")
    stored = load_archive(arch)
    assert stored.griffith is not None
    lines = emit_plot_data(stored, "tips").strip().split("\n")
    assert len(lines) - 1 == 41
    assert cli_dispatch(["griffith", str(arch)]) == 1
    assert "needs --paths" in capsys.readouterr().out


def test_cli_compare_flags_the_earlier_mode(workdir, capsys):
    root = workdir["root"]
    code = cli_dispatch(["compare", str(root / "well-e.ini"),
                         str(root / "well.ini")])
    assert code == 0
    out = capsys.readouterr().out
    assert "A [energetic]" in out and "B [ve]" in out
    assert "run A moves first" in out


def test_cli_sweep(workdir, capsys):
    root = workdir["root"]
    code = cli_dispatch(["sweep", str(root / "well.ini"),
                         "--param", "lambda", "--values", "0.05,0.4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda=0.05:" in out and "lambda=0.4:" in out
    assert (root / "out" / "sweep-lambda-0.05" / "archive.json").exists()
    assert (root / "out" / "sweep-lambda-0.4" / "archive.json").exists()
    assert cli_dispatch(["sweep", str(root / "well.ini"),
                         "--param", "gravity", "--values", "1"]) == 1
    assert "unknown sweep parameter" in capsys.readouterr().out
    assert cli_dispatch(["sweep", str(root / "well.ini"),
                         "--param", "lambda", "--values", "0"]) == 1
    assert "lambda must be positive" in capsys.readouterr().out


def test_cli_usage_and_unknowns(capsys):
    assert cli_dispatch([]) == 1
    assert "usage:" in capsys.readouterr().out
    assert cli_dispatch(["--help"]) == 0
    assert "subcommands:" in capsys.readouterr().out
    assert cli_dispatch(["transmogrify"]) == 1
    assert "unknown subcommand" in capsys.readouterr().out
    assert cli_dispatch(["run", "a.ini", "--frobnicate", "5"]) == 1
    assert "unknown option" in capsys.readouterr().out
    assert cli_dispatch(["run"]) == 1
    assert "positional" in capsys.readouterr().out
    assert cli_dispatch(["run", "no-such-file.ini"]) == 1
    assert "cannot read config" in capsys.readouterr().out


def test_cli_exit_codes_by_failure_kind(workdir, capsys, monkeypatch):
    root = workdir["root"]
    import vefrac.cli_io as cli

    def solver_blowup(path):
        raise ElasticError("CG failed to converge (info=30, residual=1.0e+00)")

    monkeypatch.setattr(cli, "read_mesh", solver_blowup)
    assert cli_dispatch(["run", str(root / "well.ini")]) == 2
    assert "numerical failure" in capsys.readouterr().out

    def other_elastic(path):
        raise ElasticError("load profile must be a finite 1d nodal array")

    monkeypatch.setattr(cli, "read_mesh", other_elastic)
    assert cli_dispatch(["run", str(root / "well.ini")]) == 1
    assert "error:" in capsys.readouterr().out
