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
from vefrac.elastic import ElasticError, LinearAmplitude, NumericalError, TableAmplitude
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


def test_parse_names_pool_initial_in_its_errors():
    pool = "\n[pool]\nkind = pairs\nitems = 3 4\n"
    with pytest.raises(ConfigError,
                       match=r"^malformed integer for pool\.initial: 'x'$"):
        parse_config(MINIMAL + pool + "initial = 1 x\n")
    with pytest.raises(ConfigError,
                       match=r"^pool\.initial pairs need two vertex ids per group"):
        parse_config(MINIMAL + pool + "initial = 1 2 3\n")
    with pytest.raises(ConfigError,
                       match=r"^malformed integer for pool\.items: 'y'$"):
        parse_config(MINIMAL + "\n[pool]\nkind = pairs\nitems = 3 y\n")


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


def test_parse_validation_grab_bag(tmp_path, capsys):
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
    # non-finite numbers are refused by name, before any rule they would
    # pass (inf tolerances) or fail misleadingly (inf lambda or horizon)
    for section, key, raw in (("run", "lambda", "inf"), ("run", "mu", "nan"),
                              ("partition", "horizon", "inf"),
                              ("partition", "times", "0, nan, 1"),
                              ("tolerances", "stability", "nan"),
                              ("tolerances", "balance", "inf")):
        text = MINIMAL + ("" if section == "run" else f"\n[{section}]\n")
        text += f"{key} = {raw}\n"
        with pytest.raises(ConfigError,
                           match=f"^{section}.{key} must be a finite number"):
            parse_config(text)
        (tmp_path / "bad.ini").write_text(text)
        assert cli_dispatch(["run", str(tmp_path / "bad.ini")]) == 1
        assert f"{section}.{key} must be a finite" in capsys.readouterr().out
    with pytest.raises(ConfigError, match="^run.lambda must be a finite"):
        replace(parse_config(MINIMAL), lam=float("inf"))


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


@pytest.mark.parametrize("amplitude,profile,message", [
    ("linear(nan, 1)", "builtin:linear-y",
     "load.amplitude must be a finite number, got nan"),
    ("linear(0, inf)", "builtin:linear-y",
     "load.amplitude must be a finite number, got inf"),
    ("table(amp.tab)", "builtin:linear-y",
     "malformed number for load.amplitude: 'x'"),
    ("linear(0, 1)", "prof.txt", "malformed number for load.profile: 'x'"),
    ("table(nan.tab)", "builtin:linear-y",
     "load.amplitude must be a finite number, got nan"),
    ("linear(0, 1)", "nan.txt", "load.profile must be a finite number, got nan"),
    # a(0.5)^2 overflows: refused before any solve prints a warning
    ("linear(0, 1e200)", "builtin:linear-y",
     "load.amplitude overflows at t=0.5: a(t)^2 = inf, a'(t)*a(t) = inf"),
    ("table(big.tab)", "builtin:linear-y",
     "load.amplitude overflows at t=0.5: a(t)^2 = inf, a'(t)*a(t) = inf"),
], ids=["nan-coefficient", "inf-coefficient", "table-row", "profile-line",
        "nan-table-row", "nan-profile-line", "overflowing-coefficient",
        "overflowing-table-row"])
@pytest.mark.filterwarnings("error")
def test_cli_refuses_a_bad_load_before_running(workdir, tmp_path, capsys,
                                               amplitude, profile, message):
    (tmp_path / "well.mesh").write_bytes((workdir["root"] / "well.mesh").read_bytes())
    (tmp_path / "amp.tab").write_text("0 0\n1 x\n")
    (tmp_path / "prof.txt").write_text("0\nx\n")
    (tmp_path / "nan.tab").write_text("0 0\n1 nan\n")
    (tmp_path / "big.tab").write_text("0 0\n12 1e200\n")
    (tmp_path / "nan.txt").write_text("0\nnan\n")
    ini = WELL_INI.format(mode="ve", output="out").replace(
        "amplitude = linear(0, 1)", f"amplitude = {amplitude}").replace(
        "profile = builtin:linear-y", f"profile = {profile}")
    (tmp_path / "run.ini").write_text(ini)
    assert cli_dispatch(["run", str(tmp_path / "run.ini")]) == 1
    assert capsys.readouterr().out.strip() == f"error: {message}"
    assert not (tmp_path / "out").exists()


def test_cli_names_a_malformed_mesh_line(workdir, tmp_path, capsys):
    lines = (workdir["root"] / "well.mesh").read_text().splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("v "))
    lines[first] = "v 1.0 x"
    (tmp_path / "well.mesh").write_text("\n".join(lines) + "\n")
    (tmp_path / "run.ini").write_text(WELL_INI.format(mode="ve", output="out"))
    assert cli_dispatch(["run", str(tmp_path / "run.ini")]) == 1
    assert capsys.readouterr().out.strip() == \
        "error: malformed vertex line: 'v 1.0 x'"
    assert not (tmp_path / "out").exists()


def test_cli_names_a_mesh_index_past_int64(workdir, tmp_path, capsys):
    lines = (workdir["root"] / "well.mesh").read_text().splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("t "))
    lines[first] = "t 0 1 99999999999999999999"
    (tmp_path / "well.mesh").write_text("\n".join(lines) + "\n")
    (tmp_path / "run.ini").write_text(WELL_INI.format(mode="ve", output="out"))
    assert cli_dispatch(["run", str(tmp_path / "run.ini")]) == 1
    assert capsys.readouterr().out.strip() == ("error: vertex index out of range in "
                                               "triangle line: 't 0 1 99999999999999999999'")
    assert not (tmp_path / "out").exists()


def test_cli_refuses_a_nan_dirichlet_bbox(workdir, tmp_path, capsys):
    # the bbox line selects nothing, and the pairs beside it would run
    text = (workdir["root"] / "well.mesh").read_text()
    (tmp_path / "well.mesh").write_text(text + "dirichlet bbox nan 0 1 1\n")
    (tmp_path / "run.ini").write_text(WELL_INI.format(mode="ve", output="out"))
    assert cli_dispatch(["run", str(tmp_path / "run.ini")]) == 1
    assert capsys.readouterr().out.strip() == \
        "error: NaN bound in dirichlet bbox line: 'dirichlet bbox nan 0 1 1'"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("doc, message", [
    ({"steps": [], "jumps": []}, "archive lacks 'partition'"),
    ({"partition": [0.0], "jumps": []}, "archive lacks 'steps'"),
    ({"partition": [0.0], "steps": []}, "archive lacks 'jumps'"),
    ({"partition": 0.0, "steps": [], "jumps": []},
     "archive 'partition' must be a list, not float"),
    ({"partition": [0.0], "steps": 3, "jumps": []},
     "archive 'steps' must be a list, not int"),
    ({"partition": [0.0], "steps": [], "jumps": None},
     "archive 'jumps' must be a list, not NoneType"),
], ids=["no-partition", "no-steps", "no-jumps", "partition-float", "steps-int",
        "jumps-null"])
def test_cli_refuses_an_archive_without_its_lists(doc, message, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"schema": "ve-fracture/1", **doc}))
    for argv in (["audit", str(path)],
                 ["jumpcost", str(path), "--time", "1.0", "--left", "",
                  "--right", "1"],
                 ["griffith", str(path), "--paths", "1"]):
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().out == f"error: {message}\n"


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
    assert not (tmp_path / "bad.json").exists()
    # a failed save leaves an existing archive as it was
    good = replace(evo, ledger=StepLedger(*(np.zeros(2) for _ in range(7))))
    before = save_archive(good, None, tmp_path / "kept.json").read_bytes()
    with pytest.raises(ArchiveError, match="non-finite"):
        save_archive(evo, None, tmp_path / "kept.json")
    assert (tmp_path / "kept.json").read_bytes() == before


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


@pytest.mark.parametrize("tamper, message", [
    (lambda doc: doc.update(steps=[]), "archive has no steps"),
    (lambda doc: doc["steps"][1].pop("E"), "archive step 1 lacks 'E'"),
    (lambda doc: doc["steps"][0].pop("t"), "archive step 0 lacks 't'"),
    (lambda doc: doc["steps"][2].pop("edges"), "archive step 2 lacks 'edges'"),
    (lambda doc: doc["steps"][-1].pop("R"), "archive step 24 lacks 'R'"),
    (lambda doc: doc["steps"].__setitem__(0, 3), "archive step 0 must be an object, not int"),
    (lambda doc: doc["audits"]["balance"].pop("upper_ok"), "archive audits lack 'upper_ok'"),
    (lambda doc: doc["audits"]["component_bound"].pop("worst"), "archive audits lack 'worst'"),
], ids=["no-steps", "step-without-E", "step-without-t", "step-without-edges",
        "step-without-R", "step-not-an-object", "balance-without-upper_ok",
        "component-bound-without-worst"])
def test_cli_audit_refuses_a_malformed_archive(workdir, well_archive, capsys,
                                                tamper, message):
    doc = json.loads(well_archive.read_text())
    tamper(doc)
    path = workdir["root"] / "malformed.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_dispatch(["audit", str(path)]) == 1
    assert capsys.readouterr().out == f"error: {message}\n"


def test_cli_audit_passes_an_energetic_archive(workdir, capsys):
    # an energetic run is audited with the energetic costs that drove it
    root = workdir["root"]
    assert cli_dispatch(["run", str(root / "well-e.ini")]) == 0
    capsys.readouterr()
    assert cli_dispatch(["audit", str(root / "out-e" / "archive.json")]) == 0
    out = capsys.readouterr().out
    assert "jump identities: PASS (worst" in out
    assert out.count("PASS") == 4 and "FAIL" not in out


@pytest.mark.parametrize("rate", ["1e3", "1e6"])
def test_cli_run_keeps_the_archive_of_a_fast_load(rate, tmp_path, capsys, bench_workloads):
    # C_P T reaches 6e3 and 6e6: exp overflows, and the bound is stored
    # as null beside its finite log
    inputs = bench_workloads.generate("grid", tmp_path, 1)
    text = inputs.config.read_text(encoding="utf-8")
    assert "amplitude = linear(0, 1)\n" in text
    inputs.config.write_text(text.replace("amplitude = linear(0, 1)\n",
                                          f"amplitude = linear(0, {rate})\n"),
                             encoding="utf-8")
    assert cli_dispatch(["run", str(inputs.config)]) == 0
    bound = json.loads(inputs.archive.read_text())["audits"]["component_bound"]
    assert bound["bound"] is None and bound["ok"] is True
    assert 6.0 * float(rate) < bound["log_bound"] < 6.1 * float(rate)
    capsys.readouterr()
    assert cli_dispatch(["audit", str(inputs.archive)]) == 0
    assert "component bound: PASS (worst 1 vs bound exp(" in capsys.readouterr().out


@pytest.mark.parametrize("rate", ["150", "1e6"])
def test_cli_audit_scales_the_balance_forms_limit_with_the_energies(rate, tmp_path, capsys,
                                                                     bench_workloads):
    # the two balance forms differ by float re-association, which grows
    # with E ~ a(t)^2: the limit is 1e-12 (1 + max |E|), as the jump
    # identities' limit is scaled. `run` prints the four verdict lines
    # that `audit` prints of the archive it wrote, before its path
    inputs = bench_workloads.generate("grid", tmp_path, 1)
    text = inputs.config.read_text(encoding="utf-8")
    inputs.config.write_text(text.replace("amplitude = linear(0, 1)\n",
                                          f"amplitude = linear(0, {rate})\n"),
                             encoding="utf-8")
    assert cli_dispatch(["run", str(inputs.config)]) == 0
    ran = capsys.readouterr().out.splitlines()
    doc = json.loads(inputs.archive.read_text())
    diff = doc["audits"]["balance"]["max_form_difference"]
    limit = 1e-12 * (1.0 + max(abs(s["E"]) for s in doc["steps"]))
    assert 1e-12 < diff < limit
    assert cli_dispatch(["audit", str(inputs.archive)]) == 0
    audited = capsys.readouterr().out.splitlines()
    assert (f"balance forms: PASS (max difference {diff:.3g}, limit {limit:.3g})"
            in audited)
    assert len(audited) == 4 and ran[-5:] == [*audited, f"archive: {inputs.archive}"]


def test_cli_jumpcost(well_archive, capsys):
    code = cli_dispatch(["jumpcost", str(well_archive),
                         "--time", "6.5", "--left", "", "--right", "29,32"])
    assert code == 0
    out = capsys.readouterr().out
    assert "jump cost at t=6.5" in out and "chain:" in out
    assert cli_dispatch(["jumpcost", str(well_archive),
                         "--time", "6.5", "--left", ""]) == 1
    assert "needs --right" in capsys.readouterr().out


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_cli_jumpcost_refuses_a_non_finite_time(well_archive, time, capsys):
    assert cli_dispatch(["jumpcost", str(well_archive), "--time", time,
                         "--left", "", "--right", "29,32"]) == 1
    assert capsys.readouterr().out == (
        f"error: jumpcost --time must be a finite number, got {float(time)!r}\n")


def test_cli_jumpcost_refuses_a_time_whose_load_overflows(well_archive, capsys):
    # a(1e200)^2 overflows to inf, which priced a NaN cost; a finite t
    # outside the run's partition is priced like any other
    assert cli_dispatch(["jumpcost", str(well_archive), "--time", "1e200",
                         "--left", "", "--right", "29,32"]) == 1
    assert capsys.readouterr().out == (
        "error: jumpcost cannot price t=1e+200: a(t)^2 = inf is not finite\n")
    assert cli_dispatch(["jumpcost", str(well_archive), "--time", "-5",
                         "--left", "", "--right", "29,32"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("jump cost at t=-5: ") and "nan" not in out


def test_cli_jumpcost_reports_lattice_nodes(well_archive, capsys):
    # the node counts are deterministic: two calls print the same line
    lines = []
    for _ in range(2):
        assert cli_dispatch(["jumpcost", str(well_archive), "--time", "6.5",
                             "--left", "", "--right", "29,32"]) == 0
        out = capsys.readouterr().out
        lines.append([ln for ln in out.splitlines()
                      if ln.startswith("lattice nodes:")])
    assert len(lines[0]) == 1 and lines[0] == lines[1]
    assert re.fullmatch(r"lattice nodes: [1-9]\d* expanded, \d+ pruned",
                        lines[0][0])


def test_cli_names_a_key_missing_from_the_config_echo(well_archive, tmp_path,
                                                      capsys):
    doc = json.loads(well_archive.read_text())
    for drop, key in ((("run", "mu"), "run.mu"), (("search",), "search.mode"),
                      (("base",), "base")):
        broken = json.loads(json.dumps(doc))
        parent = broken["config"]
        for name in drop[:-1]:
            parent = parent[name]
        del parent[drop[-1]]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        for argv in (["jumpcost", str(path), "--time", "6.5", "--left", "",
                      "--right", "29,32"],
                     ["griffith", str(path), "--paths", "29,32"]):
            assert cli_dispatch(argv) == 1
            assert capsys.readouterr().out == (
                f"error: archive config echo lacks {key}\n")


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


def test_cli_sweep_reads_values_and_config_like_run(workdir, capsys):
    ini = str(workdir["root"] / "well.ini")
    for param, values, message in (
            ("lambda", "0.1,tiny", "malformed number for run.lambda: 'tiny'"),
            ("budget", "2,many", "malformed integer for search.budget: 'many'"),
            ("steps", "1.5", "malformed integer for partition.steps: '1.5'")):
        assert cli_dispatch(["sweep", ini, "--param", param,
                             "--values", values]) == 1
        assert capsys.readouterr().out == f"error: {message}\n"
    assert cli_dispatch(["sweep", "no-such-file.ini", "--param", "mu",
                         "--values", "1"]) == 1
    assert "error: cannot read config" in capsys.readouterr().out


def test_cli_sweep_checks_every_value_before_the_first_run(workdir, capsys):
    root = workdir["root"]
    assert cli_dispatch(["sweep", str(root / "well.ini"), "--param", "mode",
                         "--values", "ve,frantic"]) == 1
    assert capsys.readouterr().out == (
        "error: mode must be 've' or 'energetic', got 'frantic'\n")
    assert not (root / "out" / "sweep-mode-ve").exists()


def test_cli_refuses_an_amplitude_table_shorter_than_the_run(workdir, tmp_path, capsys):
    # a table over [0, 3] with horizon 6 held E constant on [3, 6] while
    # the archive's power column kept the last slope; run and sweep both
    # refuse it before anything is written
    (tmp_path / "well.mesh").write_bytes((workdir["root"] / "well.mesh").read_bytes())
    (tmp_path / "amp.tab").write_text("0 0\n3 3\n")
    ini = WELL_INI.format(mode="ve", output="out").replace(
        "amplitude = linear(0, 1)", "amplitude = table(amp.tab)").replace(
        "horizon = 12", "horizon = 6")
    (tmp_path / "well.ini").write_text(ini)
    message = ("error: amplitude table spans [0.0, 3.0], which does not cover "
               "the run's [0, {}]\n")
    assert cli_dispatch(["run", str(tmp_path / "well.ini")]) == 1
    assert capsys.readouterr().out == message.format(6.0)
    assert cli_dispatch(["sweep", str(tmp_path / "well.ini"), "--param", "horizon",
                         "--values", "2,3,4"]) == 1
    assert capsys.readouterr().out == message.format(4.0)
    assert not (tmp_path / "out").exists()
    assert cli_dispatch(["sweep", str(tmp_path / "well.ini"), "--param", "horizon",
                         "--values", "3"]) == 0
    assert (tmp_path / "out" / "sweep-horizon-3.0" / "archive.json").exists()


@pytest.mark.parametrize("param, values", [("horizon", "1,5"), ("steps", "2,8")],
                         ids=["horizon", "steps"])
def test_cli_sweep_refuses_partition_params_over_explicit_times(tmp_path, workdir, param,
                                                                values, capsys):
    # explicit times fix the partition, so every swept run would be the same
    root = tmp_path / "timed"
    root.mkdir()
    (root / "well.mesh").write_bytes((workdir["root"] / "well.mesh").read_bytes())
    ini = WELL_INI.format(mode="ve", output="out").replace(
        "steps = 24\nhorizon = 12", "times = 0, 2, 4")
    (root / "well.ini").write_text(ini)
    assert cli_dispatch(["sweep", str(root / "well.ini"), "--param", param,
                         "--values", values]) == 1
    assert capsys.readouterr().out == (
        f"error: sweep over {param} changes nothing: the config sets partition.times\n")
    assert not list(root.rglob("sweep-*"))


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
        raise NumericalError("CG failed to converge (info=30, residual=1.0e+00)")

    monkeypatch.setattr(cli, "read_mesh", solver_blowup)
    assert cli_dispatch(["run", str(root / "well.ini")]) == 2
    assert "numerical failure" in capsys.readouterr().out

    def other_elastic(path):
        raise ElasticError("load profile must be a finite 1d nodal array")

    monkeypatch.setattr(cli, "read_mesh", other_elastic)
    assert cli_dispatch(["run", str(root / "well.ini")]) == 1
    assert "error:" in capsys.readouterr().out


def test_cli_exit_code_follows_the_error_type_not_its_message(workdir, capsys,
                                                              monkeypatch):
    # a NumericalError is a failed computation whatever it says, and any
    # other ElasticError is an input the run cannot take, even one whose
    # message reads like a solver failure
    root = workdir["root"]
    import vefrac.cli_io as cli

    for error, code in ((NumericalError("solver diverged"), 2),
                        (ElasticError("CG failed to converge (info=30)"), 1),
                        (ElasticError("energy floor 0.0 undercut"), 1)):
        def fail(path):
            raise error

        monkeypatch.setattr(cli, "read_mesh", fail)
        assert cli_dispatch(["run", str(root / "well.ini")]) == code
        prefix = "numerical failure: " if code == 2 else "error: "
        assert capsys.readouterr().out == f"{prefix}{error}\n"


@pytest.mark.blas_rounding
def test_cli_exits_2_when_cg_hits_its_cap(workdir, capsys, monkeypatch):
    # every solve of a run is a block solve, whose CG then stops at once
    import vefrac.blocks as blocks

    monkeypatch.setattr(blocks, "_cg_maxiter", lambda n_free: 1)
    root = workdir["root"]
    assert cli_dispatch(["run", str(root / "well.ini")]) == 2
    assert re.fullmatch(
        r"numerical failure: CG failed to converge \(info=1, residual=\d\.\d{3}e[+-]\d\d\)\n",
        capsys.readouterr().out)


def test_cli_exits_2_when_an_energy_undercuts_the_floor(workdir, capsys,
                                                      monkeypatch):
    # E1 = 0.5 u.Au is nonnegative up to rounding; a run whose E1 falls
    # below the declared E1 floor is a numerical failure, reported with
    # the floor
    import vefrac.evolution as evolution

    monkeypatch.setattr(evolution, "E1_FLOOR", 1.0)
    root = workdir["root"]
    assert cli_dispatch(["run", str(root / "well.ini")]) == 2
    assert capsys.readouterr().out.startswith(
        "numerical failure: E1 floor 1.0 undercut: E1 = ")


@pytest.mark.blas_rounding
def test_cli_exits_2_when_an_undercut_is_served_from_the_space_memo(
        workdir, capsys, monkeypatch):
    # a lone interior edge of the well leaves every star connected, so
    # it has the empty crack's space: warmed with it (and with the pool
    # that holds it, the floor's space), the cache serves the run's first
    # lookup, E1({}) = 0.5, without a solve of its own
    import vefrac.evolution as evolution

    solved = []
    solve_block = evolution.solve_block

    def counted(block, load):
        solved.extend(plan.crack.bits for plan in block)
        return solve_block(block, load)

    class WarmCache(evolution._ScaledEnergyCache):
        def __init__(self, mesh, load, pool):
            super().__init__(mesh, load, pool)
            self._entry(CrackSet.of_vertex_pairs(mesh, [(11, 12)]))

    monkeypatch.setattr(evolution, "solve_block", counted)
    monkeypatch.setattr(evolution, "_ScaledEnergyCache", WarmCache)
    monkeypatch.setattr(evolution, "E1_FLOOR", 1.0)
    assert cli_dispatch(["run", str(workdir["root"] / "well.ini")]) == 2
    assert re.fullmatch(
        r"numerical failure: E1 floor 1\.0 undercut: E1 = 0\.49999\d* at t = 0\.0 "
        r"on crack edges \[\]\n", capsys.readouterr().out)
    assert len(solved) == 2 and 0 not in solved


# ---------------------------------------------------------------------------
# the run record: config echo and archive bytes of the CLI
# ---------------------------------------------------------------------------

ECHO_CONFIGS = {
    "pairs-times-initial-table": MINIMAL + """
mode = energetic
lambda = 0.25
output = elsewhere

[load]
profile = prof.txt
amplitude = table(amp.tab)

[partition]
times = 0, 0.5, 1.25

[pool]
kind = pairs
items = 3 4, 4 5
initial = 3 4

[search]
mode = greedy
budget = 0

[tolerances]
stability = 1e-7
balance = 2e-9
""",
    "edges-uniform": MINIMAL + """
[partition]
steps = 7
horizon = 2.5

[pool]
kind = edges
items = 9 4, 12
""",
    "all-interior": MINIMAL,
}


@pytest.mark.parametrize("name", sorted(ECHO_CONFIGS))
def test_config_echo_round_trips(name):
    from vefrac.cli_io import _config_echo, _config_from_echo

    cfg = parse_config(ECHO_CONFIGS[name])
    echo = _config_echo(cfg, "/some/base")
    assert _config_from_echo(echo) == (cfg, "/some/base")
    # as read back from an archive file, where every tuple is a list
    assert _config_from_echo(json.loads(json.dumps(echo))) == (cfg, "/some/base")


def test_config_echo_without_initial_still_loads():
    from vefrac.cli_io import _config_echo, _config_from_echo

    cfg = parse_config(ECHO_CONFIGS["edges-uniform"])
    echo = json.loads(json.dumps(_config_echo(cfg, ".")))
    del echo["pool"]["initial"]
    assert _config_from_echo(echo) == (cfg, ".")


# sha256 of the archives that `vefrac run` and `vefrac sweep` write for
# WELL_INI, with the echoed config directory replaced by "." as
# bench/run.py does. The echo and every ledger column are in the bytes.
CLI_DIGESTS = {
    "run":
        "47dda7ad8dd308f825046039104cb1979cfdcaf5205203fe1a914dc113eb531e",
    "sweep-lambda-0.05":
        "ff3565551d9b421ce4a83632f9717b38ff167a71ff1744af27621579968e7c52",
    "sweep-budget-2":
        "b1d6520693f9c56ee9cad1bb33e1e473a64cba06284eb74084fd7eaf45b23bf7",
    "sweep-mode-energetic":
        "f985d521a98994476c060af8250db599ce8e924fdeabdd6533281707dc26327f",
}


def _cli_archive_digest(root: Path, archive: Path) -> str:
    import hashlib

    text = archive.read_text(encoding="utf-8")
    echo = '"base": ' + json.dumps(str(root.resolve()))
    assert echo in text
    normalized = text.replace(echo, '"base": "."', 1)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def pinned_dir(workdir, tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    (root / "well.mesh").write_bytes((workdir["root"] / "well.mesh").read_bytes())
    (root / "well.ini").write_text(WELL_INI.format(mode="ve", output="out"))
    return root


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_archive_matches_pinned_digest(pinned_dir, name, capsys):
    argv = ["run", str(pinned_dir / "well.ini")]
    archive = pinned_dir / "out" / "archive.json"
    if name != "run":
        _, param, value = name.split("-", 2)
        argv = ["sweep", argv[1], "--param", param, "--values", value]
        archive = pinned_dir / "out" / name / "archive.json"
    assert cli_dispatch(argv) == 0
    capsys.readouterr()
    assert _cli_archive_digest(pinned_dir, archive) == CLI_DIGESTS[name]
