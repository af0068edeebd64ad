import json
import re

import numpy as np
import pytest

from llgtw import cli, model
from llgtw.errors import ConfigError, DegenerateRegime

WALKER_CFG = """
# anisotropy-dominated run
H1 = 0.01
K2 = 1.0
alpha = 0.1
regime = walker
Lx = 20.0
n_nodes = 401
tol_residual = 1e-11
"""


def run(argv):
    return cli.main(argv)


# --- configuration parsing ------------------------------------------------------

def test_parse_config_text():
    values = cli.parse_config_text(WALKER_CFG)
    assert values["H1"] == 0.01
    assert values["n_nodes"] == 401
    assert values["regime"] == "walker"


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        cli.parse_config_text("H5 = 3.0")


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError):
        cli.parse_config_text("H1 = 1\nH1 = 2")
    with pytest.raises(ConfigError):
        cli.parse_config_text("just words")
    with pytest.raises(ConfigError):
        cli.parse_config_text("n_nodes = lots")


def test_build_config_defaults():
    cfg = cli.build_config({"K2": 1.0})
    assert cfg.grid.n_nodes == 801
    assert cfg.params.alpha == 0.1
    assert cfg.regime.kind == model.WALKER


def test_build_config_degenerate():
    with pytest.raises(DegenerateRegime):
        cli.build_config({"H1": 0.02})


def test_build_config_transverse_base_defaults():
    cfg = cli.build_config({"H3": 0.5, "regime": "transverse"})
    assert cfg.regime.H3 == 0.5 and cfg.regime.K2 == 0.0


# --- subcommands ----------------------------------------------------------------

def test_static_csv(capsys):
    assert run(["static", "--wall", "bloch", "--Lx", "15", "--n-nodes", "31"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "xi,psi,beta,m1,m2,m3"
    assert len(lines) == 32
    centre = [float(x) for x in lines[16].split(",")]
    assert centre[0] == 0.0
    assert centre[5] == pytest.approx(1.0, abs=1e-12)


def test_static_transverse_json(capsys):
    assert run(["static", "--wall", "transverse", "--H3", "0.5",
                "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["beta"][-1] == pytest.approx(np.arcsin(0.5), abs=1e-6)


def test_equilibria_json(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WALKER_CFG)
    assert run(["equilibria", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["plus"]["m"][0] == pytest.approx(1.0, abs=1e-12)
    assert max(abs(t) for t in doc["plus"]["torque_residual"]) < 1e-12


def test_solve_tw_and_seed_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WALKER_CFG)
    out = tmp_path / "sol.json"
    assert run(["solve-tw", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["V"] == pytest.approx(-0.0995, abs=2e-3)
    assert doc["residual_norm"] < 1e-11
    # reuse the solution as a seed at slightly different parameters
    out2 = tmp_path / "sol2.json"
    assert run(["solve-tw", "--config", str(cfg), "--H1", "0.012",
                "--seed", str(out), "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["params"]["H1"] == 0.012
    assert doc2["V"] < doc["V"]


def test_solve_tw_zero_driving_velocity(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WALKER_CFG)
    out = tmp_path / "sol.json"
    assert run(["solve-tw", "--config", str(cfg), "--H1", "0", "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["V"]) < 1e-10


def test_continue_outputs(tmp_path, capsys):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("H1 = 0\nK2 = 1.0\nalpha = 0.1\nregime = walker\nn_nodes = 401\ntol_residual = 1e-11\n")
    b.write_text("H1 = 0.002\nK2 = 1.0\nalpha = 0.1\nregime = walker\nn_nodes = 401\n")
    outdir = tmp_path / "branch"
    assert run(["continue", "--from", str(a), "--to", str(b),
                "--steps", "4", "--out", str(outdir)]) == 0
    rows = (outdir / "branch.csv").read_text().strip().splitlines()
    assert rows[0] == "step,H1,H2,H3,K2,V,residual"
    assert len(rows) == 6
    assert (outdir / "step_0000.json").exists()
    assert (outdir / "step_0004.json").exists()
    assert "reached_end = True; last H1=0.002;" in capsys.readouterr().out


def test_continue_summary_names_moving_parameter(tmp_path, capsys):
    # a K2 path at fixed H1 breaks down where alpha K2 / 2 falls to H1
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("H1 = 0.01\nK2 = 1.0\nalpha = 0.1\nn_nodes = 201\n")
    b.write_text("H1 = 0.01\nK2 = 0.05\nalpha = 0.1\n")
    assert run(["continue", "--from", str(a), "--to", str(b),
                "--steps", "10", "--out", str(tmp_path / "branch")]) == 0
    out = capsys.readouterr().out
    last = re.search(r"reached_end = False; last K2=(\S+);", out)
    assert float(last.group(1)) == pytest.approx(0.2, abs=1e-3)
    assert out.rstrip().endswith(f"branch ends near K2={last.group(1)}")
    assert "H1" not in out


def test_continue_rejects_settings_it_ignores(tmp_path, capsys):
    # the grid and the Newton options come from --from; --to may only repeat them
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("H1 = 0\nK2 = 1.0\nn_nodes = 201\n")
    b.write_text("H1 = 0.002\nK2 = 1.0\nLx = 15\nn_nodes = 401\ntol_residual = 1e-6\n")
    outdir = tmp_path / "branch"
    assert run(["continue", "--from", str(a), "--to", str(b),
                "--steps", "4", "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "Lx = 15.0, n_nodes = 401, tol_residual = 1e-06" in err
    assert "Lx = 20.0, n_nodes = 201, tol_residual = 1e-10" in err
    assert not outdir.exists()
    # repeating --from's effective values is fine
    b.write_text("H1 = 0.002\nK2 = 1.0\nLx = 20\nn_nodes = 201\nregime = walker\n")
    assert run(["continue", "--from", str(a), "--to", str(b),
                "--steps", "4", "--out", str(outdir)]) == 0


def test_spectrum_json(capsys):
    assert run(["spectrum", "--operator", "L", "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["eigenvalues"][0]) < 1e-4
    assert doc["eigenvalues"][1] > 0.2


def test_spectrum_vector_dump(tmp_path, capsys):
    vec = tmp_path / "modes.csv"
    assert run(["spectrum", "--operator", "M", "--H3", "0.5", "--k", "1",
                "--n-nodes", "401", "--vectors-out", str(vec)]) == 0
    lines = vec.read_text().strip().splitlines()
    assert lines[0] == "xi,v0"
    assert len(lines) == 400  # interior nodes


def test_spectrum_requires_H3(capsys):
    assert run(["spectrum", "--operator", "N"]) == 2
    assert "H3" in capsys.readouterr().err


def test_simulate_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WALKER_CFG)
    outdir = tmp_path / "sim"
    assert run(["simulate", "--config", str(cfg), "--T", "2.0",
                "--out", str(outdir), "--max-snapshots", "3"]) == 0
    diag = (outdir / "diagnostics.csv").read_text().strip().splitlines()
    assert diag[0] == "t,x_w,energy,max_unit_violation"
    assert len(diag) > 3
    snaps = sorted(outdir.glob("snapshot_*.csv"))
    assert snaps and snaps[0].read_text().splitlines()[0] == "xi,m1,m2,m3"
    assert "by midpoint, dt = 0.05, 40 steps" in capsys.readouterr().out


def test_exit_code_on_config_error(capsys, tmp_path):
    # degenerate parameters name the violated invariant and exit 2
    assert run(["solve-tw", "--H1", "0.01"]) == 2
    assert "degenerate" in capsys.readouterr().err
    assert run(["solve-tw", "--K2", "1.0", "--n-nodes", "800"]) == 2
    assert "odd" in capsys.readouterr().err
    # a domain too short for the transverse wall's tails names the Lx needed
    assert run(["solve-tw", "--regime", "transverse", "--H3", "0.9"]) == 2
    assert "Lx >= 26.1" in capsys.readouterr().err
    # a transverse base field along the hard axis alone is refused by name
    assert run(["solve-tw", "--regime", "transverse", "--H2", "0.3", "--H3", "0"]) == 2
    assert "H3 = 0" in capsys.readouterr().err


def test_exit_code_on_numerical_failure(capsys):
    # past Walker breakdown the solver fails to converge: a numerical
    # failure (3), not a usage or configuration error (2)
    assert run(["solve-tw", "--H1", "0.2", "--K2", "1"]) == 3
    assert "line search stagnated" in capsys.readouterr().err


def test_verify_rejects_degenerate_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("H1 = 0.01\nK2 = 0\n")
    assert run(["verify", "--config", str(cfg)]) == 2
    assert "degenerate" in capsys.readouterr().err


def test_determinism_of_reports(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WALKER_CFG)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["solve-tw", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
