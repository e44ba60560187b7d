import json

import numpy as np
import pytest

from rflsmooth import cli
from rflsmooth.config import (
    bundled_example_path,
    compact_from_config,
    load_config,
    plant_from_config,
    scaling_from_config,
    sim_from_config,
)
from rflsmooth.errors import ConfigError, NumericalError, StationarityError
from rflsmooth.model import validate_plant

FAST_SIM = """
[simulation]
kappa = 4.0e4
lambda_ou = 9.14e3
alpha = 1162.0
beta_slope = 1.0
gamma = 0.4
dt = 1.0e-7
horizon = 5.0e-5
delta = 3.1e-6
runs = 3
master_seed = 9
estimator = "smoother"
"""


def fast_config(tmp_path, synthesis_extra=""):
    base = bundled_example_path().read_text()
    plant_delay = base.split("[synthesis]")[0]
    text = plant_delay + (
        "[synthesis]\ntau = 1.13e-6\nlambda = [0.9727, 0.4831, 0.0015, 0.0014]\n"
        + synthesis_extra + FAST_SIM
    )
    path = tmp_path / "fast.cfg"
    path.write_text(text)
    return path


class TestConfig:
    def test_bundled_config_parses(self):
        doc = load_config(bundled_example_path())
        plant = plant_from_config(doc)
        assert validate_plant(plant) == []
        point, settings = scaling_from_config(doc)
        assert point is not None and point.tau == 1.13e-6
        assert settings["n_starts"] == 8
        cfg = sim_from_config(doc)
        assert cfg.runs == 2000

    def test_bundled_compact_matches_example(self, paper_compact):
        doc = load_config(bundled_example_path())
        compact = compact_from_config(doc, paper_realization=True)
        np.testing.assert_allclose(compact.aug.Ap, paper_compact.aug.Ap, rtol=1e-9)
        np.testing.assert_allclose(compact.Db21, paper_compact.Db21, rtol=1e-9)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_bad_json_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[plant]\na = [[oops]]\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_plant_section(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("[delay]\norder = 2\ndelta = 1e-6\n")
        with pytest.raises(ConfigError):
            plant_from_config(load_config(path))

    def test_inconsistent_plant_rejected(self, tmp_path):
        path = tmp_path / "dims.cfg"
        path.write_text(
            "[plant]\na = [[-1.0]]\nb1 = [[1.0]]\nc0 = [[1.0]]\n"
            "c2 = [[1.0, 2.0]]\nd21 = [[0.5]]\n"
        )
        with pytest.raises(ConfigError, match="C2"):
            plant_from_config(load_config(path))

    def test_sim_unknown_key(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("[simulation]\nwarp = 9\n")
        with pytest.raises(ConfigError, match="warp"):
            sim_from_config(load_config(path))


class TestCli:
    def test_synth_pinned(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["synth", "--paper-realization", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "synthesis.json").read_text())
        assert 0.10 <= doc["Vtau"] <= 0.16
        assert doc["Ac"]["rows"] == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert "synthesis.json" in manifest["checksums"]
        assert manifest["checksums"]["synthesis.json"] == cli._sha256(out / "synthesis.json")

    def test_synth_infeasible_pin_exit_code(self, tmp_path):
        cfg = fast_config(tmp_path)
        text = cfg.read_text().replace(
            "lambda = [0.9727, 0.4831, 0.0015, 0.0014]",
            "lambda = [1.0, 1.0, 1.0, 1.0]")
        bad = tmp_path / "infeasible.cfg"
        bad.write_text(text)
        code = cli.main(["synth", "--config", str(bad),
                         "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_INFEASIBLE
        assert not (tmp_path / "o" / "synthesis.json").exists()

    def test_synth_optimizes_without_pins(self, tmp_path):
        cfg = fast_config(tmp_path)
        text = cfg.read_text().replace("tau = 1.13e-6\n", "").replace(
            "lambda = [0.9727, 0.4831, 0.0015, 0.0014]\n",
            "tau_bounds = [1e-7, 1e-5]\nn_starts = 1\n")
        free = tmp_path / "free.cfg"
        free.write_text(text)
        out = tmp_path / "free_out"
        code = cli.main(["synth", "--config", str(free), "--paper-realization",
                         "--seed", "1", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "synthesis.json").read_text())
        assert doc["Vtau"] <= 0.16
        assert len(doc["search_trace"]) > 0

    def test_synth_zero_sector_degenerates(self, tmp_path):
        """gamma = 0 removes the nonlinearity output; the design collapses to
        a nominal Kalman-like estimator and still synthesizes cleanly."""
        cfg = fast_config(tmp_path)
        text = cfg.read_text().replace("c1_nl = [[[929.6]]]", "c1_nl = [[[0.0]]]")
        flat = tmp_path / "flat.cfg"
        flat.write_text(text)
        out = tmp_path / "flat_out"
        code = cli.main(["synth", "--config", str(flat), "--paper-realization",
                         "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "synthesis.json").read_text())
        assert max(abs(v) for v in doc["X"]["data"]) <= 1e-12

    def test_validate_ok_and_missing(self, tmp_path):
        assert cli.main(["validate"]) == 0
        code = cli.main(["validate", "--config", str(tmp_path / "gone.cfg")])
        assert code == cli.EXIT_CONFIG

    def test_sweep_deterministic(self, tmp_path):
        cfg = fast_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            code = cli.main(["sweep", "--config", str(cfg), "--grid", "5",
                             "--paper-realization", "--out-dir", str(out)])
            assert code == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        lines = (out1 / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2 + 5      # comment, header, rows

    def test_mc_small(self, tmp_path):
        cfg = fast_config(tmp_path)
        out = tmp_path / "mc"
        code = cli.main(["mc", "--config", str(cfg), "--paper-realization",
                         "--save-errors", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "monte_carlo.json").read_text())
        assert doc["runs_completed"] == 3
        assert doc["healthy"] is True
        errors = (out / "errors.csv").read_text().splitlines()
        assert errors[0] == "run_error" and len(errors) == 4
        values = np.loadtxt(out / "errors.csv", skiprows=1)     # plain floats
        assert float(np.mean(values ** 2)) == doc["error_covariance"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 9

    @pytest.mark.parametrize("key,value", [("batch", 0), ("chunk", 0), ("batch", -1)])
    def test_nonpositive_batch_or_chunk_rejected(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(fast_config(tmp_path).read_text() + f"{key} = {value}\n")
        for command in ("validate", "mc"):
            code = cli.main([command, "--config", str(bad), "--out-dir", str(tmp_path / "o")])
            assert code == cli.EXIT_CONFIG
            assert f"{key} must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "monte_carlo.json").exists()

    def test_simulation_lag_must_match_delay(self, tmp_path, capsys):
        bad = tmp_path / "lag.cfg"
        bad.write_text(fast_config(tmp_path).read_text().replace(
            "horizon = 5.0e-5\ndelta = 3.1e-6", "horizon = 5.0e-5\ndelta = 6.2e-6"))
        for command in ("validate", "mc"):
            code = cli.main([command, "--config", str(bad), "--out-dir", str(tmp_path / "o")])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "[simulation] delta" in err and "[delay] delta" in err
        assert not (tmp_path / "o" / "monte_carlo.json").exists()

    def test_reproduce_paper(self, tmp_path):
        out = tmp_path / "rep"
        code = cli.main(["reproduce-paper", "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "reproduction.json").read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"Ac", "Bc_tilde", "Cc_tilde", "Vtau", "coupling"} <= names

    def test_exit_code_mapping(self, monkeypatch):
        for exc, expected in [
            (StationarityError("boom"), cli.EXIT_UNSTABLE),
            (NumericalError("bad"), cli.EXIT_NUMERICAL),
            (np.linalg.LinAlgError("singular"), cli.EXIT_NUMERICAL),
        ]:
            def blow_up(args, _e=exc):
                raise _e
            monkeypatch.setattr(cli, "cmd_validate", blow_up)
            parser = cli.build_parser()
            args = parser.parse_args(["validate"])
            args.func = blow_up
            monkeypatch.setattr(cli, "build_parser", lambda: _FakeParser(args))
            assert cli.main(["validate"]) == expected


class _FakeParser:
    def __init__(self, args):
        self._args = args

    def parse_args(self, argv=None):
        return self._args
