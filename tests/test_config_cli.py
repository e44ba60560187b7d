import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rflsmooth import cli
from rflsmooth.config import (
    _SIM_PHYSICS,
    bundled_example_path,
    compact_from_config,
    load_config,
    plant_from_config,
    scaling_from_config,
    sim_from_config,
)
from rflsmooth.errors import ConfigError, NumericalError, StationarityError
from rflsmooth.model import validate_plant

from conftest import run_python

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
        cfg = sim_from_config(doc, compact_from_config(doc))
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

    def test_sim_unknown_key(self, tmp_path, paper_compact):
        path = tmp_path / "sim.cfg"
        path.write_text("[simulation]\nwarp = 9\n")
        with pytest.raises(ConfigError, match="warp"):
            sim_from_config(load_config(path), paper_compact)

    def test_sim_physics_keys_optional(self, tmp_path, paper_compact):
        path = tmp_path / "sim.cfg"
        path.write_text("[simulation]\nruns = 3\n")
        assert sim_from_config(load_config(path), paper_compact).runs == 3


@pytest.fixture(scope="module")
def bundled():
    doc = load_config(bundled_example_path())
    return doc, compact_from_config(doc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(_SIM_PHYSICS)),
       r=st.one_of(st.floats(-1e-10, 1e-10), st.floats(1e-8, 0.5), st.floats(-0.5, -1e-8)))
def test_sim_physics_key_within_tolerance_of_plant(bundled, key, r):
    """A [simulation] physics key scaled by 1 + r passes for |r| <= 1e-10 and
    fails for |r| >= 1e-8, naming the key and the [plant]/[delay] entry it
    contradicts."""
    doc, compact = bundled
    sim = dict(doc["simulation"], **{key: doc["simulation"][key] * (1.0 + r)})
    doc = dict(doc, simulation=sim)
    if abs(r) <= 1e-10:
        assert sim_from_config(doc, compact).runs == 2000
        return
    with pytest.raises(ConfigError) as exc:
        sim_from_config(doc, compact)
    assert f"[simulation] {key} = " in str(exc.value) and _SIM_PHYSICS[key][0] in str(exc.value)


class TestCli:
    def test_one_parser_serves_every_command(self, tmp_path, monkeypatch):
        """The parser is built once per process, and no command's options
        carry into the next: each writes what a fresh parser's run writes."""
        assert cli.build_parser() is cli.build_parser()
        cfg = str(fast_config(tmp_path, "seed = 3\n"))
        runs = [["synth", "--seed", "7"], ["synth"], ["sweep", "--grid", "5"], ["sweep"]]
        for tag in ("shared", "fresh"):
            if tag == "fresh":
                monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            for i, argv in enumerate(runs):
                assert cli.main([*argv, "--config", cfg, "--out-dir", str(tmp_path / tag / str(i))]) == 0
        seeds = [json.loads((tmp_path / "shared" / str(i) / "manifest.json").read_text())
                 ["master_seed"] for i in range(4)]
        assert seeds == [7, 3, 3, 3]
        assert len((tmp_path / "shared" / "3" / "sweep.csv").read_text().splitlines()) == 2 + 21
        for i in range(len(runs)):
            shared, fresh = (json.loads((tmp_path / tag / str(i) / "manifest.json").read_text())
                             for tag in ("shared", "fresh"))
            assert shared["checksums"] == fresh["checksums"]
            assert shared["master_seed"] == fresh["master_seed"]

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
        assert "evaluations" not in doc

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

    def test_percent_in_a_value_is_read_as_written(self, tmp_path, capsys):
        """Values are JSON literals with no INI interpolation: `%` and `%%` are kept,
        a `%` in a bad value fails as a bad value (exit 2, naming the key), and a
        section no command reads leaves every artifact's bytes as they were."""
        base = fast_config(tmp_path).read_text()
        notes = tmp_path / "notes.cfg"
        notes.write_text(base + '[notes]\ntext = "100%% of %(order)s"\nrate = "5%"\n')
        assert load_config(notes)["notes"] == {"text": "100%% of %(order)s", "rate": "5%"}
        for name, cfg in (("plain", fast_config(tmp_path)), ("notes", notes)):
            assert cli.main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / name)]) == 0
        assert ((tmp_path / "plain" / "synthesis.json").read_bytes()
                == (tmp_path / "notes" / "synthesis.json").read_bytes())
        capsys.readouterr()

        compare = tmp_path / "compare.cfg"
        compare.write_text(base + 'compare = "del%ayed"\n')
        assert cli.main(["validate", "--config", str(compare)]) == cli.EXIT_CONFIG
        assert "compare = 'del%ayed'" in capsys.readouterr().err
        bad = fast_config(tmp_path, "n_starts = 8%\n")
        for command in ("validate", "synth"):
            code = cli.main([command, "--config", str(bad), "--out-dir", str(tmp_path / "o")])
            assert code == cli.EXIT_CONFIG
            assert "[synthesis] n_starts is not a JSON literal: '8%'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        assert set(doc["readouts"]) == {"delayed", "undelayed", "filter"}
        assert doc["readouts"]["delayed"] == {key: doc[key] for key in
                                              ("error_covariance", "standard_error",
                                               "runs_completed")}

    @pytest.mark.parametrize("runs, extra, finite", [
        ("1", "", ("error_covariance",)), ("2", "divergence_guard = 1e-12\n", ())])
    def test_mc_statistic_without_a_value_is_null(self, tmp_path, runs, extra, finite):
        """One run has no standard error and no completed run no level: monte_carlo.json
        writes null for them, never a bare Infinity or NaN, and parses as strict JSON."""
        cfg = tmp_path / "mc.cfg"
        cfg.write_text(fast_config(tmp_path).read_text() + extra)
        out = tmp_path / "mc"
        assert cli.main(["mc", "--config", str(cfg), "--paper-realization", "--runs", runs,
                         "--out-dir", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        doc = json.loads((out / "monte_carlo.json").read_text(), parse_constant=reject)
        for stats in (doc, *doc["readouts"].values()):
            assert stats["standard_error"] is None
            assert all(math.isfinite(stats[key]) for key in finite)
            assert (stats["error_covariance"] is None) == (not finite)
        with pytest.raises(ValueError):
            cli._json({"standard_error": math.inf})

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e999", "[1.0, NaN]"])
    def test_non_finite_value_exits_config_before_any_work(self, tmp_path, capsys, value):
        """JSON has no non-finite number, and no artifact could hold one: a config
        value such as divergence_guard = Infinity fails every command at load (exit 2,
        naming the key), never after a full Monte Carlo pass."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(fast_config(tmp_path).read_text() + f"divergence_guard = {value}\n")
        for command in ("validate", "synth", "mc"):
            code = cli.main([command, "--config", str(bad), "--out-dir", str(tmp_path / "o")])
            assert code == cli.EXIT_CONFIG
            assert f"[simulation] divergence_guard is not finite: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mc_writes_every_readout_of_one_pass(self, tmp_path):
        """The filter readout of a smoother run is the headline of a filter
        run on the same seed, bit for bit."""
        cfg = fast_config(tmp_path)
        docs = {}
        for estimator in ("smoother", "ngcf"):
            out = tmp_path / estimator
            assert cli.main(["mc", "--config", str(cfg), "--paper-realization",
                             "--estimator", estimator, "--out-dir", str(out)]) == 0
            docs[estimator] = json.loads((out / "monte_carlo.json").read_text())
        ngcf = docs["ngcf"]
        assert docs["smoother"]["readouts"]["filter"] == {
            key: ngcf[key] for key in ("error_covariance", "standard_error", "runs_completed")}
        assert ngcf["readouts"] == docs["smoother"]["readouts"]

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

    @pytest.mark.parametrize("key,value,source", [
        ("kappa", 4.0e4, "[plant] b1"), ("lambda_ou", 9.14e3, "[plant] a"),
        ("alpha", 1162.0, "[plant] d21"), ("gamma", 0.4, "[plant] c1_nl"),
        ("delta", 3.1e-6, "[delay] delta")], ids=["kappa", "lambda_ou", "alpha", "gamma", "delta"])
    def test_simulation_physics_must_match_plant(self, tmp_path, capsys, monkeypatch,
                                                 key, value, source):
        """A [simulation] physics key 1e-6 off the value its [plant]/[delay]
        entry implies fails before any synthesis; the bundled values pass."""
        head, sim = fast_config(tmp_path).read_text().split("[simulation]")
        line = next(ln for ln in sim.splitlines() if ln.startswith(f"{key} = "))
        assert json.loads(line.split("=")[1]) == value
        bad = tmp_path / "physics.cfg"
        bad.write_text(head + "[simulation]"
                       + sim.replace(line, f"{key} = {value * (1 + 1e-6)!r}"))
        monkeypatch.setattr(cli, "compute_gains", lambda *a, **k: pytest.fail("synthesized"))
        for command in ("validate", "mc"):
            code = cli.main([command, "--config", str(bad), "--out-dir", str(tmp_path / "o")])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"[simulation] {key}" in err and source in err
        assert cli.main(["validate", "--config", str(fast_config(tmp_path))]) == 0

    def test_lag_longer_than_horizon_rejected(self, tmp_path, capsys):
        """A 310-step lag in a 200-step run would compare against phi = 0."""
        bad = tmp_path / "short.cfg"
        bad.write_text(fast_config(tmp_path).read_text().replace(
            "dt = 1.0e-7\nhorizon = 5.0e-5", "dt = 1.0e-8\nhorizon = 2.0e-6"))
        for command in ("validate", "mc"):
            code = cli.main([command, "--config", str(bad), "--out-dir", str(tmp_path / "o")])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "[delay] delta" in err and "[simulation] horizon" in err
        assert not (tmp_path / "o" / "monte_carlo.json").exists()

    @pytest.mark.parametrize("old,new,section", [
        ("c0 = [[1.0]]", "c0 = [[1.0], [2.0]]", "[delay]"),
        ("[synthesis]\n", "[synthesis]\nj21 = [[-1.0]]\n", "[synthesis]"),
        ("order = 2", 'order = "x"', "[delay]"),
        ("[synthesis]\n", '[synthesis]\nn_starts = "x"\n', "[synthesis]"),
        ("tau = 1.13e-6", 'tau = "x"', "[synthesis]")],
        ids=["c0", "j21", "order", "n_starts", "tau"])
    def test_bad_plant_delay_or_synthesis_exits_config(self, tmp_path, capsys, old, new,
                                                        section):
        text = fast_config(tmp_path).read_text()
        assert old in text
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(old, new, 1))
        for command in ("validate", "synth"):
            code = cli.main([command, "--config", str(bad), "--out-dir", str(tmp_path / "o")])
            assert code == cli.EXIT_CONFIG
            assert section in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,key", [
        ("tau = 1.13e-6\n", "tau_bounds = [0.0, 1e-3]\n", "tau_bounds"),
        ("tau = 1.13e-6\n", "tau_bounds = [1e-3, 1e-8]\n", "tau_bounds"),
        ("tau = 1.13e-6\n", "tau_bounds = [1e-6]\n", "tau_bounds"),
        ("tau = 1.13e-6\n", "lambda_high = -1.0\n", "lambda_high"),
        ("tau = 1.13e-6\n", "n_starts = 0\n", "n_starts"),
        ("lambda = [0.9727, 0.4831, 0.0015, 0.0014]", "lambda = [0.9727, 0.4831, 0.0015]",
         "lambda")],
        ids=["tau_low_zero", "tau_reversed", "tau_one_entry", "lambda_high", "n_starts",
             "lambda_length"])
    def test_bad_optimizer_setting_exits_config(self, tmp_path, capsys, old, new, key):
        """Settings the optimizer cannot use fail in validate and synth,
        naming the key, before any synthesis."""
        text = fast_config(tmp_path).read_text()
        assert old in text
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(old, new, 1))
        for command in ("validate", "synth"):
            code = cli.main([command, "--config", str(bad), "--out-dir", str(tmp_path / "o")])
            assert code == cli.EXIT_CONFIG
            assert f"[synthesis] {key}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "synthesis.json").exists()

    @pytest.mark.parametrize("command", ["synth", "mc"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        free = tmp_path / "free.cfg"
        free.write_text(fast_config(tmp_path).read_text().replace("tau = 1.13e-6\n", ""))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(free), "--seed", "-1",
                      "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_grid_below_one_rejected(self, tmp_path, capsys, points):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(fast_config(tmp_path)), "--grid", points,
                      "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_reproduce_paper(self, tmp_path):
        out = tmp_path / "rep"
        code = cli.main(["reproduce-paper", "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "reproduction.json").read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"Ac", "Bc_tilde", "Cc_tilde", "Vtau", "coupling"} <= names

    @pytest.mark.parametrize("option", [["--config", "/nonexistent.cfg"],
                                        ["--target-output", "delayed"],
                                        ["--paper-realization"]],
                             ids=["config", "target_output", "paper_realization"])
    def test_reproduce_paper_rejects_options_it_ignores(self, tmp_path, capsys, option):
        """reproduce-paper builds its own example: options that choose a
        config or a synthesis variant would be ignored, so argparse rejects them."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce-paper", "--out-dir", str(tmp_path / "rep"), *option])
        assert exc.value.code == cli.EXIT_CONFIG
        assert option[0] in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

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


class TestProcess:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        """Only the bound optimizer needs scipy.optimize; commands that do not
        optimize skip its import time and memory."""
        code = ("import sys, rflsmooth.cli\n"
                "from rflsmooth.config import bundled_example_path, compact_from_config, load_config\n"
                "compact_from_config(load_config(bundled_example_path()))\n"
                "print('scipy.optimize' in sys.modules)")
        assert run_python(["-c", code]).stdout.strip() == "False"

    def test_commands_leave_scipy_linalg_unloaded(self, tmp_path):
        """numkernel loads SciPy's LAPACK extension by itself: no command imports the
        scipy.linalg package, whose import pulls in numpy.f2py and numpy.testing and
        took about 40% of a one-command process's wall time, nor the scipy package,
        whose own __init__ pulls in subprocess and sysconfig."""
        code = ("import sys\n"
                "from rflsmooth import cli\n"
                "from rflsmooth.config import bundled_example_path, compact_from_config, load_config\n"
                "compact_from_config(load_config(bundled_example_path()))\n"
                "for argv in (['synth'], ['sweep', '--grid', '5'], ['reproduce-paper'],\n"
                "             ['mc', '--runs', '4']):\n"
                "    assert cli.main([*argv, '--out-dir', sys.argv[1] + '/' + argv[0]]) == 0\n"
                "print([m for m in ('scipy', 'scipy.linalg', 'scipy._lib._util', 'numpy.f2py')\n"
                "       if m in sys.modules])")
        assert run_python(["-c", code, str(tmp_path)]).stdout.splitlines()[-1] == "[]"

    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        """Order 6: loop size 14, and the pinned synthesis is Newton-refined."""
        cfg = tmp_path / "order6.cfg"
        cfg.write_text(bundled_example_path().read_text().replace("order = 2", "order = 6"))
        artifacts = {}
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            for command, extra in (("synth", []), ("sweep", ["--grid", "21"])):
                run_python(["-m", "rflsmooth.cli", command, "--config", str(cfg),
                                 "--out-dir", str(out / command), *extra], threads)
            artifacts[threads] = ((out / "synth" / "synthesis.json").read_bytes(),
                                  (out / "sweep" / "sweep.csv").read_bytes())
        assert artifacts[1] == artifacts[2]

    def test_optimized_bound_independent_of_blas_threads(self, tmp_path):
        """One optimizer start (the analytic centre) under one and two threads."""
        cfg = tmp_path / "free.cfg"
        cfg.write_text(bundled_example_path().read_text()
                       .replace("tau = 1.13e-6\n", "").replace("n_starts = 8", "n_starts = 1"))
        vtau = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            run_python(["-m", "rflsmooth.cli", "synth", "--config", str(cfg),
                        "--paper-realization", "--out-dir", str(out)], threads)
            vtau.append(json.loads((out / "synthesis.json").read_text())["Vtau"])
        assert abs(vtau[0] - vtau[1]) <= 1e-8 * vtau[0]

    def test_mc_clean_under_dev_mode_and_warnings_as_errors(self, tmp_path):
        """No ResourceWarning from the noise process's pipes or shared mmap and
        no fork warning: stderr holds only the progress counter."""
        out = tmp_path / "mc"
        proc = run_python(["-X", "dev", "-W", "error", "-m", "rflsmooth.cli", "mc",
                           "--config", str(fast_config(tmp_path)), "--runs", "3",
                           "--save-errors", "--out-dir", str(out)])
        assert proc.stderr.replace("\r", "\n").split("\n") == ["", "3/3 runs", ""]
        assert len((out / "errors.csv").read_text().splitlines()) == 4

    def test_mc_errors_independent_of_blas_threads_and_batch(self, tmp_path):
        """Three runs in one batch and in batches of one, under one and two
        threads: one errors.csv."""
        default = fast_config(tmp_path)
        single = tmp_path / "single.cfg"
        single.write_text(default.read_text() + "batch = 1\n")
        written = set()
        for threads in (1, 2):
            for cfg in (default, single):
                out = tmp_path / f"t{threads}-{cfg.stem}"
                run_python(["-m", "rflsmooth.cli", "mc", "--config", str(cfg), "--runs", "3",
                            "--save-errors", "--out-dir", str(out)], threads)
                written.add((out / "errors.csv").read_bytes())
        assert len(written) == 1
