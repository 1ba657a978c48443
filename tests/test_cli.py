import contextlib
import io
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import warnings
import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from flagflow import cli, experiments
from flagflow.cli import run
from flagflow.model import invariant_directions

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def read(path):
    return path.read_bytes()


def run_cli(argv, **extra_env):
    """Run the CLI in a fresh interpreter, capturing its exit code and stderr."""
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "flagflow.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


class TestRicciCommand:
    def test_csv_output(self, capsys):
        assert run(["ricci", "--metric", "1,2,1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "r12,r13,r23"
        assert [float(v) for v in out[1].split(",")] == pytest.approx([1 / 3] * 3)

    def test_json_output(self, capsys):
        assert run(["ricci", "--metric", "1,1,1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["ricci"]["r12"] == pytest.approx(5 / 12)

    def test_invalid_metric_exits_1(self, capsys):
        assert run(["ricci", "--metric", "1,-1,1"]) == 1
        assert run(["ricci", "--metric", "1,2"]) == 1
        assert run(["ricci"]) == 1

    @pytest.mark.parametrize("scale", ["1e-200", "1e200"])
    def test_extreme_scales(self, scale):
        proc = run_cli(["ricci", "--metric", ",".join([scale] * 3)])
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        values = [float(v) for v in proc.stdout.splitlines()[1].split(",")]
        assert values == pytest.approx([5 / 12 / float(scale)] * 3, rel=1e-15, abs=0)

    @pytest.mark.parametrize("metric, want", [
        ("1e300,1e300,1e-30", [5e-301, 5e-301, 1e30 / 3]),
        ("1e300,1e300,1e-10", [5e-301, 5e-301, 1e10 / 3]),
    ])
    def test_components_far_apart(self, metric, want):
        # the scaled products underflow; the components themselves are representable
        proc = run_cli(["ricci", "--metric", metric])
        assert proc.returncode == 0 and proc.stderr == ""
        values = [float(v) for v in proc.stdout.splitlines()[1].split(",")]
        assert values == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("metric", ["1e155,1,1e-155", "5e-324,5e-324,5e-324"])
    def test_unrepresentable_components_exit_2(self, metric):
        proc = run_cli(["ricci", "--metric", metric])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("flagflow: numerical failure: ")
        assert proc.stderr.count("\n") == 1


class TestIntegrateCommand:
    def test_blow_up_gives_exit_2(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run(["integrate", "--system", "poly", "--x0", "1,1,1",
                    "--t-end", "1", "--out", str(out)])
        assert code == 2
        assert "blow_up_event" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3"
        assert float(lines[-1].split(",")[0]) == pytest.approx(0.2, abs=1e-3)

    def test_step_below_the_resolution_of_t_collapses(self, capsys):
        # with min_step 1e-20 the controller reaches steps that no longer move t
        assert run(["integrate", "--system", "ricci", "--x0", "1,2,3", "--t-end", "1",
                    "--max-step", "1e-3", "--min-step", "1e-20"]) == 2
        assert "step_size_collapse" in capsys.readouterr().err

    def test_ricci_collapse_prints_no_numpy_warning(self, tmp_path, capsys):
        # the run collapses at the finite-time singularity of the metric
        # flow; no numpy warning may reach the caller on the way there
        out = tmp_path / "traj.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["integrate", "--system", "ricci", "--x0", "1,2,3", "--t-end", "5",
                        "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "step_size_collapse" in err and "Warning" not in err

    def test_far_compactified_start(self):
        proc = run_cli(["integrate", "--compactified", "--x0", "1e300,1,1", "--t-end", "1"])
        assert proc.returncode == 0
        assert proc.stderr == ""
        first = proc.stdout.splitlines()[1].split(",")
        assert [float(v) for v in first[1:4]] == [1.0, 1e-300, 1e-300]

    def test_metric_flow_requires_positive_x0(self):
        assert run(["integrate", "--system", "ricci", "--x0", "1,-1,1"]) == 1
        assert run(["integrate", "--system", "ricci", "--x0", "0,1,1"]) == 1

    def test_poly_allows_any_x0(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["integrate", "--system", "poly", "--x0=-1,0,1",
                    "--t-end", "0.05", "--out", str(out)]) == 0

    def test_compactified_trajectory_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["integrate", "--system", "poly", "--compactified",
                    "--x0", "1.2,1.2,1.2", "--t-end", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,chart,z1,z2,z3"
        first = lines[1].split(",")
        assert first[4] in ("U1", "U2", "U3")
        # ball coordinates stay inside the unit ball
        u = np.array([float(v) for v in lines[-1].split(",")[1:4]])
        assert np.linalg.norm(u) < 1.0

    def test_compactified_metric_flow_rejected(self):
        assert run(["integrate", "--system", "ricci", "--compactified",
                    "--x0", "1,1,1"]) == 1

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(["integrate", "--system", "poly", "--x0", "1,1.1,0.9",
                 "--t-end", "0.05", "--out", str(path)])
        assert read(a) == read(b)


class TestInfinityCommand:
    def test_census_schema(self, tmp_path):
        out = tmp_path / "inf.json"
        assert run(["infinity", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        eqs = payload["equilibria"]
        assert len(eqs) == 10
        assert sum(e["first_octant"] for e in eqs) == 4
        for e in eqs:
            assert e["chart"] in ("U1", "U2", "U3")
            assert len(e["z"]) == 3 and e["z"][2] == 0.0
            assert len(e["direction"]) == 3
            assert len(e["eigenvalues"]) == 3
            assert set(e["eigenvalues"][0]) == {"re", "im"}
            assert e["stability"] in ("attractor", "repeller", "saddle", "nonhyperbolic")

    def test_byte_identical_reruns(self, tmp_path):
        # a rerun, and a run at any grid, writes the bytes of the default census
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["infinity", "--out", str(a)])
        for grid in ("32", "48", "128", "512"):
            run(["infinity", "--grid", grid, "--out", str(b)])
            assert read(a) == read(b), grid

    def test_grid_validation(self, capsys):
        for grid, code in (("8", 1), ("31", 1), ("513", 1), ("32", 0)):
            assert run(["infinity", "--grid", grid]) == code

    def test_huge_grid_rejected_before_allocating(self):
        proc = run_cli(["infinity", "--grid", "100000000"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("flagflow: error: ")


class TestLyapunovCommand:
    def test_converged_line_csv(self, tmp_path):
        out = tmp_path / "lyap.csv"
        code = run(["lyapunov", "--lines", "2", "--t-max", "300", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "line,chart,lambda1,lambda2,lambda3,t_used,converged"
        fields = lines[1].split(",")
        assert fields[0] == "2" and fields[1] == "U1"
        assert fields[6] == "true"
        assert [float(v) for v in fields[2:5]] == pytest.approx([-5, -7, -7], abs=2e-2)

    def test_nonconverged_line_exits_2(self, tmp_path, capsys):
        out = tmp_path / "lyap.csv"
        code = run(["lyapunov", "--lines", "4", "--t-max", "20", "--out", str(out)])
        assert code == 2
        assert "no convergence" in capsys.readouterr().err
        assert out.read_text().splitlines()[1].split(",")[6] == "false"

    def test_line_validation(self):
        assert run(["lyapunov", "--lines", "5"]) == 1

    @pytest.mark.parametrize("argv, why", [
        (["--lines", "1", "--renorm-dt", "500"], "repeated rejected steps at t=32.4927"),
        (["--lines", "2", "--renorm-dt", "250"], "tangent frame degenerated"),
        (["--lines", "2,1", "--renorm-dt", "500"], "tangent frame degenerated"),
    ])
    def test_row_without_finite_exponents_exits_1(self, argv, why):
        # each row ends inside its first segment, so it averages no segment
        proc = run_cli(["lyapunov", *argv, "--t-max", "500"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        line = argv[1][0]
        assert proc.stderr == (f"flagflow: error: line {line} chart U1 has no finite "
                               f"exponents: base trajectory diverged: {why}\n")

    @pytest.mark.parametrize("flag, value", [
        ("--renorm-dt", "0"), ("--renorm-dt", "nan"),
        ("--t-max", "-1"), ("--t-max", "nan"), ("--t-max", "inf"),
    ])
    def test_rejects_nonpositive_or_nonfinite_times(self, flag, value):
        proc = run_cli(["lyapunov", "--lines", "2", flag, value])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("flagflow: error: ")


class TestVerifyCommand:
    def test_default_checks_pass(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_single_check(self, capsys):
        assert run(["verify", "--checks", "lines"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 1 and "tangency" in out

    def test_json_format(self, capsys):
        assert run(["verify", "--checks", "lines,einstein", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in payload["checks"]] == ["lines", "einstein"]
        assert all(c["passed"] for c in payload["checks"])

    def test_failing_tolerance_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_TANGENCY_TOL", 1e-20)
        assert run(["verify", "--checks", "lines"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_check_exits_1(self):
        assert run(["verify", "--checks", "nonsense"]) == 1


class TestBasinCommand:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "basin.json"
        assert run(["basin", "--line", "2", "--samples", "6", "--seed", "3",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["line"] == 2
        assert payload["samples"] == 6
        assert payload["seed"] == 3
        assert payload["converged_fraction"] == 1.0
        assert len(payload["records"]) == 6
        # the key order is part of the schema
        assert list(payload) == ["schema_version", "line", "epsilon", "delta", "samples",
                                 "seed", "converged_fraction", "max_line_deviation", "records"]
        record = payload["records"][0]
        assert list(record) == ["index", "start", "end", "termination",
                                "converged", "max_deviation"]

    def test_basin_process_never_imports_numpy_random(self, tmp_path):
        # numpy.random loads five extension modules, about 5 MB resident
        script = ("import sys\n"
                  "from flagflow.cli import run\n"
                  f"assert run(['basin', '--line', '1', '--samples', '2', "
                  f"'--out', {str(tmp_path / 'b.json')!r}]) == 0\n"
                  "print('numpy.random' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(["basin", "--line", "2", "--samples", "4", "--seed", "9",
                 "--out", str(path)])
        assert read(a) == read(b)

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "basin.json"
        monkeypatch.setenv("FLAGFLOW_SEED", "17")
        run(["basin", "--line", "2", "--samples", "2", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 17
        # explicit flag wins over the environment
        run(["basin", "--line", "2", "--samples", "2", "--seed", "4", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 4

    def test_parameter_validation(self):
        assert run(["basin", "--line", "2", "--epsilon", "0.5"]) == 1
        assert run(["basin"]) == 1


class TestGlobalFlags:
    """--out, --format and --seed may come before or after the subcommand."""

    def test_out_before_subcommand(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run(["--out", str(out), "ricci", "--metric", "1,2,1"]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().splitlines()[0] == "r12,r13,r23"

    def test_seed_before_subcommand(self, capsys):
        assert run(["--seed", "3", "basin", "--line", "2", "--samples", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    def test_format_before_subcommand(self, capsys):
        assert run(["--format", "json", "verify", "--checks", "lines"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"][0]["name"] == "lines"

    def test_value_after_subcommand_wins(self, capsys):
        assert run(["--seed", "3", "basin", "--line", "2", "--samples", "2",
                    "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "flagflow.cfg"
        cfg.write_text("# defaults for the ricci command\nmetric = 1,1,1\nformat = json\n")
        assert run(["ricci", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ricci"]["r13"] == pytest.approx(5 / 12)

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "flagflow.cfg"
        cfg.write_text("metric = 1,1,1\n")
        assert run(["ricci", "--config", str(cfg), "--metric", "1,2,1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[1].split(",")[0]) == pytest.approx(1 / 3)

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "flagflow.cfg"
        cfg.write_text("no_such_option = 1\n")
        assert run(["ricci", "--config", str(cfg), "--metric", "1,1,1"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line_exits_1(self, tmp_path):
        cfg = tmp_path / "flagflow.cfg"
        cfg.write_text("metric 1,1,1\n")
        assert run(["ricci", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("command, entry", [
        (["ricci", "--metric", "1,1,1"], "format = xml"),
        (["integrate", "--x0", "1.2,1.2,1.2", "--t-end", "1"], "compactified = maybe"),
    ])
    def test_bad_value_exits_1(self, tmp_path, capsys, command, entry):
        cfg = tmp_path / "flagflow.cfg"
        cfg.write_text(entry + "\n")
        assert run(command + ["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad value" in captured.err

    def test_format_the_command_cannot_write_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "flagflow.cfg"
        cfg.write_text("format = csv\n")
        assert run(["infinity", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"flagflow: error: {cfg}:1: format: infinity writes json only, " \
                               "not csv\n"

    def test_format_flag_overrides_config(self, tmp_path, capsys):
        # the flag names a format lyapunov writes, so the config's json is not checked
        cfg = tmp_path / "flagflow.cfg"
        cfg.write_text("format = json\n")
        assert run(["lyapunov", "--lines", "2", "--t-max", "1", "--config", str(cfg),
                    "--format", "csv"]) == 2
        assert capsys.readouterr().out.startswith("line,chart,")

    def test_verify_flags_are_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "flagflow.cfg"
        cfg.write_text("checks = einstein\n")
        assert run(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 1 and "Einstein" in out

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "flagflow.cfg"
        cfg.write_text("seed = -3\n")
        assert run(["basin", "--line", "2", "--samples", "2", "--config", str(cfg)]) == 1
        assert "bad value" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert run(["ricci", "--metric", "1,1,1",
                    "--config", str(tmp_path / "absent.cfg")]) == 1


class TestPlotCommand:
    def test_svg_output(self, tmp_path):
        out = tmp_path / "portrait.svg"
        assert run(["plot", "--x0", "1.2,1.2,1.2", "--x0", "2,1.9,2.2",
                    "--t-end", "10", "--out", str(out)]) == 0
        doc = xml.dom.minidom.parse(str(out))
        assert doc.documentElement.tagName == "svg"
        assert len(doc.getElementsByTagName("polyline")) == 2  # one per start
        text = out.read_text()
        assert "polyline" in text and "circle" in text

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            run(["plot", "--x0", "1.2,1.2,1.2", "--t-end", "5", "--out", str(path)])
        assert read(a) == read(b)

    def test_certified_runs_end_at_the_census_direction(self, monkeypatch, tmp_path):
        drawn = []

        def capture(equilibria, trajectories):
            drawn.extend(trajectories)
            return ""

        monkeypatch.setattr(cli, "ball_portrait_svg", capture)
        ray_1 = ",".join(repr(float(2.0 * v)) for v in invariant_directions()[0])
        starts = ["1.2,1.25,1.2", "0.5,3,1", "2,-1,-1", "1,2,3", ray_1]
        argv = ["plot", "--out", str(tmp_path / "p.svg")]
        for x0 in starts:
            argv += ["--x0", x0]
        assert run(argv) == 0
        assert len(drawn) == len(starts)
        certified = experiments._stops()[1]
        for states in drawn[:4]:
            # the last integrated point is the first in a stop ball; the
            # attractor's census direction follows it
            entered = [c for c, r in certified if np.linalg.norm(states[-2] - c) <= r]
            assert len(entered) == 1
            assert states[-1].tobytes() == entered[0].tobytes()
        # the saddle ray's run ends at its last integrated point, 1e-7 from the ray
        end = drawn[4][-1]
        assert all(np.linalg.norm(end - c) > r for c, r in certified)
        assert np.linalg.norm(end - invariant_directions()[0]) <= 1e-7


class TestInputBoundary:
    @pytest.mark.parametrize("argv, code", [
        (["integrate", "--x0", "nan,1,1"], 1),
        (["integrate", "--x0", "1,1,1", "--t-end", "inf"], 1),
        (["integrate", "--x0", "1,1,1", "--max-step", "inf"], 1),
        (["plot", "--t-end", "-1"], 1),
        (["plot", "--t-end", "inf"], 1),
        (["verify", "--scan-resolution", "10"], 1),
        (["verify", "--checks", "no-equilibria", "--scan-resolution", "10000000"], 1),
        (["verify", "--checks", "lines", "--tangency-tol", "nan"], 1),
        (["verify", "--checks", "einstein", "--einstein-tol", "-1"], 1),
        (["verify", "--checks", "reparam", "--reparam-tol", "inf"], 1),
        (["infinity", "--seed-box", "inf"], 1),
        (["basin", "--line", "2", "--delta", "inf"], 1),
        (["basin", "--line", "2", "--delta", "nan"], 1),
        (["lyapunov", "--lines", "4", "--t-max", "1e12"], 1),
        (["ricci", "--metric", "1e-320,1,1"], 2),
        (["integrate", "--x0", "1,1,1", "--rel-tol", "inf", "--t-end", "0.1"], 1),
        (["integrate", "--x0", "1,1,1", "--abs-tol", "inf", "--t-end", "0.1"], 1),
        (["infinity", "--seed-box", "1e8"], 1),
        (["infinity", "--seed-box", "1e300"], 1),
        (["integrate", "--x0", "1,1,1", "--t-end", "0.1", "--blow-up-radius", "nan"], 1),
        (["integrate", "--x0", "1,1,1", "--t-end", "0.1", "--blow-up-radius", "inf"], 1),
        (["integrate", "--x0", "1,1,1", "--t-end", "0.1", "--blow-up-radius", "0"], 1),
        (["integrate", "--x0", "1,1,1", "--t-end", "0.1", "--blow-up-radius", "-1"], 1),
        (["integrate", "--x0", "1,1,1", "--t-end", "0.1", "--compactified",
          "--blow-up-radius", "100"], 1),
        (["verify", "--checks", "reparam", "--seed", "-1"], 1),
        (["integrate", "--compactified", "--x0", "0,0,0"], 1),
        (["plot", "--x0", "0,0,0"], 1),
        (["integrate", "--system", "poly", "--x0=-1,-1,-1", "--t-end", "1e300"], 1),
        (["lyapunov", "--lines", "2", "--renorm-dt", "1e300"], 1),
        (["basin", "--line", "2", "--delta", "5"], 1),
        (["basin", "--line", "2", "--delta", "1e300"], 1),
        (["basin", "--line", "2", "--samples", "10001"], 1),
        (["lyapunov", "--lines", "2,2", "--t-max", "12"], 1),
        (["lyapunov", "--lines", "2", "--charts", "1,1", "--t-max", "12"], 1),
        (["lyapunov", "--line", "2", "--t-max", "12"], 1),
        (["verify", "--check", "lines"], 1),
        (["lyapunov", "--lines", "2", "--renorm-dt", "1000", "--t-max", "1"], 1),
        (["lyapunov", "--lines", "2", "--renorm-dt", "7", "--t-max", "12"], 1),
        (["lyapunov", "--lines", "2", "--renorm-dt", "0.6", "--t-max", "1"], 1),
        (["integrate", "--compactified", "--x0", "1e-12,1e-12,1e-12"], 1),
        (["plot", "--x0", "1e-13,1e-13,1e-13"], 1),
        (["lyapunov", "--lines", "2", "--t-max", "1", "--format", "json"], 1),
        (["integrate", "--x0", "1,1,1", "--format", "json"], 1),
        (["infinity", "--format", "csv"], 1),
        (["--format", "csv", "basin", "--line", "2"], 1),
        (["plot", "--format", "csv"], 1),
        (["lyapunov", "--lines", "2", "--renorm-dt", "1e-13", "--t-max", "1e-13"], 1),
        (["integrate", "--x0", "1,1,1", "--t-end", "1e-13"], 1),
        (["integrate", "--x0", "1,1,1", "--t-end", "0.1", "--min-step", "0.4"], 1),
        (["plot", "--t-end", "1e-13"], 1),
    ])
    def test_rejected_input_gives_one_line(self, argv, code):
        proc = run_cli(argv)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        prefix = "flagflow: error: " if code == 1 else "flagflow: numerical failure: "
        assert proc.stderr.startswith(prefix)
        assert proc.stdout == ""

    @pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_gives_one_line(self, tmp_path, out):
        path = tmp_path / out
        proc = run_cli(["ricci", "--metric", "1,1,1", "--out", str(path)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"flagflow: error: cannot write {path}: ")
        assert proc.stdout == ""

    @pytest.mark.parametrize("out", ["missing/b.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_rejected_before_the_work(self, tmp_path, monkeypatch, capsys, out):
        def fail(opts):
            raise AssertionError("the command ran")
        monkeypatch.setitem(cli._COMMANDS, "basin", cli._COMMANDS["basin"]._replace(handler=fail))
        path = tmp_path / out
        assert run(["basin", "--line", "1", "--samples", "100", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"flagflow: error: cannot write {path}: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_negative_seed_from_environment(self):
        proc = run_cli(["verify", "--checks", "reparam"], FLAGFLOW_SEED="-2")
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("flagflow: error: FLAGFLOW_SEED")
        assert proc.stdout == ""


# Fuzzing the boundary: at most one option of an example gets a hostile token
# (or, if required, is left out), so every command also runs clean; each other
# option gets a cheap valid value or (where its default is cheap) nothing at all.
HOSTILE = st.sampled_from(["nan", "inf", "-1", "0", "1e300", "abc", ""])


def _reals(lo, hi):
    return st.floats(lo, hi).map(repr)


def _triple(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=3, max_size=3).map(
        lambda v: ",".join(map(repr, v)))


def _subset(names, max_size):
    return st.lists(st.sampled_from(names), min_size=1, max_size=max_size,
                    unique=True).map(",".join)


CHEAP = {
    "seed": st.integers(0, 2**32).map(str),
    "format": st.sampled_from(["csv", "json"]),
    "metric": _triple(0.1, 5.0),
    "system": st.sampled_from(["ricci", "poly"]),
    "x0": st.one_of(_triple(0.05, 2.5), _triple(-2.0, 2.0)),
    "t_end": _reals(0.01, 1.0),
    "rel_tol": _reals(1e-10, 1e-4),
    "abs_tol": _reals(1e-13, 1e-6),
    "max_step": _reals(0.05, 1.0),
    "min_step": _reals(1e-12, 1e-6),
    # beyond every cheap x0, so a clean ambient run does not stop at t = 0
    "blow_up_radius": _reals(10.0, 1e6),
    "grid": st.integers(32, 48).map(str),
    "lines": _subset(["1", "2", "3", "4"], 2),
    "charts": _subset(["1", "2", "3"], 2),
    "renorm_dt": _reals(0.05, 1.0),
    # whole renorm_dt segments, so a clean lyapunov draw runs a spectrum (_fuzz_args)
    "t_max": st.integers(1, 5),
    "checks": _subset(["lines", "einstein", "reparam", "no-equilibria"], 4),
    "line": st.integers(1, 4).map(str),
    "epsilon": _reals(0.01, 0.1),
    "delta": _reals(0.5, 3.0),
    "samples": st.integers(1, 3).map(str),
}
# options whose default is expensive are always given
COSTLY_DEFAULT = {"t_end", "t_max", "samples"}
FUZZED_GLOBALS = {k: v for k, v in cli._GLOBALS.items() if k != "out"}


def _fuzz_args(draw, table, cheap, hostile):
    argv = []
    segment = 0.1  # the default renorm_dt, unless a valid one is drawn
    for key, (_, default, kwargs) in table.items():
        flag = "--" + key.replace("_", "-")
        if kwargs.get("action") == "store_true":
            argv += [flag] if draw(st.booleans()) else []
            continue
        required = default is cli._REQUIRED
        if key == hostile:
            # leaving a required option out is hostile too
            if required and draw(st.booleans()):
                continue
            values = [draw(HOSTILE)]
        elif not required and key not in COSTLY_DEFAULT and draw(st.booleans()):
            continue
        elif kwargs.get("action") == "append":
            values = draw(st.lists(cheap[key], min_size=1, max_size=2))
        else:
            values = [draw(cheap[key])]
            if key == "renorm_dt":
                segment = float(values[0])
            elif key == "t_max":
                values = [repr(values[0] * segment)]
        argv += [f"{flag}={v}" for v in values]
    return argv


@st.composite
def _fuzzed_argv(draw):
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    # a valid --format is one the command writes; plot takes none at all
    writable = [f for f in cli._COMMANDS[name].formats if f in ("csv", "json")]
    table = {k: v for k, v in FUZZED_GLOBALS.items() if k != "format" or writable}
    cheap = {**CHEAP, "format": st.sampled_from(writable or ["csv"])}
    valued = [k for k, (_, _, kwargs) in {**table, **cli._COMMANDS[name].options}.items()
              if kwargs.get("action") != "store_true"]
    hostile = draw(st.none() | st.sampled_from(valued))
    globals_ = _fuzz_args(draw, table, cheap, hostile)
    options = _fuzz_args(draw, cli._COMMANDS[name].options, cheap, hostile)
    return (globals_ + [name] if draw(st.booleans()) else [name] + globals_) + options


# commands that once ended in a traceback, a silent nan, a wrong exit or no
# exit at all; the derandomized draws come from a seed hashed from the test's
# source, so an edit of the test replaces them all, but these rows stay
FOUND_HOSTILE = [
    ["lyapunov", "--lines", "4", "--t-max", "1e12"],
    ["lyapunov", "--lines", "2", "--renorm-dt", "7", "--t-max", "12"],
    ["lyapunov", "--lines", "2", "--renorm-dt", "1000", "--t-max", "1"],
    ["lyapunov", "--lines", "2", "--renorm-dt", "1e-13", "--t-max", "1e-13"],
    ["lyapunov", "--lines", "2,2"],
    ["lyapunov", "--lines", "1", "--renorm-dt", "500", "--t-max", "500"],
    ["lyapunov", "--lines", "2", "--renorm-dt", "250", "--t-max", "500"],
    ["lyapunov", "--line", "2", "--t-max", "1", "--renorm-dt", "0.5", "--char", "1"],
    ["integrate", "--x0", "1,1,1", "--rel-tol", "inf", "--t-end", "0.1"],
    ["integrate", "--x0", "1,1,1", "--t-end", "0.1", "--blow-up-radius", "nan"],
    ["integrate", "--x0", "1,1,1", "--t-end", "0.1", "--blow-up-radius", "-1"],
    ["integrate", "--compactified", "--x0", "1,1,1", "--t-end", "0.1",
     "--blow-up-radius", "1"],
    ["integrate", "--x0", "1,1,1", "--t-end", "1e-13"],
    ["integrate", "--x0", "1e200,1e200,1e200", "--t-end", "1"],
    ["integrate", "--system", "poly", "--x0=-1,-1,-1", "--t-end", "1e300"],
    ["integrate", "--compactified", "--x0", "1e-12,1e-12,1e-12"],
    ["integrate", "--system", "ricci", "--x0",
     "0.19134484575581673,1.6991373226669069,0.4946219303797521",
     "--t-end", "0.23926636692005357", "--rel-tol", "3.152323847723391e-05",
     "--abs-tol", "4.2603866043764936e-07", "--max-step", "0.4808156148935485"],
    ["integrate", "--system", "ricci", "--x0", "1,2,3", "--t-end", "1",
     "--max-step", "1e-3", "--min-step", "1e-20"],
    ["integrate", "--system", "ricci", "--x0",
     "1.0,3.2805363771257723e-37,4.421297738297319e-134", "--t-end", "1"],
    ["ricci", "--metric", "1e300,1e300,1e-30"],
    ["ricci", "--metric", "1e200,1e200,1e200"],
    ["ricci", "--metric", "0,1,1"],
    ["--seed", "3", "basin", "--line", "2", "--samples", "2"],
    ["basin", "--line", "2", "--samples", "2", "--delta", "1e300"],
    ["basin", "--line", "2", "--samples", "10001"],
    ["infinity", "--grid", "100000000"],
    ["infinity", "--seed-box", "1e300"],
    ["verify", "--checks", "no-equilibria", "--scan-resolution", "10000000"],
    ["verify", "--lines", "--tangency-tol", "1e9", "--checks", "einstein",
     "--einstein-tol", "1e300"],
    ["verify", "--checks", "reparam", "--seed", "-1"],
    ["plot", "--t-end", "1e-13"],
    ["plot", "--x0", "0,0,0"],
    ["plot", "--x0", "1e-13,1e-13,1e-13"],
]

# wall-clock limit of one fuzzed command; every draw and example ends within
# 2 s on a 2-vCPU Xeon, so only a run that does not end meets it
FUZZ_SECONDS = 20


class _CommandTimeout(BaseException):
    # a BaseException, so that no ``except Exception`` on the way out of run() takes it
    pass


def _raise_timeout(signum, frame):
    raise _CommandTimeout


def _with_examples(test):
    for argv in FOUND_HOSTILE:
        test = example(argv=argv)(test)
    return test


class TestFuzzedBoundary:
    def test_every_option_has_a_cheap_value(self):
        for command in cli._COMMANDS.values():
            for key, (_, _, kwargs) in {**FUZZED_GLOBALS, **command.options}.items():
                assert key in CHEAP or kwargs.get("action") == "store_true", key

    # no shrinking: a command that hangs would be rerun for every shrink step,
    # and the failure message already names the whole argv
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate),
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_fuzzed_argv())
    @_with_examples
    def test_fuzzed_options_end_in_a_documented_exit(self, argv):
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
        # a numpy warning would print lines of its own next to the exit line
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                code = run(argv)
        except _CommandTimeout:
            pytest.fail(f"no exit within {FUZZ_SECONDS} s: {argv}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2, 3), argv
        if code in (0, 2):
            # float repr and JSON spellings; the SVG prose says "at infinity".
            # An exit-2 run (no convergence, a blow-up) still prints its rows
            assert not re.search(r"(?<![A-Za-z])(nan|NaN|-?inf|-?Infinity)(?![A-Za-z])",
                                 out.getvalue()), argv
        if code == 2:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
        if code == 1:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("flagflow: error: "), argv
            assert err.getvalue().count("\n") == 1, argv


class TestHelp:
    @pytest.mark.parametrize("cmd", ["ricci", "integrate", "infinity", "lyapunov",
                                     "verify", "basin", "plot"])
    def test_subcommand_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            run([cmd, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1
