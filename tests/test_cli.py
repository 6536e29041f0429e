"""Command-line surface: subcommands, flags, outputs and error reporting."""

import json
import subprocess
import sys

import numpy as np
import pytest

from pilotseq import cli
from pilotseq.config import ExperimentConfig, preset
from pilotseq.sequence_design import load_sequence_csv


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "pilotseq.cli", *args],
        capture_output=True, text=True, timeout=300,
    )


class TestDesign:
    def test_design_emits_sequence_and_summary(self, tmp_path):
        out = tmp_path / "d"
        proc = run_cli(["design", "--preset", "demo", "--out", str(out)])
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        assert summary["n_d"] >= 2
        seq = load_sequence_csv(out / "design.csv")
        assert seq.c.shape[1] == 2  # M_p columns
        assert (out / "assignment.json").exists()

    def test_design_in_process(self, tmp_path):
        parser = cli.build_parser()
        args = parser.parse_args(["design", "--preset", "demo",
                                  "--out", str(tmp_path)])
        assert args.func(args) == 0

    def test_exhaustive_design_summary(self, tmp_path):
        cfg = preset("demo")
        cfg.designer = "exhaustive"
        cfg.output_dir = str(tmp_path / "d")
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        args = cli.build_parser().parse_args(["design", "--config", str(path)])
        assert args.func(args) == 0
        summary = json.loads((tmp_path / "d" / "assignment.json").read_text())
        assert summary["designer"] == "exhaustive"
        assert len(summary["g"]) == summary["n_d"]

    def test_design_matches_simulate_without_sweep(self, tmp_path):
        # both commands design for user 0's scene at the configured power
        cfg = preset("multiuser_ula32")
        cfg.mc_runs = 2
        cfg.horizon_blocks = 64
        cfg.snr_sweep_db = None
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        for command in ("design", "simulate"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 0
        assert ((tmp_path / "design" / "design.csv").read_bytes()
                == (tmp_path / "simulate" / "design.csv").read_bytes())


class TestSimulate:
    def test_simulate_with_config_file(self, tmp_path):
        cfg = preset("demo")
        cfg.mc_runs = 10
        cfg.horizon_blocks = 8
        cfg.output_dir = str(tmp_path / "sim")
        cfg_path = tmp_path / "cfg.json"
        cfg.save(cfg_path)
        proc = run_cli(["simulate", "--config", str(cfg_path)])
        assert proc.returncode == 0
        trace = (tmp_path / "sim" / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 8 * 3  # header + blocks x schemes

    def test_seed_override_changes_trace(self, tmp_path):
        cfg = preset("demo")
        cfg.mc_runs = 10
        cfg.horizon_blocks = 8
        cfg_path = tmp_path / "cfg.json"
        traces = []
        for seed, sub in ((1, "s1"), (2, "s2")):
            cfg.output_dir = str(tmp_path / sub)
            cfg.save(cfg_path)
            proc = run_cli(["simulate", "--config", str(cfg_path),
                            "--seed", str(seed)])
            assert proc.returncode == 0
            traces.append((tmp_path / sub / "trace.csv").read_text())
        assert traces[0] != traces[1]

    def test_resolved_config_reproduces_run(self, tmp_path):
        cfg = preset("demo")
        cfg.mc_runs = 12
        cfg.horizon_blocks = 8
        cfg.output_dir = str(tmp_path / "first")
        cfg_path = tmp_path / "cfg.json"
        cfg.save(cfg_path)
        assert run_cli(["simulate", "--config", str(cfg_path)]).returncode == 0
        resolved = tmp_path / "first" / "config.resolved.json"
        loaded = ExperimentConfig.load(resolved)
        loaded.output_dir = str(tmp_path / "second")
        second_cfg = tmp_path / "cfg2.json"
        loaded.save(second_cfg)
        assert run_cli(["simulate", "--config", str(second_cfg)]).returncode == 0
        first = (tmp_path / "first" / "trace.csv").read_bytes()
        second = (tmp_path / "second" / "trace.csv").read_bytes()
        assert first == second

    def test_multiuser_writes_sweep(self, tmp_path):
        cfg = preset("multiuser_ula32")
        cfg.users.count = 2
        cfg.users.theta_deg = [-15.0, 20.0]
        cfg.mc_runs = 8
        cfg.horizon_blocks = 64
        cfg.snr_sweep_db = [5.0]
        cfg.output_dir = str(tmp_path / "mu")
        cfg_path = tmp_path / "mu.json"
        cfg.save(cfg_path)
        proc = run_cli(["simulate", "--config", str(cfg_path)])
        assert proc.returncode == 0
        sweep = (tmp_path / "mu" / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "snr_db,scheme,user,se_mc,se_det,se_lb"
        assert len(sweep) == 1 + 2 * 2  # schemes x users at one SNR

    def test_single_user_honours_angle_and_sweep(self, tmp_path):
        cfg = preset("demo")
        cfg.mc_runs = 4
        cfg.horizon_blocks = 8
        cfg.snr_sweep_db = [0.0, 10.0]
        outputs = []
        for sub, ring_deg, user_deg in (("users", 20.0, [-25.0]), ("ring", -25.0, None)):
            cfg.ring.theta_h_deg = ring_deg
            cfg.users.theta_deg = user_deg
            path = tmp_path / f"{sub}.json"
            path.write_text(cfg.to_json())
            assert cli.main(["simulate", "--config", str(path),
                             "--out", str(tmp_path / sub)]) == 0
            outputs.append([(tmp_path / sub / name).read_bytes()
                            for name in ("trace.csv", "sweep.csv")])
        # the explicit user angle places the user as the ring angle does
        assert outputs[0] == outputs[1]
        sweep = outputs[0][1].decode().splitlines()
        assert len(sweep) == 1 + 2 * 3  # SNR points x schemes, one user
        assert {float(row.split(",")[0]) for row in sweep[1:]} == {0.0, 10.0}


class TestErrors:
    def test_missing_config_is_machine_readable(self):
        proc = run_cli(["simulate", "--config", "/nonexistent/cfg.json"])
        assert proc.returncode == 1
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert "error" in err and "type" in err

    def test_conflicting_sources_rejected(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        preset("demo").save(cfg_path)
        proc = run_cli(["simulate", "--config", str(cfg_path),
                        "--preset", "demo"])
        assert proc.returncode == 1
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert "not both" in err["error"]

    def test_unknown_preset_rejected(self):
        proc = run_cli(["design", "--preset", "not_a_preset"])
        assert proc.returncode == 1

    def test_seed_override_fails_at_load_naming_it(self, tmp_path):
        proc = run_cli(["simulate", "--preset", "demo", "--seed", "-1",
                        "--out", str(tmp_path)])
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert "seed" in json.loads(lines[0])["error"]

    @staticmethod
    def error_for(command, doc, tmp_path, capsys):
        """The one-line JSON error of ``command`` run on a config document."""
        doc["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, "--config", str(path)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])["error"]

    def test_non_finite_rho_names_field(self, tmp_path, capsys):
        doc = preset("demo").to_dict()
        doc["frame"]["rho"] = float("nan")
        assert "rho" in self.error_for("design", doc, tmp_path, capsys)

    def test_non_integral_m_p_names_field(self, tmp_path, capsys):
        doc = preset("demo").to_dict()
        doc["frame"]["m_p"] = "2"
        assert "m_p" in self.error_for("simulate", doc, tmp_path, capsys)

    def test_multiuser_dft_basis_names_field(self, tmp_path, capsys):
        doc = preset("multiuser_ula32").to_dict()
        doc["users"]["count"] = 2
        doc["basis"] = "dft"
        assert "basis" in self.error_for("simulate", doc, tmp_path, capsys)

    def test_multiuser_single_user_baseline_names_field(self, tmp_path, capsys):
        doc = preset("multiuser_ula32").to_dict()
        doc["users"]["count"] = 2
        doc["baselines"] = ["perfect_csit", "orthogonal"]
        assert "baselines" in self.error_for("simulate", doc, tmp_path, capsys)

    @pytest.mark.parametrize("name, field, value", [
        ("demo", "mc_runs", "5"),
        ("demo", "threads", "2"),
        ("demo", "seed", 1.5),
        ("demo", "horizon_blocks", 10.5),
        ("demo", "users.count", "2"),
        ("demo", "rank_tol", float("nan")),
        ("demo", "snr_sweep_db", "5"),
        ("demo", "users.theta_deg", [10.0, 20.0]),  # two angles for one user
        ("upa375", "array.n_t", 100),  # 15 x 25 elements
        ("demo", "array.n_t", "16"),
        ("demo", "ring.v_kmh", "3"),
        ("demo", "ring.theta_h_deg", 70.0),  # outside the (-60, 60) sector
        ("demo", "users.theta_deg", [70.0]),
        ("demo", "ring.d_r", 200.0),  # beyond ring.d_s
        ("demo", "ring.d_s", 20.0),  # inside ring.d_r
        ("demo", "ring.h", 0.0),
        ("demo", "ring.v_kmh", -3.0),
        ("demo", "ring.v_kmh", 400.0),  # Doppler argument past the first J0 zero
        ("demo", "array.spacing_over_wavelength", -0.5),
        ("demo", "frame.g", 6),  # not a prime power
        ("demo", "frame.m", 2),  # no data symbol after frame.m_p = 2 pilots
        ("demo", "frame.n_d", 0),
        ("demo", "frame.rho", -1.0),
        ("demo", "array.bogus", 1),
        ("demo", "ring.bogus", 1),
        ("multiuser_ula32", "users.count", 10),  # 10 users * frame.m_p = frame.m
    ])
    def test_bad_field_fails_at_load_naming_it(self, tmp_path, capsys, name, field, value):
        doc = preset(name).to_dict()
        *parents, key = field.split(".")
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = value
        assert field in self.error_for("design", doc, tmp_path, capsys)

    def test_angle_outside_sector_names_user(self, tmp_path, capsys):
        doc = preset("multiuser_ula32").to_dict()
        doc["users"]["theta_deg"] = [0.0, 10.0, -61.0, 20.0, 30.0]
        assert "users.theta_deg[2]" in self.error_for("design", doc, tmp_path, capsys)


class TestVerify:
    def test_verify_battery_passes(self):
        proc = run_cli(["verify"])
        assert proc.returncode == 0
        lines = [l for l in proc.stdout.splitlines() if l]
        assert all(l.startswith("PASS") for l in lines)
        assert len(lines) == len(cli.VERIFY_CHECKS)
