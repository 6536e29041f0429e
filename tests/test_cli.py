"""Command-line surface: subcommands, flags, outputs and error reporting."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pilotseq import cli
from pilotseq import sequence_design as sd
from pilotseq import simulate as sim
from pilotseq.config import ExperimentConfig, preset
from pilotseq.sequence_design import load_sequence_csv

ROOT = Path(__file__).resolve().parent.parent


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
        cfg.schemes = ["exhaustive", "mp_fixed", "perfect_csit"]
        cfg.output_dir = str(tmp_path / "d")
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        args = cli.build_parser().parse_args(["design", "--config", str(path)])
        assert args.func(args) == 0
        summary = json.loads((tmp_path / "d" / "assignment.json").read_text())
        assert summary["designer"] == "exhaustive"
        assert len(summary["g"]) == summary["n_d"]

    def test_design_matches_simulate_without_sweep(self, tmp_path):
        # both commands design for user 0's scene at the last operating
        # point: the configured power, or the preset's last swept SNR
        cfg = preset("multiuser_ula32")
        cfg.mc_runs = 2
        cfg.horizon_blocks = 64
        for sweep in (None, cfg.snr_sweep_db):
            cfg.snr_sweep_db = sweep
            path = tmp_path / f"cfg{sweep is None}.json"
            path.write_text(cfg.to_json())
            outs = [tmp_path / f"{command}{sweep is None}" for command in ("design", "simulate")]
            for command, out in zip(("design", "simulate"), outs):
                assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
            assert (outs[0] / "design.csv").read_bytes() == (outs[1] / "design.csv").read_bytes()

    def test_first_designed_scheme_is_reported(self, tmp_path):
        # a baseline may come first: the trace follows the list order, and
        # both commands report the first designed scheme, which here
        # designs otherwise than the second
        cfg = preset("upa375")
        cfg.schemes = ["mp_fixed", "exhaustive", "min_max", "perfect_csit"]
        cfg.mc_runs = 2
        cfg.horizon_blocks = 64
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        for command in ("design", "simulate"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 0
        summary = json.loads((tmp_path / "design" / "assignment.json").read_text())
        assert summary["designer"] == "exhaustive"
        design = load_sequence_csv(tmp_path / "simulate" / "design.csv")
        assert list(design.g) == summary["g"]
        scene = sim.user_scene(cfg, 0, cfg.ring.theta_h_deg)
        greedy = sim.design_sweep([scene], [cfg.frame.build()], "min_max")[0][0][0]
        assert greedy.g != design.g
        assert ((tmp_path / "design" / "design.csv").read_bytes()
                == (tmp_path / "simulate" / "design.csv").read_bytes())
        trace = (tmp_path / "simulate" / "trace.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in trace[1:5]] == cfg.schemes


    def test_design_builds_user_zero_scene_alone(self, tmp_path, monkeypatch):
        """``design`` builds and rank-checks user 0's scene alone, and writes
        the bytes it writes from user 0's scene among every user's."""
        cfg = preset("multiuser_ula32")
        every_user = sim.multiuser_scenes_from_config(cfg)[0]
        assert len(every_user) > 1
        out = tmp_path / "d"
        args = ["design", "--preset", "multiuser_ula32", "--out", str(out)]
        with monkeypatch.context() as patch:
            patch.setattr(sim, "user_scene", lambda config, u, theta: every_user[u])
            assert cli.main(args) == 0
        expected = [(out / name).read_bytes() for name in ("design.csv", "assignment.json")]
        calls = []
        build_scene = sim.build_scene

        def counting_build_scene(*a, **kw):
            calls.append(a)
            return build_scene(*a, **kw)

        monkeypatch.setattr(sim, "build_scene", counting_build_scene)
        assert cli.main(args) == 0
        assert len(calls) == 1
        assert [(out / name).read_bytes() for name in ("design.csv", "assignment.json")] == expected


class TestSimulate:
    def test_simulate_with_config_file(self, tmp_path):
        cfg = preset("demo")
        cfg.mc_runs = 10
        cfg.horizon_blocks = 8
        cfg.output_dir = str(tmp_path / "sim")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
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
            cfg_path.write_text(cfg.to_json())
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
        cfg_path.write_text(cfg.to_json())
        assert run_cli(["simulate", "--config", str(cfg_path)]).returncode == 0
        resolved = tmp_path / "first" / "config.resolved.json"
        loaded = ExperimentConfig.from_dict(json.loads(resolved.read_text()))
        loaded.output_dir = str(tmp_path / "second")
        second_cfg = tmp_path / "cfg2.json"
        second_cfg.write_text(loaded.to_json())
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
        cfg_path.write_text(cfg.to_json())
        proc = run_cli(["simulate", "--config", str(cfg_path)])
        assert proc.returncode == 0
        sweep = (tmp_path / "mu" / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "snr_db,scheme,user,se_mc,se_det,se_lb"
        assert len(sweep) == 1 + 2 * 2  # schemes x users at one SNR

    def test_multiuser_simulates_at_an_odd_prime_frame(self, tmp_path, monkeypatch):
        # at frame.g = 7 the min-max greedy of some (SNR point, user) cells
        # strands blocks no move fits; those cells take the exhaustive
        # walk's design on the same table, and the whole sweep simulates
        walks, exhaustive_walk = [], sd._exhaustive_walk
        monkeypatch.setattr(sd, "_exhaustive_walk",
                            lambda *args: walks.append(1) or exhaustive_walk(*args))
        cfg = preset("multiuser_ula32")
        cfg.frame.g = 7
        cfg.mc_runs, cfg.horizon_blocks = 4, 28
        path = tmp_path / "g7.json"
        path.write_text(cfg.to_json())
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "g7")]) == 0
        assert walks
        sweep = (tmp_path / "g7" / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 1 + 7 * 2 * 5  # SNR points x schemes x users

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
        cfg_path.write_text(preset("demo").to_json())
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
        if isinstance(doc.get("output_dir"), str):  # else it is the field under test
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
        doc["schemes"] = ["min_max_dft", "perfect_csit"]
        assert "schemes[0]" in self.error_for("simulate", doc, tmp_path, capsys)

    def test_multiuser_single_user_baseline_names_field(self, tmp_path, capsys):
        doc = preset("multiuser_ula32").to_dict()
        doc["users"]["count"] = 2
        doc["schemes"] = ["min_max", "perfect_csit", "orthogonal"]
        assert "schemes[2]" in self.error_for("simulate", doc, tmp_path, capsys)

    @pytest.mark.parametrize("name, field, value", [
        ("demo", "mc_runs", "5"),
        ("demo", "threads", "2"),
        ("demo", "seed", 1.5),
        ("demo", "horizon_blocks", 10.5),
        ("demo", "users.count", "2"),
        ("demo", "rank_tol", float("nan")),
        ("demo", "snr_sweep_db", "5"),
        ("demo", "users.theta_deg", [10.0, 20.0]),  # two angles for one user
        ("upa375", "array.n_t", 100),  # not a field: the element count is n_v * n_h
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
        ("demo", "array", 5),
        ("demo", "users", None),
        ("demo", "frame", [1]),
        ("demo", "baselines", "orthogonal"),  # an old field: schemes lists every scheme
        ("demo", "output_dir", 5),
        ("demo", "array.kind", "ula"),  # an array is n_v x n_h, with no kind
        ("demo", "array.n_h", 0),
        ("demo", "ring.f_c", -2.5e9),
        ("demo", "ring.t_s", 0.0),
        ("demo", "frame.n_d", 1),  # fewer than frame.m_p = 2 sounding vectors
        ("demo", "array.n_h", 1),  # one element has rank 1 < frame.m_p = 2
        ("demo", "rank_tol", 1.0),  # keeps no eigenmode
        ("upa375", "horizon_blocks", 20_000_000),  # 3.9 GB, mostly per-block traces
        ("multiuser_ula32", "horizon_blocks", 3_000_000),  # 5.4 GB of per-block traces
        ("demo", "basis", "eigen"),  # a DFT design is the scheme "<designer>_dft"
        ("demo", "designer", "orthogonal"),  # an old field: schemes lists every scheme
        ("demo", "schemes", [{}]),
        ("demo", "schemes", ["min_max", 1]),
        ("multiuser_ula32", "schemes", ["min_max", "min_max_dft"]),  # single-user only
        ("upa375", "mc_runs", 1_000_000),  # 48 GB of per-run channels, estimates, generators
        ("demo", "schemes", "min_max"),  # not a list
        ("demo", "schemes", ["min_max", "bogus"]),
        ("demo", "schemes", ["min_max", "perfect_csit", "min_max"]),  # a duplicate
        ("demo", "schemes", ["mp_fixed", "perfect_csit"]),  # no designed scheme
        ("demo", "schemes", []),
    ])
    def test_bad_field_fails_at_load_naming_it(self, tmp_path, capsys, name, field, value):
        doc = preset(name).to_dict()
        *parents, key = field.split(".")
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = value
        assert field in self.error_for("design", doc, tmp_path, capsys)

    @pytest.mark.parametrize("schemes, error", [
        (["min_max", "bogus"], "schemes[1] = 'bogus' is not a scheme"),
        (["min_max", "perfect_csit", "min_max"], "schemes[2] = 'min_max' repeats"),
    ])
    def test_scheme_list_error_names_the_entry(self, schemes, error):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig.from_dict({**preset("demo").to_dict(), "schemes": schemes})
        assert str(exc.value).startswith(error)

    @pytest.mark.parametrize("command", ["design", "simulate"])
    @pytest.mark.parametrize("key, value", [("kind", "upa"), ("n_t", 375)])
    def test_old_array_spelling_fails_at_load_naming_it(self, tmp_path, capsys, command,
                                                        key, value):
        """An array is n_v x n_h: a document that still spells it with a kind
        or an element count fails at load, naming the field."""
        doc = preset("upa375").to_dict()
        doc["array"][key] = value
        assert (self.error_for(command, doc, tmp_path, capsys)
                == f"unknown config field array.{key}")

    def test_memory_guard_names_both_sizes_and_admits_long_horizons(self):
        # the run keeps one slab's gains and holds over the horizon only its
        # traces, so 100 000 upa375 blocks need about 0.1 GB; the message
        # names both fields that size the run
        ExperimentConfig.from_dict({**preset("upa375").to_dict(), "horizon_blocks": 100_000})
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_dict({**preset("upa375").to_dict(), "mc_runs": 10**6})
        assert "horizon_blocks = 2560 and mc_runs = 1000000 need 48.2 GB" in str(err.value)

    @pytest.mark.parametrize("command", ["design", "simulate"])
    def test_design_rank_below_pilots_names_fields(self, tmp_path, capsys, command):
        # a loose rank_tol keeps one eigenmode, fewer than frame.m_p = 2
        doc = preset("demo").to_dict()
        doc["rank_tol"] = 0.99
        error = self.error_for(command, doc, tmp_path, capsys)
        assert error.startswith("user 0 keeps 1 eigenmodes")
        assert "rank_tol = 0.99" in error and "frame.m_p = 2" in error

    @pytest.mark.parametrize("command", ["design", "simulate"])
    @pytest.mark.parametrize("doc", [[], "demo", 5])
    def test_document_must_be_an_object(self, tmp_path, capsys, command, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {
            "error": f"a config document must be an object of fields, got {doc!r}",
            "type": "ValueError"}

    def test_angle_outside_sector_names_user(self, tmp_path, capsys):
        doc = preset("multiuser_ula32").to_dict()
        doc["users"]["theta_deg"] = [0.0, 10.0, -61.0, 20.0, 30.0]
        assert "users.theta_deg[2]" in self.error_for("design", doc, tmp_path, capsys)


class TestVerify:
    def test_verify_battery_passes(self):
        proc = run_cli(["verify"])
        assert proc.returncode == 0
        lines = [l for l in proc.stdout.splitlines() if l]
        assert len(lines) == len(cli.VERIFY_CHECKS)
        for line, (name, _, _) in zip(lines, cli.VERIFY_CHECKS):
            match = re.fullmatch(rf"PASS {name}: .+ = (\S+), threshold (\S+), margin (\S+)", line)
            assert match, line
            value, threshold, margin = map(float, match.groups())
            assert margin >= 0, line
            assert margin == pytest.approx(threshold - value, rel=1e-2), line

    def test_settled_frames_match_one_tracker_per_user(self):
        # the bound check runs every user's modes side by side in one tracker
        designs = [(np.array([[1], [2], [1], [3]]), np.array([2.0, 1.0, 0.5, 0.1])),
                   (np.array([[2], [1], [2], [1]]), np.array([1.5, 0.7]))]
        joint = cli._settled_frames(designs, 0.95, 4.0)
        for design, frame in zip(designs, joint):
            assert np.array_equal(frame, cli._settled_frames([design], 0.95, 4.0)[0])


class TestScripts:
    @pytest.mark.parametrize("script, args, field", [
        ("run_steady_state_table.py", ["--preset", "demo", "--mc-runs", "0"], "mc_runs"),
        ("run_multiuser_sweep.py", ["--users", "10"], "users.count"),
        ("run_steady_state_table.py", ["--preset", "demo", "--skip", "min_max", "exhaustive",
                                       "min_max_dft"], "schemes"),  # no designed scheme left
    ])
    def test_bad_override_fails_naming_field(self, tmp_path, script, args, field):
        # the overrides go through the config load checks before any run
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *args], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode != 0
        assert field in proc.stderr
