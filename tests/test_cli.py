"""Command-line front end: subcommands, exit codes, manifests, determinism."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from functools import partial

import pytest

import opinionflow
from opinionflow import (EvolutionConfig, InfluenceGraph, PopulationState, cli, evolution,
                         harness, run_evolution)
from opinionflow.cli import main
from opinionflow.harness import sample_simplex, sample_state
from opinionflow.seeding import COIN_WINDOW, generator

from .helpers import reference_evolution


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestSimulate:
    def test_triangle_argmax(self, tmp_path):
        code, out = run(tmp_path, "simulate", "--graph", "triangle",
                        "--f", "linear:0.49", "--x0", "0.5,0.3,0.2")
        assert code == 0
        summary = read_json(out / "summary.json")
        assert summary["converged"]
        assert summary["independent"]
        assert summary["limit"]["0"] == pytest.approx(1.0, abs=1e-8)
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "step,phi,active_count,mass_0,mass_1,mass_2"
        manifest = read_json(out / "manifest.json")
        assert manifest["subcommand"] == "simulate"
        assert "trajectory.csv" in manifest["outputs"]

    def test_fixed_point_zero_steps(self, tmp_path):
        code, out = run(tmp_path, "simulate", "--graph", "complete:2",
                        "--f", "linear:0.5", "--x0", "1.0,0.0")
        assert code == 0
        assert read_json(out / "summary.json")["iterations"] == 0

    def test_max_iters_exit_code(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--graph", "complete:2",
                      "--f", "linear:0.5", "--x0", "0.6,0.4",
                      "--tol", "1e-15", "--max-iters", "3")
        assert code == 2

    def test_stop_that_is_not_a_fixed_point_is_not_converged(self, tmp_path):
        # on the path 0-2-1 the L1 step falls below tol at step 326 while the
        # adjacent heavy types 1 and 2 still differ by 5.9e-4 in mass
        code, out = run(tmp_path, "simulate", "--graph",
                        '{"vertices": [0, 1, 2], "edges": [[0, 2], [1, 2]]}',
                        "--f", "cubic:0.9", "--x0", "0.05,0.5,0.45")
        assert code == 2
        summary = read_json(out / "summary.json")
        assert (summary["converged"], summary["iterations"]) == (False, 326)

    def test_bad_graph_json(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--graph", '{"vertices": [0]}',
                      "--x0", "1.0")
        assert code == 64

    def test_bad_x0(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--graph", "triangle",
                      "--x0", "0.5,0.5")
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ("simulate", "--graph", "triangle", "--x0", "0.5,0.3,0.2000000001"),
        ("evolve", "--graph", "triangle", "--x0", "0.5,0.3,0.2000000001"),
        ("analyze", "--graph", "path:3", "--x0", "0.5,0,0.5000000001")])
    def test_x0_off_the_simplex_names_its_sum(self, tmp_path, capsys, argv):
        # a sum 1e-10 off: the step's own drift check (1e-12) would reject it, or
        # analyze would report a fixed point off the simplex
        code, out = run(tmp_path, *argv, "--f", "linear:0.4")
        assert code == 64
        assert "must sum to 1 (got 1.0000000001)" in capsys.readouterr().err
        assert not out.exists()

    def test_graph_file_naming_itself(self, tmp_path, capsys):
        spec = tmp_path / "graph.json"
        spec.write_text(json.dumps(f"@{spec}"))
        code, out = run(tmp_path, "simulate", "--graph", f"@{spec}", "--x0", "uniform")
        assert code == 64
        assert "unknown graph spec" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["triangle:7", "triangle:", "path:abc"])
    def test_bad_graph_spec_names_itself(self, tmp_path, capsys, spec):
        code, out = run(tmp_path, "simulate", "--graph", spec, "--x0", "uniform")
        assert code == 64
        assert repr(spec) in capsys.readouterr().err
        assert not out.exists()

    def test_inline_graph_json(self, tmp_path):
        spec = '{"vertices": [0, 1], "edges": [[0, 1]]}'
        code, out = run(tmp_path, "simulate", "--graph", spec, "--x0", "0.6,0.4")
        assert code == 0


class TestEvolve:
    def test_runs_and_writes_timeline(self, tmp_path):
        code, out = run(tmp_path, "evolve", "--graph", "path:4", "--x0", "uniform",
                        "--p", "0.2", "--epsilon", "0.05", "--steps", "100",
                        "--seed", "7")
        assert code == 0
        lines = (out / "timeline.jsonl").read_text().strip().splitlines()
        assert len(lines) == 101
        summary = read_json(out / "summary.json")
        assert summary["steps"] == 100

    def test_seed_and_jobs_do_not_change_bytes(self, tmp_path):
        args = ["evolve", "--graph", "path:4", "--x0", "uniform", "--p", "0.3",
                "--epsilon", "0.05", "--steps", "80", "--seed", "11"]
        code1 = main([*args, "--jobs", "1", "--out", str(tmp_path / "a")])
        code2 = main([*args, "--jobs", "4", "--out", str(tmp_path / "b")])
        assert code1 == code2 == 0
        a = (tmp_path / "a" / "timeline.jsonl").read_bytes()
        b = (tmp_path / "b" / "timeline.jsonl").read_bytes()
        assert a == b

    def test_matches_simulate_when_stochastics_off(self, tmp_path):
        main(["simulate", "--graph", "triangle", "--f", "linear:0.5",
              "--x0", "0.5,0.3,0.2", "--out", str(tmp_path / "sim")])
        main(["evolve", "--graph", "triangle", "--f", "linear:0.5",
              "--x0", "0.5,0.3,0.2", "--p", "0", "--epsilon", "1e-06",
              "--delta", "0", "--steps", "200", "--out", str(tmp_path / "evo")])
        sim = read_json(tmp_path / "sim" / "summary.json")["limit"]
        evo = read_json(tmp_path / "evo" / "summary.json")["terminal"]
        for v, m in sim.items():
            assert evo.get(v, 0.0) == pytest.approx(m, abs=1e-5)

    @pytest.mark.parametrize("steps", [50, 51])
    def test_summary_reads_the_last_step_of_a_cycle_run(self, tmp_path, steps):
        # p = 0 from this start: one run of period 2 from step 2 to the horizon
        args = ["--graph", "path:4", "--x0", "random", "--seed", "18", "--p", "0",
                "--epsilon", "0.05", "--delta", "0.3", "--steps", str(steps)]
        code, out = run(tmp_path, "evolve", *args)
        assert code == 0
        config = EvolutionConfig(p=0.0, epsilon=0.05, delta=0.3, seed=18, horizon=steps)
        want = reference_evolution(sample_state(InfluenceGraph.path(4), generator(18)), config)
        summary = read_json(out / "summary.json")
        assert summary["phi_final"] == want.records[-1].phi_after
        assert summary["terminal"] == want.terminal.masses_json()
        assert (summary["steps"], summary["final_types"]) == (steps, 4)
        assert read_json(out / "manifest.json")["diagnostics"] == \
            {"stepped_steps": 2, "jumped_steps": steps - 2, "runs_per_period": {"2": 1},
             "coin_draws": 0, "max_cascade": 0}

    def test_diagnostics_count_the_steps_run(self, tmp_path, monkeypatch):
        calls, cascades = [], [0]
        step = evolution.evolution_step

        def counted(*args, **kwargs):
            calls.append(args[0].t)
            state, record = step(*args, **kwargs)
            cascades.append(len(record.deaths))
            return state, record

        monkeypatch.setattr(evolution, "evolution_step", counted)
        code, out = run(tmp_path, "evolve", "--graph", "path:4", "--x0", "uniform",
                        "--p", "0.001", "--epsilon", "0.05", "--delta", "0.3",
                        "--steps", "5000", "--seed", "2")
        assert code == 0
        diagnostics = read_json(out / "manifest.json")["diagnostics"]
        # one Philox pass per coin window up to the horizon: a jump draws no coin twice
        assert diagnostics == {"stepped_steps": len(calls), "jumped_steps": 5000 - len(calls),
                               "runs_per_period": {"1": 4, "2": 1},
                               "coin_draws": -(-5000 // COIN_WINDOW),
                               "max_cascade": max(cascades)}

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_quiet_run_writes_in_bounded_memory(self, tmp_path):
        # the 10^5-step timeline.jsonl is 26 MB: a writer that builds the whole file
        # in memory before writing it peaks far above the bound. The child reports
        # VmHWM, the peak of its own address space: its ru_maxrss would also count
        # this process, which Linux carries into a child across fork and exec.
        script = ("import sys\n"
                  "from opinionflow.cli import main\n"
                  "assert main(['evolve', '--graph', 'path:4', '--x0', 'uniform', '--p', '0.001',"
                  " '--epsilon', '0.05', '--delta', '0.3', '--steps', '100000', '--seed', '1',"
                  " '--out', sys.argv[1]]) == 0\n"
                  "print([line.split()[1] for line in open('/proc/self/status')"
                  " if line.startswith('VmHWM:')][0])\n")
        src = os.path.dirname(os.path.dirname(opinionflow.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                               check=True, capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": path})
        assert (tmp_path / "out" / "timeline.jsonl").stat().st_size > 25e6
        peak_mb = int(child.stdout.split()[-1]) / 1024      # VmHWM is in kB
        assert peak_mb < 80

    @pytest.mark.parametrize("seed", [1, 2])
    def test_quiet_run_files_are_the_returned_text(self, tmp_path, seed):
        # the CLI hands the writers a binary file and they write it in blocks;
        # called with no file they return the text: both give the same bytes
        code, out = run(tmp_path, "evolve", "--graph", "path:4", "--x0", "uniform",
                        "--p", "0.001", "--epsilon", "0.05", "--delta", "0.3",
                        "--steps", "100000", "--seed", str(seed))
        assert code == 0
        config = EvolutionConfig(p=0.001, epsilon=0.05, delta=0.3, seed=seed, horizon=100_000)
        timeline = run_evolution(PopulationState.uniform(InfluenceGraph.path(4)), config)
        assert any(r.repeat > 1 for r in timeline.records)
        assert (out / "timeline.jsonl").read_bytes() == timeline.to_jsonl().encode()
        assert (out / "summary.csv").read_bytes() == timeline.summary_csv().encode()

    def test_influence_leaving_the_simplex_rejected(self, tmp_path, capsys):
        code, out = run(tmp_path, "evolve", "--graph", "path:2", "--x0", "0.6,0.4",
                        "--f", "linear:20", "--p", "0", "--steps", "3")
        assert code == 64
        assert "sup|F| = 20 > 1" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_replay_reproduces_outputs(self, tmp_path):
        code1 = main(["evolve", "--graph", "path:3", "--x0", "uniform",
                      "--p", "0.4", "--epsilon", "0.1", "--steps", "60",
                      "--seed", "3", "--out", str(tmp_path / "a")])
        assert code1 == 0
        code2 = main(["evolve", "--config", str(tmp_path / "a" / "manifest.json"),
                      "--out", str(tmp_path / "b")])
        assert code2 == 0
        for name in ("timeline.jsonl", "summary.csv", "summary.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_manifest_replay_simulate_random_x0(self, tmp_path):
        code1 = main(["simulate", "--graph", "triangle", "--f", "linear:0.49",
                      "--x0", "random", "--seed", "17", "--out", str(tmp_path / "a")])
        assert code1 == 0
        code2 = main(["simulate", "--config", str(tmp_path / "a" / "manifest.json"),
                      "--out", str(tmp_path / "b")])
        assert code2 == 0
        for name in ("trajectory.csv", "summary.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_manifest_replay_verify(self, tmp_path):
        args = ["verify", "convergence", "--graph", "triangle", "--f",
                "linear:0.49", "--trials", "20", "--seed", "23", "--jobs", "1"]
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        assert main(["verify", "convergence",
                     "--config", str(tmp_path / "a" / "manifest.json"),
                     "--jobs", "1", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "stats.json").read_bytes() == \
               (tmp_path / "b" / "stats.json").read_bytes()


class TestAnalyze:
    def test_unstable_balanced_edge(self, tmp_path):
        code, out = run(tmp_path, "analyze", "--graph", "complete:2",
                        "--f", "linear:0.5", "--x0", "0.5,0.5")
        assert code == 0
        report = read_json(out / "analysis.json")
        assert report["spectral_radius_projected"] == pytest.approx(1.25)
        assert report["linearly_stable"] is False
        assert report["active_independent"] is False

    def test_non_fixed_point_rejected(self, tmp_path):
        code, _ = run(tmp_path, "analyze", "--graph", "complete:2",
                      "--f", "linear:0.5", "--x0", "0.6,0.4")
        assert code == 64

    def test_above_512_types(self, tmp_path):
        code, out = run(tmp_path, "analyze", "--graph", "star:600", "--f", "linear:0.4",
                        "--x0", ",".join(["1"] + ["0"] * 600))
        assert code == 0
        report = read_json(out / "analysis.json")
        assert len(report["spectrum"]) == 600
        assert report["spectral_radius_projected"] == pytest.approx(0.6)
        assert report["linearly_stable"] is True


class TestBasin:
    def test_small_raster(self, tmp_path):
        code, out = run(tmp_path, "basin", "--graph", "triangle",
                        "--f", "linear:0.5", "--resolution", "8", "--jobs", "1")
        assert code == 0
        csv = (out / "basin.csv").read_text().strip().splitlines()
        assert len(csv) == 9
        legend = read_json(out / "legend.json")
        assert set(legend["legend"]) >= {"0", "1", "2"}
        assert (out / "basin.pgm").read_text().startswith("P2")

    def test_wrong_size_graph(self, tmp_path):
        code, _ = run(tmp_path, "basin", "--graph", "path:4", "--resolution", "4")
        assert code == 64

    def test_never_loads_numpy_random(self, tmp_path):
        # numpy.random costs about 6 MB of resident memory, and a raster draws nothing;
        # a run that starts no pool loads no pool modules (evolve needs numpy.random);
        # and a subcommand executes only the package modules it uses. A module counts
        # as executed once it is a plain module: one the package registered lazily
        # and nobody has touched is still a LazyModule
        script = ("import sys, types\n"
                  "from opinionflow.cli import main\n"
                  "argv, absent = sys.argv[1:-1], sys.argv[-1].split(',')\n"
                  "assert main(argv) == 0\n"
                  "loaded = [name for name in absent\n"
                  "          if type(sys.modules.get(name)) is types.ModuleType]\n"
                  "assert not loaded, f'{loaded} loaded'\n")
        src = os.path.dirname(os.path.dirname(opinionflow.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        pool = "concurrent.futures,multiprocessing"
        runs = [(["basin", "--resolution", "8", "--jobs", "1"],
                 "numpy.random,opinionflow.evolution,opinionflow.seeding,"
                 "opinionflow.stability," + pool),
                (["evolve", "--steps", "50", "--jobs", "1"],
                 "opinionflow.harness,opinionflow.stability," + pool),
                (["verify", "convergence", "--trials", "10", "--jobs", "1"],
                 "opinionflow.evolution,opinionflow.stability," + pool)]
        for argv, absent in runs:
            out = str(tmp_path / argv[0])
            subprocess.run([sys.executable, "-c", script, *argv, "--out", out, absent],
                           check=True, env={**os.environ, "PYTHONPATH": path})


# small configs whose hypotheses hold, one per evolution verify target
STABILITY_CFG = {"graph": "path:4", "x0": "uniform", "p": 0.001, "epsilon": 0.05,
                 "delta": 0.3, "beta_min": 0.05, "beta_max": 0.1, "horizon": 3000,
                 "influence": {"family": "linear", "a": 0.5}, "trials": 8}
TYPES_CFG = {"graph": "path:8", "x0": "random", "p": 0.5, "epsilon": 0.01,
             "delta": 0.01, "beta_min": 0.1, "beta_max": 0.3, "horizon": 680,
             "influence": {"family": "linear", "a": 0.0009}, "trials": 2}
PHI_CFG = {"graph": "path:4", "x0": "random", "p": 0.05, "epsilon": 0.04,
           "delta": 0.25, "beta_min": 0.05, "beta_max": 0.1, "horizon": 300,
           "influence": {"family": "linear", "a": 0.5}, "trials": 5}
VERIFY_CFGS = {"stability": STABILITY_CFG, "types": TYPES_CFG, "phi-bounds": PHI_CFG,
               "convergence": {"graph": "triangle", "influence": "linear:0.49"}}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestVerify:
    def test_convergence_pass(self, tmp_path):
        code, out = run(tmp_path, "verify", "convergence", "--graph", "triangle",
                        "--f", "linear:0.49", "--trials", "40", "--seed", "5",
                        "--jobs", "1")
        assert code == 0
        stats = read_json(out / "stats.json")
        assert stats["verdict"] == "pass"
        assert stats["trials"] == 40

    def test_convergence_hypothesis_rejected(self, tmp_path):
        code, _ = run(tmp_path, "verify", "convergence", "--graph", "triangle",
                      "--f", "linear:0.5", "--trials", "5")
        assert code == 4

    def test_convergence_rejects_a_zero_f_edge(self, tmp_path, capsys):
        # no mass crosses the 1-2 edge, so its ends may keep unequal masses forever
        f = json.dumps({"default": {"family": "linear", "a": 0.4},
                        "per_edge": [{"u": 1, "v": 2, "family": "linear", "a": 0}]})
        code, out = run(tmp_path, "verify", "convergence", "--graph", "path:3", "--f", f,
                        "--trials", "3", "--seed", "1", "--jobs", "1")
        assert code == 4 and not out.exists()
        assert "F = linear:0 on edge 1-2 is not strictly increasing" in capsys.readouterr().err
        # simulate and basin check no theorem and keep running such an F
        code, out = run(tmp_path / "s", "simulate", "--graph", "path:3", "--f", f,
                        "--x0", "0.5,0.3,0.2")
        assert code == 0 and read_json(out / "summary.json")["converged"]
        code, out = run(tmp_path / "b", "basin", "--graph", "path:3", "--f", f,
                        "--resolution", "4", "--max-iters", "1000", "--jobs", "1")
        assert code == 0 and (out / "basin.csv").exists()

    def test_stability_small(self, tmp_path):
        cfg = {"graph": "path:4", "x0": "uniform", "p": 0.001, "epsilon": 0.05,
               "delta": 0.3, "beta_min": 0.05, "beta_max": 0.1, "horizon": 3000,
               "influence": {"family": "linear", "a": 0.5}, "trials": 8}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out = run(tmp_path, "verify", "stability", "--config", str(path),
                        "--jobs", "1")
        assert code == 0
        assert read_json(out / "stats.json")["verdict"] == "pass"

    def test_types_vacuous_exit(self, tmp_path):
        cfg = {"graph": "path:8", "x0": "random", "p": 0.5, "epsilon": 0.01,
               "delta": 0.01, "beta_min": 0.1, "beta_max": 0.3, "horizon": 680,
               "influence": {"family": "linear", "a": 0.0009}, "trials": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out = run(tmp_path, "verify", "types", "--config", str(path),
                        "--jobs", "1")
        assert code == 4
        assert read_json(out / "stats.json")["verdict"] == "vacuous"

    def test_phi_bounds_pass(self, tmp_path):
        cfg = {"graph": "path:4", "x0": "random", "p": 0.05, "epsilon": 0.04,
               "delta": 0.25, "beta_min": 0.05, "beta_max": 0.1, "horizon": 300,
               "influence": {"family": "linear", "a": 0.5}, "trials": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out = run(tmp_path, "verify", "phi-bounds", "--config", str(path))
        assert code == 0
        stats = read_json(out / "stats.json")
        assert stats["total_violations"] == 0

    def test_verify_stats_identical_across_jobs(self, tmp_path):
        args = ["verify", "convergence", "--graph", "triangle", "--f",
                "linear:0.49", "--trials", "24", "--seed", "9"]
        main([*args, "--jobs", "1", "--out", str(tmp_path / "a")])
        main([*args, "--jobs", "2", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "stats.json").read_bytes() == \
               (tmp_path / "b" / "stats.json").read_bytes()

    def test_convergence_stops_and_unresolved(self, tmp_path):
        code, out = run(tmp_path, "verify", "convergence", "--graph", "cycle:5",
                        "--f", "linear:0.49", "--trials", "160", "--seed", "71", "--jobs", "1")
        stats = read_json(out / "stats.json")
        assert code == 0
        assert stats["stops"] == {"budget": 0, "certified": 160, "l1": 0}
        assert stats["unresolved"] == [] and stats["unconverged"] == 0
        assert stats["census"]["1+3"] == 31       # 30 and trial 159, once unconverged

    @pytest.mark.parametrize("graph", [
        "cycle:5", '{"vertices": [0, 1, 2, 3, 4], "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}'])
    def test_unresolved_trials_replay(self, tmp_path, monkeypatch, graph):
        # a 5-step budget leaves the trials not certified at step 0 unresolved
        monkeypatch.setattr(harness, "monte_carlo_convergence",
                            partial(harness.monte_carlo_convergence, max_iters=5))
        code, out = run(tmp_path, "verify", "convergence", "--graph", graph,
                        "--f", "linear:0.49", "--trials", "6", "--seed", "3", "--jobs", "1")
        stats = read_json(out / "stats.json")
        assert code == 3 and stats["stops"]["budget"] == len(stats["unresolved"]) > 0
        for k, entry in enumerate(stats["unresolved"]):
            argv = shlex.split(entry["replay"])
            assert argv[:2] == ["opinionflow", "simulate"]
            assert argv[-4:] == ["--x0", "random", "--seed", str(entry["trial_seed"])]
            replay = tmp_path / f"replay{k}"
            assert main([*argv[1:], "--max-iters", "5", "--out", str(replay)]) == 2
            first = (replay / "trajectory.csv").read_text().splitlines()[1].split(",")[3:]
            want = sample_simplex(generator(entry["trial_seed"]), 5)
            assert [float(m) for m in first] == want.tolist()
            echo = read_json(replay / "manifest.json")["config"]
            assert echo["graph"] == read_json(out / "manifest.json")["config"]["graph"]

    @pytest.mark.parametrize("what", ["phi-bounds", "stability", "types"])
    def test_evolution_stats_identical_across_jobs(self, tmp_path, what):
        cfg = write_cfg(tmp_path, {**VERIFY_CFGS[what], "trials": 3})
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            main(["verify", what, "--config", cfg, "--seed", "4", "--jobs", jobs,
                  "--out", str(out)])
            outs.append((out / "stats.json").read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["trials"] == 3

    @pytest.mark.parametrize("trials", ["0", "-2"])
    @pytest.mark.parametrize("what", ["stability", "types", "convergence", "phi-bounds"])
    def test_trials_below_one_rejected(self, tmp_path, capsys, what, trials):
        code, out = run(tmp_path, "verify", what, "--config",
                        write_cfg(tmp_path, VERIFY_CFGS[what]), "--trials", trials,
                        "--jobs", "1")
        assert code == 64
        assert f"trials must be at least 1, got {trials}" in capsys.readouterr().err
        assert not out.exists()

    def test_influence_leaving_the_simplex_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "verify", "stability", "--config",
                      write_cfg(tmp_path, STABILITY_CFG), "--f", "linear:1.5")
        assert code == 64
        assert "sup|F| = 1.5 > 1" in capsys.readouterr().err

    def test_x0_flag_removed_but_config_key_replays(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "phi-bounds", "--x0", "uniform", "--out", str(tmp_path)])
        assert exc.value.code == 64
        cfg = write_cfg(tmp_path, {**PHI_CFG, "trials": 2})
        assert main(["verify", "phi-bounds", "--config", cfg, "--jobs", "1",
                     "--out", str(tmp_path / "a")]) == 0
        assert read_json(tmp_path / "a" / "manifest.json")["config"]["x0"] == "random"
        assert main(["verify", "phi-bounds", "--config",
                     str(tmp_path / "a" / "manifest.json"), "--jobs", "1",
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("stats.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()


    def test_stability_default_delta_names_the_flag(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify", "stability", "--trials", "2", "--jobs", "1")
        assert code == 4
        err = capsys.readouterr().err
        assert "eps*delta^3*alpha_min is 0 because delta is 0" in err and "--delta" in err
        assert not out.exists()

    @pytest.mark.parametrize("what", ["stability", "types", "convergence", "phi-bounds"])
    def test_no_target_builds_an_x0(self, tmp_path, monkeypatch, what):
        def refuse(*args):
            raise AssertionError("verify built an x0")
        monkeypatch.setattr(cli, "parse_x0", refuse)
        code, out = run(tmp_path, "verify", what, "--config",
                        write_cfg(tmp_path, {**VERIFY_CFGS[what], "trials": 2}), "--jobs", "1")
        assert code in (0, 4)
        assert (out / "stats.json").exists()


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--config", str(tmp_path / "nope.json"))
        assert code == 64

    def test_malformed_json_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"graph": trinagle}')
        code, _ = run(tmp_path, "simulate", "--config", str(bad))
        assert code == 64
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "triangle", "x0": "uniform",
                                   "influence": {"family": "linear", "a": 0.5}}))
        code, out = run(tmp_path, "simulate", "--config", str(cfg),
                        "--x0", "0.5,0.3,0.2")
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["x0"]["0"] == 0.5


INT_KEYS = {"max_iters", "seed", "horizon", "resolution", "trials", "eliminate"}
FLOAT_KEYS = {"tol", "p", "epsilon", "delta", "beta_min", "beta_max"}
EVOLUTION_KEYS = ["p", "epsilon", "delta", "beta_min", "beta_max", "seed", "horizon"]
# Each subcommand, a config it runs on, and every scalar key it reads.
READS = {
    "simulate": ({"graph": "triangle"}, ["tol", "max_iters", "seed"]),
    "evolve": ({"horizon": 5}, EVOLUTION_KEYS),
    "analyze": ({"graph": "complete:2", "x0": "1,0"}, ["eliminate", "seed"]),
    "basin": ({"resolution": 4}, ["resolution", "tol", "max_iters"]),
    "verify convergence": ({**VERIFY_CFGS["convergence"], "trials": 2}, ["trials", "seed"]),
    "verify stability": (STABILITY_CFG, [*EVOLUTION_KEYS, "trials"]),
    "verify phi-bounds": (PHI_CFG, [*EVOLUTION_KEYS, "trials"]),
    "verify types": (TYPES_CFG, [*EVOLUTION_KEYS, "trials", "start"]),
}
MALFORMED = [pytest.param(command, base, key, bad, id=f"{command}-{key}-{bad!r}")
             for command, (base, keys) in READS.items() for key in keys
             for bad in ["ten", [1]] + ([2.7] if key in INT_KEYS else [])
             + ([float("nan"), float("-inf")] if key in FLOAT_KEYS else [])]


class TestConfigValues:
    def test_seed_default_is_the_evolution_seed(self):
        # written out in cli, so that resolving a seed does not execute evolution
        assert cli._DEFAULTS["seed"] == EvolutionConfig.seed

    @pytest.mark.parametrize("command,base,key,bad", MALFORMED)
    def test_malformed_value_exits_64(self, tmp_path, capsys, command, base, key, bad):
        code, out = run(tmp_path, *command.split(), "--config",
                        write_cfg(tmp_path, {**base, key: bad}))
        err = capsys.readouterr().err
        assert code == 64
        assert f"{key} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--graph", "triangle", "--max-iters", "ten"],
         "max_iters must be an integer, got 'ten'"),
        (["evolve", "--steps", "2.7"], "horizon must be an integer, got '2.7'"),
        (["verify", "convergence", "--trials", "[1]"], "trials must be an integer"),
        (["simulate", "--graph", "triangle", "--x0", "nan,0.5,0.5", "--max-iters", "50"],
         "bad x0 'nan,0.5,0.5': masses must lie in [0, 1]"),
        (["simulate", "--graph", "triangle", "--tol", "nan"], "tol must be finite, got nan"),
        (["basin", "--f", "linear:nan", "--resolution", "4"],
         "coefficient a must be finite and nonnegative, got nan"),
        (["evolve", "--delta", "nan"], "delta must be finite, got nan"),
        (["verify", "stability", "--delta", "inf", "--trials", "2"],
         "delta must be finite, got inf"),
        (["simulate", "--graph", "triangle", "--tol", "0"], "tol must be positive, got 0.0"),
        (["basin", "--tol", "-1", "--resolution", "4"], "tol must be positive, got -1.0"),
        (["simulate", "--graph", "triangle", "--max-iters", "-3"],
         "max_iters must be at least 0, got -3"),
        (["evolve", "--seed", "-1"], "seed must be at least 0, got -1"),
        (["simulate", "--graph", "triangle", "--x0", "random", "--seed", "-1"],
         "seed must be at least 0, got -1"),
        (["verify", "convergence", "--seed", "-1"], "seed must be at least 0, got -1"),
        (["simulate", "--graph", "star:2", "--x0", "0.01,0.495,0.495", "--f", "linear:2.5"],
         "sup|F| = 2.5 > 1: the update map would leave the simplex"),
        *((["basin", "--f", "linear:3", "--resolution", "10", "--jobs", jobs],
           "sup|F| = 3 > 1: the update map would leave the simplex") for jobs in ("1", "2")),
        (["basin", "--graph", '{"vertices":[0,1,2.9],"edges":[[0,1],[1,2.7]]}',
          "--resolution", "4"], "vertices must be an integer, got 2.9"),
        (["basin", "--graph", '{"vertices":[0,1,2],"edges":[[0,1],[1,2.7]]}',
          "--resolution", "4"], "edges must be an integer, got 2.7"),
        (["verify", "convergence", "--f", '{"default":{"family":"linear","a":0.4},'
          '"per_edge":[{"u":0.9,"v":true,"family":"linear","a":0.1}]}'],
         "needs integer 'u' and 'v'"),
    ])
    def test_malformed_flag_value_exits_64(self, tmp_path, capsys, argv, message):
        code, out = run(tmp_path, *argv)
        assert code == 64
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,below", [(["simulate", "--graph", "triangle"], ""),
                                            (["verify", "convergence", "--trials", "1000"], "run1")])
    def test_out_at_or_below_a_file_exits_64_before_any_work(self, tmp_path, capsys,
                                                            monkeypatch, argv, below):
        monkeypatch.setattr(cli, "run_to_convergence", lambda *a, **kw: pytest.fail("a run ran"))
        monkeypatch.setattr(harness, "_map_rows", lambda *args: pytest.fail("a trial ran"))
        afile = tmp_path / "afile"
        afile.write_bytes(b"kept")
        out = afile / below
        assert main([*argv, "--out", str(out)]) == 64
        assert f"--out {str(out)!r}" in capsys.readouterr().err
        assert afile.read_bytes() == b"kept"

    @pytest.mark.parametrize("argv", [["verify", "convergence"], ["evolve"],
                                      ["analyze", "--x0", "uniform"]])
    def test_graph_without_vertices_exits_64(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv, "--graph", '{"vertices": [], "edges": []}')
        assert code == 64
        assert "graph must have at least one vertex" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_number_accepted_for_int_key(self, tmp_path):
        code, out = run(tmp_path, "evolve", "--config",
                        write_cfg(tmp_path, {"horizon": 3.0, "seed": "4"}))
        assert code == 0
        assert read_json(out / "summary.json")["steps"] == 3
        assert read_json(out / "manifest.json")["seed"] == 4

    def test_distribution_not_an_object(self, tmp_path, capsys):
        code, out = run(tmp_path, "evolve", "--config",
                        write_cfg(tmp_path, {"distribution": "uniform", "horizon": 5}))
        assert code == 64
        assert "distribution must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("per_edge,message", [
        ([{"u": 0, "family": "cubic", "a": 0.3}], "needs integer 'u' and 'v'"),
        (5, "per_edge must be a list"),
    ])
    def test_malformed_per_edge(self, tmp_path, capsys, per_edge, message):
        influence = {"default": {"family": "linear", "a": 0.4}, "per_edge": per_edge}
        code, out = run(tmp_path, "evolve", "--config",
                        write_cfg(tmp_path, {"influence": influence, "horizon": 5}))
        assert code == 64
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_evolve_replays_a_mass_dict_x0(self, tmp_path):
        cfg = write_cfg(tmp_path, {"graph": "triangle", "horizon": 4,
                                   "x0": {"0": 0.5, "1": 0.3, "2": 0.2}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert read_json(tmp_path / "a" / "manifest.json")["config"]["x0"] == \
            {"0": 0.5, "1": 0.3, "2": 0.2}
        assert main(["evolve", "--config", str(tmp_path / "a" / "manifest.json"),
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("timeline.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestUsage:
    @pytest.mark.parametrize("flag,value", [("--steps", "7"), ("--p", "0.9"),
                                            ("--epsilon", "0.1"), ("--delta", "0.1"),
                                            ("--start", "random")])
    def test_verify_convergence_rejects_model_flags(self, tmp_path, capsys, flag, value):
        assert exit_code(["verify", "convergence", flag, value,
                          "--out", str(tmp_path / "out")]) == 64
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["basin", "--seed", "99"],
                                      ["verify", "stability", "--start", "random"],
                                      ["simulate", "--bogus"],
                                      ["frobnicate"]])
    def test_usage_errors_exit_64(self, tmp_path, capsys, argv):
        assert exit_code([*argv, "--out", str(tmp_path / "out")]) == 64
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evolve", "basin", "verify convergence",
                                         "verify stability", "verify phi-bounds",
                                         "verify types"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_64(self, tmp_path, capsys, command, jobs):
        assert exit_code([*command.split(), "--jobs", jobs,
                          "--out", str(tmp_path / "out")]) == 64
        assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "types", "--help"]])
    def test_help_and_version_exit_0(self, argv):
        assert exit_code(argv) == 0


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_digests.json")


class TestGoldenDigests:
    """SHA-256 of CLI output files, pinned across commits.

    Files that hold an ``np.dot`` value or ``cubic`` output are left out:
    OpenBLAS picks its dot kernel per CPU, so those bits may differ between
    machines.
    """

    @pytest.mark.parametrize("command", sorted(read_json(GOLDEN)))
    def test_output_bytes(self, tmp_path, command):
        out = tmp_path / "out"
        assert main([*shlex.split(command), "--out", str(out)]) == 0
        want = read_json(GOLDEN)[command]
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in want}
        assert got == want
