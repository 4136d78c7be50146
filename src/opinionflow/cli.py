"""Command-line front end.

Subcommands: simulate, evolve, analyze, basin, verify {stability|types|
convergence|phi-bounds}. Every run resolves its configuration (flags
override file values override defaults), writes the outputs next to a
manifest.json echoing the fully-resolved config, and re-running with that
manifest as --config reproduces the outputs byte for byte.

Exit codes: 0 success/converged/pass; 2 iteration budget exhausted;
3 verification verdict "fail"; 4 vacuous bound or hypothesis rejected;
64 malformed configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .dynamics import (MAX_ITERS, THETA_ACTIVE, TOL_STEP, PopulationState,
                       run_to_convergence)
from .errors import ConfigurationError, HypothesisError, NotAFixedPointError
from .evolution import EvolutionConfig, run_evolution
from .graph import InfluenceGraph
from .harness import (basin_map, monte_carlo_convergence, sample_state,
                      verify_phi_bounds_sweep, verify_stability_theorem, verify_type_bound)
from .influence import InfluenceAssignment, InfluenceFunction
from .seeding import generator
from .stability import classify_stability

EXIT_OK = 0
EXIT_MAX_ITERS = 2
EXIT_FAIL = 3
EXIT_VACUOUS = 4
EXIT_CONFIG = 64


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


# -- input parsing ---------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"malformed JSON in {path} at line {exc.lineno}, "
                        f"column {exc.colno}: {exc.msg}")


def parse_graph(spec) -> InfluenceGraph:
    """Named graph ("triangle", "path:4", ...), inline JSON, @file, or dict."""
    if isinstance(spec, dict):
        try:
            return InfluenceGraph.from_json_dict(spec)
        except ValueError as exc:
            raise _CliError(str(exc))
    text = str(spec).strip()
    if text.startswith("@"):
        return parse_graph(_load_json(text[1:]))
    if text.startswith("{"):
        try:
            return parse_graph(json.loads(text))
        except json.JSONDecodeError as exc:
            raise _CliError(f"malformed graph JSON at column {exc.colno}: {exc.msg}")
    name, _, arg = text.partition(":")
    try:
        if name == "triangle":
            return InfluenceGraph.triangle()
        if name == "path":
            return InfluenceGraph.path(int(arg))
        if name == "cycle":
            return InfluenceGraph.cycle(int(arg))
        if name == "complete":
            return InfluenceGraph.complete(int(arg))
        if name == "star":
            return InfluenceGraph.star(int(arg))
    except ValueError as exc:
        raise _CliError(f"bad graph spec {text!r}: {exc}")
    raise _CliError(f"unknown graph spec {text!r} (use triangle, path:N, cycle:N, "
                    "complete:N, star:N, inline JSON, or @file)")


def parse_influence(spec) -> InfluenceAssignment:
    """"family:a" shorthand, inline JSON, @file, or dict."""
    if isinstance(spec, dict):
        try:
            return InfluenceAssignment.from_json_dict(spec)
        except ConfigurationError as exc:
            raise _CliError(str(exc))
    text = str(spec).strip()
    if text.startswith("@"):
        return parse_influence(_load_json(text[1:]))
    if text.startswith("{"):
        try:
            return parse_influence(json.loads(text))
        except json.JSONDecodeError as exc:
            raise _CliError(f"malformed influence JSON at column {exc.colno}: {exc.msg}")
    family, _, a = text.partition(":")
    try:
        return InfluenceAssignment(InfluenceFunction(family, float(a or 0.5)))
    except (ConfigurationError, ValueError) as exc:
        raise _CliError(f"bad influence spec {text!r}: {exc}")


def parse_x0(spec, graph: InfluenceGraph, seed: int) -> PopulationState:
    if isinstance(spec, (dict, list, tuple)):  # a dict is a manifest echo: {"<id>": mass}
        try:
            return PopulationState.from_masses(
                graph, {int(k): float(v) for k, v in spec.items()}
                if isinstance(spec, dict) else [float(v) for v in spec])
        except ValueError as exc:
            raise _CliError(str(exc))
    text = str(spec).strip()
    if text == "uniform":
        return PopulationState.uniform(graph)
    if text == "random":
        return sample_state(graph, generator(seed))
    try:
        masses = [float(v) for v in text.split(",")]
        return PopulationState.from_masses(graph, masses)
    except ValueError as exc:
        raise _CliError(f"bad x0 {text!r}: {exc}")


def _resolve(file_config: dict, overrides: dict, defaults: dict) -> dict:
    """Precedence: CLI flag > config file > default."""
    out = dict(defaults)
    out.update({k: v for k, v in file_config.items() if v is not None})
    out.update({k: v for k, v in overrides.items() if v is not None})
    return out


# -- output -----------------------------------------------------------------------

def _json_bytes(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write_outputs(out_dir: str, subcommand: str, config: dict, seed,
                   files: dict[str, str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(content)
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": sorted(files),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(_json_bytes(manifest))


def _file_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    data = _load_json(args.config)
    if "config" in data and "subcommand" in data:
        data = data["config"]      # a manifest doubles as a config for replay
    if not isinstance(data, dict):
        raise _CliError("config file must hold a JSON object")
    return data


# -- subcommands --------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cfg = _resolve(_file_config(args), {
        "graph": args.graph, "influence": args.f, "x0": args.x0,
        "tol": args.tol, "max_iters": args.max_iters, "seed": args.seed,
    }, {"graph": None, "influence": "linear:0.5", "x0": "uniform",
        "tol": TOL_STEP, "max_iters": MAX_ITERS, "seed": 0})
    if cfg["graph"] is None:
        raise _CliError("simulate needs --graph or a config file with one")
    graph = parse_graph(cfg["graph"])
    assignment = parse_influence(cfg["influence"])
    state = parse_x0(cfg["x0"], graph, int(cfg["seed"]))
    res = run_to_convergence(state, assignment, float(cfg["tol"]),
                             int(cfg["max_iters"]), record_trajectory=True)

    ids = res.limit.ids
    header = "step,phi,active_count," + ",".join(f"mass_{v}" for v in ids)
    rows = [header]
    for step, x in enumerate(res.trajectory):
        active = int(np.sum(x > THETA_ACTIVE))
        rows.append(f"{step},{float(np.dot(x, x))!r},{active},"
                    + ",".join(repr(float(m)) for m in x))
    active = sorted(res.limit.active_set())
    summary = {
        "limit": {str(v): m for v, m in sorted(res.limit.as_dict().items())},
        "iterations": res.iterations,
        "converged": res.converged,
        "independent": graph.is_independent_set(active),
    }
    echo = {"graph": graph.to_json_dict(), "influence": assignment.to_json_dict(),
            "x0": {str(v): m for v, m in sorted(state.as_dict().items())},
            "tol": float(cfg["tol"]), "max_iters": int(cfg["max_iters"]),
            "seed": int(cfg["seed"])}
    _write_outputs(args.out, "simulate", echo, int(cfg["seed"]), {
        "trajectory.csv": "\n".join(rows) + "\n",
        "summary.json": _json_bytes(summary),
    })
    return EXIT_OK if res.converged else EXIT_MAX_ITERS


def _evolution_inputs(args):
    file_cfg = _file_config(args)
    overrides = {
        "graph": getattr(args, "graph", None), "x0": getattr(args, "x0", None),
        "seed": args.seed, "horizon": getattr(args, "steps", None),
        "p": getattr(args, "p", None), "epsilon": getattr(args, "epsilon", None),
        "delta": getattr(args, "delta", None), "influence": getattr(args, "f", None),
    }
    cfg = _resolve(file_cfg, overrides, {
        "graph": "path:4", "x0": "uniform", "p": 0.01, "epsilon": 0.01,
        "delta": 0.0, "beta_min": 0.05, "beta_max": 0.2, "seed": 0,
        "horizon": 1000, "influence": "linear:0.5",
    })
    graph = parse_graph(cfg["graph"])
    assignment = parse_influence(cfg["influence"])
    model_keys = {"p", "epsilon", "delta", "beta_min", "beta_max", "distribution",
                  "seed", "attachment", "rewiring", "horizon"}
    model = {k: cfg[k] for k in model_keys if k in cfg}
    try:
        config = replace(EvolutionConfig.from_json_dict(model), assignment=assignment)
    except ConfigurationError as exc:
        raise _CliError(str(exc))
    x0 = parse_x0(cfg["x0"], graph, int(cfg["seed"]))
    echo = dict(cfg)
    echo["graph"] = graph.to_json_dict()
    echo["influence"] = assignment.to_json_dict()
    echo["x0"] = cfg["x0"] if isinstance(cfg["x0"], str) else list(map(float, cfg["x0"]))
    return config, x0, echo


def _cmd_evolve(args) -> int:
    config, x0, echo = _evolution_inputs(args)
    timeline = run_evolution(x0, config)
    summary = {
        "steps": len(timeline),
        "births": timeline.birth_count(),
        "deaths": timeline.death_count(),
        "final_types": len(timeline.terminal.graph),
        "terminal": {str(v): m for v, m in sorted(timeline.terminal.as_dict().items())},
        "phi_final": timeline.records[-1].phi_after,
        "diffeo_admissible": config.diffeo_admissible,
    }
    _write_outputs(args.out, "evolve", echo, config.seed, {
        "timeline.jsonl": timeline.to_jsonl(),
        "summary.csv": timeline.summary_csv(),
        "summary.json": _json_bytes(summary),
    })
    return EXIT_OK


def _cmd_analyze(args) -> int:
    cfg = _resolve(_file_config(args), {
        "graph": args.graph, "influence": args.f, "x0": args.x0,
        "eliminate": args.eliminate, "seed": args.seed,
    }, {"graph": None, "influence": "linear:0.5", "x0": None,
        "eliminate": None, "seed": 0})
    if cfg["graph"] is None or cfg["x0"] is None:
        raise _CliError("analyze needs --graph and --x0")
    graph = parse_graph(cfg["graph"])
    assignment = parse_influence(cfg["influence"])
    state = parse_x0(cfg["x0"], graph, int(cfg["seed"]))
    eliminate = None if cfg["eliminate"] is None else int(cfg["eliminate"])
    try:
        report = classify_stability(state, assignment, eliminate=eliminate)
    except (NotAFixedPointError, ValueError) as exc:
        raise _CliError(f"analyze: {exc}")
    echo = {"graph": graph.to_json_dict(), "influence": assignment.to_json_dict(),
            "x0": {str(v): m for v, m in sorted(state.as_dict().items())},
            "eliminate": eliminate, "seed": int(cfg["seed"])}
    _write_outputs(args.out, "analyze", echo, int(cfg["seed"]), {
        "analysis.json": _json_bytes(report.to_json_dict(state)),
    })
    return EXIT_OK


def _cmd_basin(args) -> int:
    cfg = _resolve(_file_config(args), {
        "graph": args.graph, "influence": args.f, "resolution": args.resolution,
        "tol": args.tol, "max_iters": args.max_iters,
    }, {"graph": "triangle", "influence": "linear:0.5", "resolution": 400,
        "tol": TOL_STEP, "max_iters": MAX_ITERS})
    graph = parse_graph(cfg["graph"])
    assignment = parse_influence(cfg["influence"])
    try:
        raster = basin_map(graph, assignment, int(cfg["resolution"]),
                           float(cfg["tol"]), int(cfg["max_iters"]), jobs=args.jobs)
    except ValueError as exc:
        raise _CliError(str(exc))
    echo = {"graph": graph.to_json_dict(), "influence": assignment.to_json_dict(),
            "resolution": int(cfg["resolution"]), "tol": float(cfg["tol"]),
            "max_iters": int(cfg["max_iters"])}
    _write_outputs(args.out, "basin", echo, None, {
        "basin.csv": raster.to_csv(),
        "basin.pgm": raster.to_pgm(),
        "legend.json": _json_bytes({"legend": raster.legend,
                                    "fractions": raster.label_fractions()}),
    })
    return EXIT_OK


def _cmd_verify(args) -> int:
    what = args.what
    file_cfg = _file_config(args)
    trials = args.trials if args.trials is not None else int(file_cfg.get("trials", 100))
    root_seed = args.seed if args.seed is not None else int(file_cfg.get("seed", 0))

    try:
        if what == "convergence":
            cfg = _resolve(file_cfg, {"graph": args.graph, "influence": args.f},
                           {"graph": "triangle", "influence": "linear:0.49"})
            graph = parse_graph(cfg["graph"])
            assignment = parse_influence(cfg["influence"])
            stats = monte_carlo_convergence(graph, assignment, trials,
                                            root_seed, jobs=args.jobs)
            echo = {"graph": graph.to_json_dict(),
                    "influence": assignment.to_json_dict(),
                    "trials": trials, "seed": root_seed}
        else:
            config, x0, echo = _evolution_inputs(args)
            echo.update({"trials": trials, "seed": root_seed})
            if what == "types":
                start = args.start or str(file_cfg.get("start", "random"))
                echo["start"] = start
                stats = verify_type_bound(config, trials, start=start,
                                          initial_graph=x0.graph,
                                          root_seed=root_seed, jobs=args.jobs)
            else:
                verifier = (verify_stability_theorem if what == "stability"
                            else verify_phi_bounds_sweep)
                stats = verifier(config, trials, x0.graph, root_seed, jobs=args.jobs)
    except HypothesisError as exc:
        print(f"hypothesis rejected: {exc}", file=sys.stderr)
        return EXIT_VACUOUS

    _write_outputs(args.out, f"verify-{what}", echo, root_seed, {
        "stats.json": _json_bytes({"config": echo, **stats.to_json_dict()}),
    })
    print(f"verify {what}: verdict={stats.verdict} estimate={stats.estimate:.4f}"
          + (f" bound={stats.paper_bound:.4f}" if stats.paper_bound is not None else ""))
    if stats.verdict == "vacuous":
        return EXIT_VACUOUS
    return EXIT_OK if stats.verdict == "pass" else EXIT_FAIL


# -- argument wiring -------------------------------------------------------------------

def _add_common(sp, *, graph=False, f=False, x0=False, jobs=False):
    sp.add_argument("--config", help="JSON config file (or a manifest.json to replay)")
    sp.add_argument("--out", default="out", help="output directory (default: out)")
    sp.add_argument("--seed", type=int, default=None, help="random seed")
    if graph:
        sp.add_argument("--graph", help="triangle | path:N | cycle:N | complete:N | "
                                        "star:N | inline JSON | @file")
    if f:
        sp.add_argument("--f", help="influence, e.g. linear:0.49 | cubic:0.4 | "
                                    "soft:0.8 | inline JSON | @file")
    if x0:
        sp.add_argument("--x0", help="comma-separated masses | uniform | random")
    if jobs:
        sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes (results do not depend on this)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opinionflow",
        description="Population-migration dynamics on influence graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run the deterministic dynamics to convergence")
    _add_common(sp, graph=True, f=True, x0=True)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("evolve", help="run the stochastic birth/death dynamics")
    _add_common(sp, graph=True, f=True, x0=True, jobs=True)
    sp.add_argument("--steps", type=int, default=None, help="horizon override")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.set_defaults(fn=_cmd_evolve)

    sp = sub.add_parser("analyze", help="spectral stability of a fixed point")
    _add_common(sp, graph=True, f=True, x0=True)
    sp.add_argument("--eliminate", type=int, default=None,
                    help="vertex id substituted out for the projection")
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("basin", help="basin-of-attraction raster for 3 types")
    _add_common(sp, graph=True, f=True, jobs=True)
    sp.add_argument("--resolution", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    sp.set_defaults(fn=_cmd_basin)

    sp = sub.add_parser("verify", help="Monte Carlo verification of the model's theorems")
    sp.add_argument("what", choices=["stability", "types", "convergence", "phi-bounds"])
    _add_common(sp, graph=True, f=True, jobs=True)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None, help="horizon override")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--start", choices=["random", "adversarial"], default=None)
    sp.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ConfigurationError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
