"""Command-line front end.

Subcommands: simulate, evolve, analyze, basin, verify {stability|types|
convergence|phi-bounds}. Every run resolves its configuration (flags
override file values override defaults), writes the outputs next to a
manifest.json echoing the fully-resolved config, and re-running with that
manifest as --config reproduces the outputs byte for byte.

Exit codes: 0 success/converged/pass; 2 iteration budget exhausted, or a
simulate stop that is not a fixed point; 3 verification verdict "fail";
4 vacuous bound or hypothesis rejected; 64 malformed configuration or
usage error, naming the key or flag.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from dataclasses import replace

import numpy as np

from . import __version__, evolution, harness, seeding, stability
from .dynamics import (MAX_ITERS, THETA_ACTIVE, TOL_STEP, PopulationState,
                       classify_fixed_point, run_to_convergence)
from .errors import ConfigurationError, HypothesisError, NotAFixedPointError, coerce
from .graph import InfluenceGraph
from .influence import InfluenceAssignment, InfluenceFunction

EXIT_OK = 0
EXIT_MAX_ITERS = 2
EXIT_FAIL = 3
EXIT_VACUOUS = 4
EXIT_CONFIG = 64


# -- input parsing ---------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON in {path} at line {exc.lineno}, "
                                 f"column {exc.colno}: {exc.msg}")


def _read_spec(spec, what: str):
    """The JSON object a dict, @file or inline-JSON spec holds; other specs as text."""
    if isinstance(spec, dict):
        return spec
    text = str(spec).strip()
    if text.startswith("@"):  # one level: a file naming another file is not followed
        data = _load_json(text[1:])
        return data if isinstance(data, dict) else str(data).strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed {what} JSON at column {exc.colno}: {exc.msg}")
    return text


def parse_graph(spec) -> InfluenceGraph:
    """Named graph ("triangle", "path:4", ...), inline JSON, @file, or dict,
    with at least one vertex."""
    spec = _read_spec(spec, "graph")
    graph = None
    try:
        if isinstance(spec, dict):
            graph = InfluenceGraph.from_json_dict(spec)
        else:
            name, _, arg = spec.partition(":")
            if spec == "triangle":
                graph = InfluenceGraph.triangle()
            elif name in ("path", "cycle", "complete", "star"):
                graph = getattr(InfluenceGraph, name)(int(arg))
    except ValueError as exc:
        raise ConfigurationError(f"bad graph spec {spec!r}: {exc}")
    if graph is None:
        raise ConfigurationError(f"unknown graph spec {spec!r} (use triangle, path:N, cycle:N, "
                                 "complete:N, star:N, inline JSON, or @file)")
    if not len(graph):
        raise ConfigurationError(f"graph must have at least one vertex, got {spec!r}")
    return graph


def parse_influence(spec) -> InfluenceAssignment:
    """"family:a" shorthand, inline JSON, @file, or dict."""
    spec = _read_spec(spec, "influence")
    if isinstance(spec, dict):
        return InfluenceAssignment.from_json_dict(spec)
    family, _, a = spec.partition(":")
    try:
        return InfluenceAssignment(InfluenceFunction(family, float(a or 0.5)))
    except ValueError as exc:
        raise ConfigurationError(f"bad influence spec {spec!r}: {exc}")


def parse_x0(spec, graph: InfluenceGraph, seed: int) -> PopulationState:
    """Comma-separated masses, "uniform", "random" (drawn from ``seed``), a
    list of masses, or a manifest echo {"<id>": mass}."""
    text = spec.strip() if isinstance(spec, str) else None
    if text == "uniform":
        return PopulationState.uniform(graph)
    if text == "random":
        return harness.sample_state(graph, seeding.generator(seed))
    try:
        masses = ({int(k): float(v) for k, v in spec.items()} if isinstance(spec, dict)
                  else [float(v) for v in (spec if text is None else text.split(","))])
        return PopulationState.from_masses(graph, masses)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad x0 {spec!r}: {exc}")


def _echo_x0(spec):
    """An evolution run's x0 as its manifest echoes it: text as given, masses as floats."""
    if isinstance(spec, str):
        return spec
    try:
        if isinstance(spec, dict):  # a manifest echo: {"<id>": mass}
            return {k: float(v) for k, v in spec.items()}
        return [float(v) for v in spec]
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad x0 {spec!r}: {exc}")


def _file_config(args) -> dict:
    if not args.config:
        return {}
    data = _load_json(args.config)
    if isinstance(data, dict) and "config" in data and "subcommand" in data:
        data = data["config"]      # a manifest doubles as a config for replay
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    return data


# Each scalar key's one type and each key's default, for the keys read outside
# EvolutionConfig (which types and defaults its fields). The seed's default is
# EvolutionConfig.seed's, written out: reading it here would execute evolution.
_TYPES = {"seed": int, "tol": float, "max_iters": int, "resolution": int,
          "trials": int, "eliminate": int}
_DEFAULTS = {"influence": "linear:0.5", "x0": "uniform", "seed": 0,
             "tol": TOL_STEP, "max_iters": MAX_ITERS, "resolution": 400, "trials": 100,
             "eliminate": None}


def _config(args, *keys: str, **defaults) -> dict:
    """The run's config, its file read once. Each of ``keys`` (default from
    _DEFAULTS) and ``defaults`` resolves flag > file > default, a null counting
    as unset; a scalar key is converted by its one type. Other file keys pass."""
    cfg = {k: v for k, v in _file_config(args).items() if v is not None}
    for key, default in {**{k: _DEFAULTS[k] for k in keys}, **defaults}.items():
        value = getattr(args, key, None)
        value = cfg.get(key, default) if value is None else value
        if value is not None and key in _TYPES:
            value = coerce(key, _TYPES[key], value)
            if key == "seed" and value < 0:
                raise ConfigurationError(f"seed must be at least 0, got {value}")
        cfg[key] = value
    return cfg


# -- output -----------------------------------------------------------------------

def _json_bytes(data) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def _write_outputs(out_dir: str, subcommand: str, config: dict, seed,
                   files: dict, diagnostics: dict | None = None) -> None:
    """Write each of ``files``: its bytes, or what its writer, called with the
    file open in binary mode, writes there. Then the manifest, with
    ``diagnostics`` if given."""
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(out_dir, name), "wb") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content)
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": sorted(files),
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    with open(os.path.join(out_dir, "manifest.json"), "wb") as fh:
        fh.write(_json_bytes(manifest))


# -- subcommands --------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cfg = _config(args, "influence", "x0", "tol", "max_iters", "seed", graph=None)
    if cfg["graph"] is None:
        raise ConfigurationError("simulate needs --graph or a config file with one")
    graph = parse_graph(cfg["graph"])
    assignment = parse_influence(cfg["influence"])
    state = parse_x0(cfg["x0"], graph, cfg["seed"])
    res = run_to_convergence(state, assignment, cfg["tol"], cfg["max_iters"],
                             record_trajectory=True)
    converged = res.converged
    if converged:                       # an L1 stop counts only at a fixed point
        try:
            classify_fixed_point(res.limit, assignment, tol_flow=cfg["tol"])
        except NotAFixedPointError:
            converged = False

    ids = res.limit.ids
    header = "step,phi,active_count," + ",".join(f"mass_{v}" for v in ids)
    rows = [header]
    for step, x in enumerate(res.trajectory):
        active = int(np.sum(x > THETA_ACTIVE))
        rows.append(f"{step},{float(np.dot(x, x))!r},{active},"
                    + ",".join(repr(float(m)) for m in x))
    active = sorted(res.limit.active_set())
    summary = {
        "limit": res.limit.masses_json(),
        "iterations": res.iterations,
        "converged": converged,
        "independent": graph.is_independent_set(active),
    }
    echo = {"graph": graph.to_json_dict(), "influence": assignment.to_json_dict(),
            "x0": state.masses_json(),
            "tol": cfg["tol"], "max_iters": cfg["max_iters"], "seed": cfg["seed"]}
    _write_outputs(args.out, "simulate", echo, cfg["seed"], {
        "trajectory.csv": ("\n".join(rows) + "\n").encode(),
        "summary.json": _json_bytes(summary),
    })
    return EXIT_OK if converged else EXIT_MAX_ITERS


def _evolution_inputs(args, *keys: str, **defaults):
    """An evolution subcommand's resolved config, graph, EvolutionConfig and echo;
    the echo writes each model key as the built config does."""
    cfg = _config(args, "influence", "x0", *keys, graph="path:4",
                  **dict.fromkeys(evolution.EvolutionConfig.numeric_keys()), **defaults)
    graph = parse_graph(cfg["graph"])
    assignment = parse_influence(cfg["influence"])
    model = {k: cfg[k] for k in evolution.EvolutionConfig.json_keys()
             if k != "influence" and cfg.get(k) is not None}
    config = replace(evolution.EvolutionConfig.from_json_dict(model), assignment=assignment)
    echo = {**cfg, **{k: v for k, v in config.to_json_dict().items() if k in cfg},
            "graph": graph.to_json_dict(), "x0": _echo_x0(cfg["x0"])}
    return cfg, graph, config, echo


def _cmd_evolve(args) -> int:
    cfg, graph, config, echo = _evolution_inputs(args)
    timeline = evolution.run_evolution(parse_x0(cfg["x0"], graph, config.seed), config)
    summary = {
        "steps": len(timeline),
        "births": timeline.birth_count(),
        "deaths": timeline.death_count(),
        "final_types": len(timeline.terminal.graph),
        "terminal": timeline.terminal.masses_json(),
        "phi_final": timeline.last_step().phi_after,
        "diffeo_admissible": config.diffeo_admissible,
    }
    _write_outputs(args.out, "evolve", echo, config.seed, {
        "timeline.jsonl": timeline.to_jsonl,
        "summary.csv": timeline.summary_csv,
        "summary.json": _json_bytes(summary),
    }, timeline.diagnostics)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    cfg = _config(args, "influence", "eliminate", "seed", graph=None, x0=None)
    if cfg["graph"] is None or cfg["x0"] is None:
        raise ConfigurationError("analyze needs --graph and --x0")
    graph = parse_graph(cfg["graph"])
    assignment = parse_influence(cfg["influence"])
    state = parse_x0(cfg["x0"], graph, cfg["seed"])
    try:
        report = stability.classify_stability(state, assignment, eliminate=cfg["eliminate"])
    except (NotAFixedPointError, ValueError) as exc:
        raise ConfigurationError(f"analyze: {exc}")
    echo = {"graph": graph.to_json_dict(), "influence": assignment.to_json_dict(),
            "x0": state.masses_json(),
            "eliminate": cfg["eliminate"], "seed": cfg["seed"]}
    _write_outputs(args.out, "analyze", echo, cfg["seed"], {
        "analysis.json": _json_bytes(report.to_json_dict(state)),
    })
    return EXIT_OK


def _cmd_basin(args) -> int:
    cfg = _config(args, "influence", "resolution", "tol", "max_iters", graph="triangle")
    graph = parse_graph(cfg["graph"])
    assignment = parse_influence(cfg["influence"])
    raster = harness.basin_map(graph, assignment, cfg["resolution"], cfg["tol"],
                               cfg["max_iters"], jobs=args.jobs)
    echo = {"graph": graph.to_json_dict(), "influence": assignment.to_json_dict(),
            "resolution": cfg["resolution"], "tol": cfg["tol"],
            "max_iters": cfg["max_iters"]}
    _write_outputs(args.out, "basin", echo, None, {
        "basin.csv": raster.to_csv().encode(),
        "basin.pgm": raster.to_pgm().encode(),
        "legend.json": _json_bytes({"legend": raster.legend,
                                    "fractions": raster.label_fractions()}),
    })
    return EXIT_OK


def _replay_arg(spec, data: dict) -> str:
    """A flag value that rebuilds ``data``: shorthand text as given, else inline JSON."""
    if isinstance(spec, str) and spec.strip()[:1] not in ("@", "{"):
        return shlex.quote(spec.strip())
    return shlex.quote(json.dumps(data, separators=(",", ":"), sort_keys=True))


def _cmd_verify(args) -> int:
    what = args.what
    try:
        if what == "convergence":
            cfg = _config(args, "trials", "seed", graph="triangle", influence="linear:0.49")
            graph = parse_graph(cfg["graph"])
            assignment = parse_influence(cfg["influence"])
            root_seed = cfg["seed"]
            stats = harness.monte_carlo_convergence(graph, assignment, cfg["trials"],
                                                    root_seed, jobs=args.jobs)
            flags = (f"--graph {_replay_arg(cfg['graph'], graph.to_json_dict())} "
                     f"--f {_replay_arg(cfg['influence'], assignment.to_json_dict())}")
            for entry in stats.extras["unresolved"]:
                entry["replay"] = (f"opinionflow simulate {flags} --x0 random "
                                   f"--seed {entry['trial_seed']}")
            echo = {"graph": graph.to_json_dict(), "influence": assignment.to_json_dict(),
                    "trials": cfg["trials"], "seed": root_seed}
        elif what == "types":
            cfg, graph, config, echo = _evolution_inputs(args, "trials", start="random")
            root_seed = config.seed
            stats = harness.verify_type_bound(config, cfg["trials"], start=cfg["start"],
                                              initial_graph=graph, root_seed=root_seed,
                                              jobs=args.jobs)
        else:
            cfg, graph, config, echo = _evolution_inputs(args, "trials")
            root_seed = config.seed
            verifier = (harness.verify_stability_theorem if what == "stability"
                        else harness.verify_phi_bounds_sweep)
            stats = verifier(config, cfg["trials"], graph, root_seed, jobs=args.jobs)
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

# The flag that sets each config key, and its help; the key's type converts its text.
_FLAGS = {
    "seed": ("--seed", "random seed"),
    "graph": ("--graph", "triangle | path:N | cycle:N | complete:N | star:N | JSON | @file"),
    "influence": ("--f", "influence, e.g. linear:0.49 | cubic:0.4 | soft:0.8 | JSON | @file"),
    "x0": ("--x0", "comma-separated masses | uniform | random"),
    "tol": ("--tol", "L1 step size below which a run has converged"),
    "max_iters": ("--max-iters", "iteration budget"),
    "horizon": ("--steps", "number of steps (the horizon)"),
    "p": ("--p", "birth probability per step"),
    "epsilon": ("--epsilon", "death threshold"),
    "delta": ("--delta", "migration dead-zone on mass differences"),
    "eliminate": ("--eliminate", "vertex id substituted out for the projection"),
    "resolution": ("--resolution", "raster cells per simplex edge"),
    "trials": ("--trials", "number of Monte Carlo trials"),
}


def _jobs(text: str) -> int:
    """The value of --jobs: a worker count of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64, like malformed values: 2 means a spent iteration budget."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _flags(sp, *keys: str, jobs: bool = False) -> None:
    sp.add_argument("--config", help="JSON config file (or a manifest.json to replay)")
    sp.add_argument("--out", default="out", help="output directory (default: out)")
    for key in keys:
        flag, help_ = _FLAGS[key]
        sp.add_argument(flag, dest=key, help=help_)
    if jobs:
        sp.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1,
                        help="worker processes (results do not depend on this)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opinionflow",
                     description="Population-migration dynamics on influence graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    evolution = ("graph", "influence", "seed", "horizon", "p", "epsilon", "delta")

    sp = sub.add_parser("simulate", help="run the deterministic dynamics to convergence")
    _flags(sp, "graph", "influence", "x0", "tol", "max_iters", "seed")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("evolve", help="run the stochastic birth/death dynamics")
    _flags(sp, *evolution, "x0", jobs=True)
    sp.set_defaults(fn=_cmd_evolve)

    sp = sub.add_parser("analyze", help="spectral stability of a fixed point")
    _flags(sp, "graph", "influence", "x0", "eliminate", "seed")
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("basin", help="basin-of-attraction raster for 3 types")
    _flags(sp, "graph", "influence", "resolution", "tol", "max_iters", jobs=True)
    sp.set_defaults(fn=_cmd_basin)

    sp = sub.add_parser("verify", help="Monte Carlo verification of the model's theorems")
    targets = sp.add_subparsers(dest="what", required=True)
    _flags(targets.add_parser("convergence", help="migration reaches an independent set"),
           "graph", "influence", "trials", "seed", jobs=True)
    _flags(targets.add_parser("stability", help="a quiet window starts by the horizon"),
           *evolution, "trials", jobs=True)
    _flags(targets.add_parser("phi-bounds", help="per-step potential bounds"),
           *evolution, "trials", jobs=True)
    tp = targets.add_parser("types", help="the type count stays logarithmic")
    _flags(tp, *evolution, "trials", jobs=True)
    tp.add_argument("--start", choices=["random", "adversarial"])
    sp.set_defaults(fn=_cmd_verify)
    return parser


def _check_out(out: str) -> None:
    """Reject, before any work, an --out whose nearest existing ancestor is not a directory."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigurationError(f"--out {out!r}: {path!r} is not a directory")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.fn(args)
    except (ConfigurationError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
