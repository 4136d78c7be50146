"""The package names and shapes the benchmark hooks rely on.

``bench/tracer.py`` wraps layer functions by module and attribute name and
reads what some of them return; ``bench/invoke.py`` stamps each workload's
``first_op``. A renamed or reshaped hook breaks only the benchmark, so
these tests read ``bench/`` (loading its modules, writing nothing there)
and check the hooks against the package, without installing the tracer.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opinionflow
from opinionflow import (InfluenceAssignment, InfluenceGraph, PopulationState, evolution, linear,
                         monte_carlo_convergence, potential_phi, run_to_convergence)
from opinionflow.evolution import EvolutionConfig, StepRecord
from opinionflow.seeding import RunStreams

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.setitem(sys.modules, spec.name, module)      # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load("tracer")


def test_span_and_count_targets_resolve(tracer):
    for mod_name, attr, name in tracer.SPANS + tracer.COUNTS:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
    assert tracer.OP_START <= {name for _, _, name in tracer.SPANS}


def test_traced_modules_are_registered_at_import(tracer):
    # install() looks each module up in sys.modules right after `import opinionflow.cli`;
    # the lazily executed ones must be there then, registered though not yet run
    modules = sorted({mod_name for mod_name, _, _ in tracer.SPANS + tracer.COUNTS})
    script = ("import sys, types\n"
              "import opinionflow.cli\n"
              "missing = [name for name in sys.argv[1:] if name not in sys.modules]\n"
              "assert not missing, f'{missing} not in sys.modules'\n"
              "assert type(sys.modules['opinionflow.evolution']) is not types.ModuleType\n")
    src = os.path.dirname(os.path.dirname(opinionflow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script, *modules], check=True,
                   env={**os.environ, "PYTHONPATH": path})


def test_first_ops_resolve():
    for workload in load("workloads").WORKLOADS.values():
        mod_name, attr = workload.first_op.split(":")
        assert callable(getattr(importlib.import_module(mod_name), attr)), workload.name


def test_return_hooks_read_what_the_layers_return(tracer):
    cfg = EvolutionConfig(p=1.0, seed=3)
    run = evolution._Run.of(PopulationState.uniform(InfluenceGraph.path(4)), cfg)
    out = evolution.evolution_step(run, cfg, RunStreams(cfg.seed), potential_phi(run))
    assert out[0] is run and isinstance(out[1], StepRecord)
    t = tracer.Tracer()
    t._on_step(0, (run, cfg), {}, out)
    assert (t.births, t.deaths) == (1, len(out[1].deaths))

    asg = InfluenceAssignment(linear(0.4))
    res = run_to_convergence(PopulationState.uniform(InfluenceGraph.path(3)), asg)
    t._on_rtc(0, (), {}, res)
    assert t.rtc == [(res.iterations, res.converged)]
    args = (InfluenceGraph.triangle(), asg, 2, 5)     # root_seed is the fourth argument
    t._on_convergence(0, args, {}, monte_carlo_convergence(*args))
    assert len(t.trials) == 2 and t.trial_root_seed == 5
