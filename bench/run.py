"""The opinionflow benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the root of an opinionflow checkout:

  python3 bench/run.py --workload basin --seed 1 --seconds 25 --trace 0
  python3 bench/run.py --selftest

Every invocation runs the CLI in a fresh interpreter (bench/invoke.py)
with --jobs 1, on inputs made from --seed. A run repeats full invocations
for about --seconds, adds set-up probes (fresh interpreters that stop at
the first operation) until it holds at least SETUP_SAMPLES set-up times,
checks every output, and compares output digests within the run and with
earlier runs of the same code. With --trace 0 it reports the end-to-end
metrics: medians over the run's invocations, each phase scaled to
reference host speed by the probe in bench/invoke.py. With --trace 1 it
alternates untraced and traced invocations and reports the per-layer
metrics of the traced ones. The last line of stdout is the JSON result;
the lines before it say the same for people, with spreads, sample counts
and machine info. See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata

import tracer as tracing
from workloads import CYCLE, WORKLOADS, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
INVOKE = os.path.join(BENCH_DIR, "invoke.py")
WORK_ROOT = ".bench_work"
DIGESTS = os.path.join(WORK_ROOT, "digests.json")
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 150           # no new round starts if it could end past this
REFERENCE_S = 100e-6         # speed-probe duration that defines host speed 1

END_TO_END = [("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("dynamics.steps", "count"), ("dynamics.step_us", "us"),
    ("dynamics.run_to_convergence.busy_s", "s"), ("dynamics.migrate_step.busy_s", "s"),
    ("dynamics.kernel_for.calls", "count"), ("dynamics.kernel_builds", "count"),
    ("dynamics.kernel_build_s", "s"), ("dynamics.kernel_build_share", "ratio"),
    ("dynamics.potential_phi.calls", "count"),
    ("dynamics.classify_fixed_point.calls", "count"),
    ("dynamics.classify_fixed_point.busy_s", "s"),
    ("seeding.streams", "count"), ("seeding.stream_s", "s"),
    ("harness.settle_steps", "count"), ("harness.iters_p50", "count"),
    ("harness.iters_max", "count"), ("harness.iters_top1pct_share", "ratio"),
    ("harness.unresolved", "count"), ("harness.op_calls", "count"),
    ("harness.op_ms_p50", "ms"), ("harness.op_ms_tail", "ms"),
    ("harness.op_ms_tail_pct", "%"), ("harness.self_s", "s"),
    ("graph.add_type.busy_s", "s"), ("graph.remove_type.busy_s", "s"),
    ("graph.connectivity_walks", "count"), ("graph.connectivity_s", "s"),
    ("graph.connectivity_share", "ratio"), ("graph.walks_per_death", "ratio"),
    ("influence.function_for.calls", "count"),
    ("evolution.step_us", "us"), ("evolution.self_s", "s"),
    ("evolution.death_phase.busy_s", "s"), ("evolution.births", "count"),
    ("evolution.deaths", "count"), ("evolution.max_cascade", "count"),
    ("cli.serialize_s", "s"), ("cli.output_bytes", "bytes"),
    ("trace.wall_s", "s"), ("trace.overhead_frac", "ratio"),
]


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest_dir(path: str) -> tuple[str, dict[str, str], int]:
    """(combined SHA-256, per-file SHA-256, total bytes) of a directory's files."""
    files, total = {}, 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        files[name] = hashlib.sha256(data).hexdigest()
        total += len(data)
    combined = hashlib.sha256("".join(f"{n} {h}\n" for n, h in files.items()).encode())
    return combined.hexdigest(), files, total


def probe_stats(samples: list[float], start: float, end: float) -> tuple[float, float]:
    """(probe time, host speed factor) over the phase [start, end).

    ``samples`` are (start, duration) pairs of the speed probe in
    bench/invoke.py. The factor is the mean of REFERENCE_S / duration over
    the probes that started in the phase: 1 at reference speed, 0.5 on a
    host running at half of it.
    """
    durations = [d for t, d in zip(samples[::2], samples[1::2]) if start <= t < end]
    if not durations:
        return 0.0, 1.0
    return sum(durations), REFERENCE_S * sum(1.0 / d for d in durations) / len(durations)


def check_output(wl: Workload, out: str, size: int, inv: dict) -> None:
    """Fill in the output check and the digests of one finished invocation."""
    try:
        failed, unresolved, msgs = wl.check(out, size)
        inv["digest"], inv["files"], inv["output_bytes"] = digest_dir(out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        failed, unresolved, msgs = inv["ops"], 0, [f"output check raised {exc!r}"]
    inv["failed"] = failed
    inv["unresolved"] = unresolved
    inv["errors"] += msgs


def invoke(wl: Workload, mode: str, size: int, seed: int, work: str, k: int,
           keep: bool = False) -> dict:
    """One fresh-interpreter CLI invocation; mode is full, setup or trace."""
    out = os.path.join(work, f"out-{k}")
    spec = {"argv": wl.argv(size, seed, work, out), "first_op": wl.first_op, "mode": mode,
            "result": os.path.join(work, f"result-{k}.json"),
            "trace_dir": os.path.join(work, "trace")}
    spec_path = os.path.join(work, f"spec-{k}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    inv = {"mode": mode, "ops": wl.ops(size), "failed": 0, "unresolved": 0, "errors": [],
           "load_before": os.getloadavg()[0]}
    t_spawn = now()
    proc = None
    try:
        proc = subprocess.run([sys.executable, INVOKE, spec_path], capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        with open(spec["result"]) as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        result = None
        inv["errors"].append(f"{mode} invocation timed out after {CHILD_TIMEOUT_S} s")
    except (OSError, ValueError):
        result = None
        inv["errors"].append(f"{mode} invocation failed: "
                             + (proc.stderr.strip()[-1500:] if proc else "could not start"))
    inv["load_after"] = os.getloadavg()[0]
    if result is None:
        inv["failed"] = inv["ops"]
        return inv
    samples, t_first, t_end = result["samples"], result["t_first_op"], result.get("t_end")
    probe_s, inv["setup_speed"] = probe_stats(samples, t_spawn, t_first)
    inv["setup_raw_s"] = t_first - t_spawn
    inv["setup_s"] = (inv["setup_raw_s"] - probe_s) * inv["setup_speed"]
    if mode == "setup":
        return inv
    probe_s, inv["speed"] = probe_stats(samples, t_first, t_end)
    inv["wall_raw_s"] = t_end - t_first
    inv["wall_s"] = (inv["wall_raw_s"] - probe_s) * inv["speed"]
    inv["ops_per_s"] = inv["ops"] / inv["wall_s"]
    inv["ops_per_s_raw"] = inv["ops"] / inv["wall_raw_s"]
    inv["rss_mb"] = result["maxrss_kb"] / 1024.0
    if result["exit_code"] != 0:
        inv["errors"].append(f"CLI exited {result['exit_code']}: {proc.stdout.strip()[-500:]}")
        inv["failed"] = inv["ops"]
    else:
        check_output(wl, out, size, inv)
    if mode == "trace":
        spans, side = tracing.load(spec["trace_dir"])
        inv["layers"] = tracing.layer_metrics(spans, side)
        inv["main_wall_s"] = side["main_wall_s"]
        inv["side"] = side
    if not keep:
        shutil.rmtree(out, ignore_errors=True)
    return inv


def mark_digest_mismatches(invs: list[dict], reference: str) -> None:
    """Invocations whose output digest is not ``reference`` fail whole."""
    for inv in invs:
        if inv.get("digest", reference) != reference:
            inv["failed"] = inv["ops"]
            inv["errors"].append(f"output digest {inv['digest'][:16]} differs from "
                                 f"{reference[:16]}, the digest of the same code and inputs")


def code_digest() -> str:
    """SHA-256 over the program's source files, so digests are compared per version."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            h.update(path.encode() + b"\0" + fh.read())
    return h.hexdigest()


def known_digest(key: str, digest: str | None) -> str | None:
    """The output digest an earlier run recorded under ``key``; records ``digest`` if none."""
    try:
        with open(DIGESTS) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key not in known and digest is not None:
        known[key] = digest
        with open(DIGESTS, "w") as fh:
            json.dump(known, fh, indent=1)
    return known.get(key)


def check_digests(wl: Workload, size: int, seed: int, work: str, invs: list[dict]) -> None:
    """Fail invocations whose outputs differ from this run's or an earlier run's.

    The key is the source digest plus the CLI arguments without the output
    directory, so every run of the same code on the same inputs in this
    checkout must write the same bytes.
    """
    measured = [i for i in invs if i["mode"] != "setup"]
    digests = Counter(i["digest"] for i in measured if "digest" in i)
    if not digests:
        return
    common = digests.most_common(1)[0][0]
    clean = len(digests) == 1 and not any(i["errors"] for i in measured)
    key = " ".join([code_digest(), *wl.argv(size, seed, work, "OUT")])
    mark_digest_mismatches(measured, known_digest(key, common if clean else None) or common)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, size: int) -> dict:
    work = os.path.join(WORK_ROOT, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    k = 0

    def call(mode):
        nonlocal k
        k += 1
        return invoke(wl, mode, size, seed, work, k)

    call("setup")                                  # warm the file cache; discarded
    invs = []
    t0 = now()
    while True:
        t_round = now()
        invs.append(call("full"))
        if trace:
            invs.append(call("trace"))
        invs.append(call("setup"))
        elapsed, round_s = now() - t0, now() - t_round
        # stop when another round would end nearer past --seconds than short of it
        if elapsed + round_s / 2 >= seconds or elapsed + round_s > RUN_BUDGET_S:
            break
    while sum(1 for i in invs if i["mode"] != "trace" and "setup_s" in i) < SETUP_SAMPLES:
        invs.append(call("setup"))
    check_digests(wl, size, seed, work, invs)
    return summarize(wl, seed, size, trace, invs)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(wl: Workload, seed: int, size: int, trace: bool, invs: list[dict]) -> dict:
    measured = [i for i in invs if i["mode"] != "setup"]
    full = [i for i in measured if i["mode"] == "full" and not i["errors"]]
    untraced = [i for i in invs if i["mode"] != "trace" and "setup_s" in i]
    setups = [i["setup_s"] for i in untraced]
    attempted = sum(i["ops"] for i in measured)
    failed = sum(i["failed"] for i in measured)
    unresolved = sum(i["unresolved"] for i in measured)
    errors = [e for i in invs for e in i["errors"]]
    values = {"ops_per_s": [i["ops_per_s"] for i in full],
              "setup_s": setups,
              "peak_rss_mb": [i["rss_mb"] for i in full]}
    loads = [v for i in invs for v in (i["load_before"], i["load_after"])]
    lines = [f"workload {wl.name} seed {seed} size {size}: {len(full)} full"
             + (f" + {sum(i['mode'] == 'trace' for i in measured)} traced" if trace else "")
             + f" invocations, {len(setups)} set-up samples, "
             f"1-min load {min(loads):.2f}..{max(loads):.2f}"]
    metrics = {}
    if full:
        for name, unit in END_TO_END:
            vals = values[name]
            lo, hi = quartiles(vals)
            value = statistics.median(vals)
            lines.append(f"  {name} = {value:.6g} {unit}  (quartiles {lo:.6g}..{hi:.6g}, n={len(vals)})")
            if not trace:
                metrics[name] = {"value": value, "unit": unit}
        lines.append(
            "  at host speed: ops_per_s {:.6g} 1/s, setup_s {:.6g} s; host speed factor "
            "{:.3g} (ops), {:.3g} (set-up)".format(
                statistics.median(i["ops_per_s_raw"] for i in full),
                statistics.median(i["setup_raw_s"] for i in untraced),
                statistics.median(i["speed"] for i in full),
                statistics.median(i["setup_speed"] for i in untraced)))
    failed_frac = (failed + unresolved) / attempted if attempted else 1.0
    lines.append(f"  failed_frac = {failed_frac:.6g} ratio  ({failed} failed + {unresolved} "
                 f"unresolved of {attempted} operations)")
    digests = sorted({i["digest"] for i in measured if "digest" in i})
    lines.append(f"  output digest {', '.join(digests) or 'none'} "
                 f"({'identical' if len(digests) == 1 else 'DIFFERENT'} across "
                 f"{len(measured)} invocations)")
    traced = [i for i in measured if i["mode"] == "trace" and "layers" in i]
    if trace and traced and full:
        layers = {name: statistics.median(i["layers"][name] for i in traced)
                  for name in traced[0]["layers"]}
        layers["cli.output_bytes"] = statistics.median(i["output_bytes"] for i in traced
                                                      if "output_bytes" in i)
        layers["trace.overhead_frac"] = (statistics.median(i["wall_s"] for i in traced)
                                         / statistics.median(i["wall_s"] for i in full) - 1.0)
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
            lines.append(f"  {name} = {layers[name]:.6g} {unit}")
        if traced[-1]["side"]["trials"]:
            lines += tail_report(traced[-1]["side"], os.path.join(WORK_ROOT, wl.name))
    lines += [f"  error: {e}" for e in dict.fromkeys(errors)]
    correct = not errors and failed == 0 and bool(full) and (bool(traced) or not trace)
    with open(os.path.join(WORK_ROOT, wl.name, "run.json"), "w") as fh:
        json.dump({"machine": machine_info(), "workload": wl.name, "seed": seed,
                   "size": size, "trace": trace,
                   "invocations": [{k: v for k, v in i.items() if k != "side"} for i in invs]},
                  fh, indent=1)
    return {"lines": lines, "invocations": invs,
            "result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def tail_report(side: dict, work: str) -> list[str]:
    """Per-trial stop record of a traced converge-tail invocation, written to trials.jsonl."""
    rows = []
    for t, (l1, l1_converged) in zip(side["trials"], side["rtc"]):
        settle = t["iterations"] - l1 if l1_converged else 0
        stop = "budget" if not t["converged"] else ("settled" if settle else "l1_stop")
        rows.append({"trial": t["trial"], "trial_seed": t["trial_seed"],
                     "l1_stop_iters": l1 if l1_converged else None, "settle_steps": settle,
                     "iterations": t["iterations"], "stop": stop, "label": t["label"]})
    with open(os.path.join(work, "trials.jsonl"), "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in rows)
    stops = Counter(r["stop"] for r in rows)
    decades = Counter(len(str(max(r["iterations"], 1))) - 1 for r in rows)
    lines = ["  convergence tail: stop reasons "
             + ", ".join(f"{s} {stops[s]}" for s in ("l1_stop", "settled", "budget")),
             "  iterations histogram: " + ", ".join(
                 f"[1e{d},1e{d + 1}) {decades[d]}" for d in range(min(decades), max(decades) + 1))]
    for r in rows:
        if r["stop"] == "budget":
            lines.append(f"  unresolved trial {r['trial']} (label {r['label']}): opinionflow "
                         f"simulate --graph cycle:{CYCLE} --f linear:0.49 --x0 random "
                         f"--seed {r['trial_seed']}")
    return lines


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy")}


def selftest() -> int:
    """Short runs asserting the metric set, trace accounting and tamper detection."""
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for wl in WORKLOADS.values():
        for trace, wanted in ((False, END_TO_END), (True, PER_LAYER)):
            run = run_workload(wl, 1, 0, trace, wl.short)
            res = run["result"]
            text = "\n".join(run["lines"])
            assert res["correct"], text
            for name, unit in wanted + [("failed_frac", "ratio")]:
                assert f"  {name} = " in text and f" {unit}" in text, (wl.name, name)
            assert {n: m["unit"] for n, m in res["metrics"].items()} == dict(wanted), wl.name
            for inv in run["invocations"]:
                if inv["mode"] == "trace":
                    wall, self_sum = inv["main_wall_s"], inv["layers"]["trace.self_sum_s"]
                    slack = max(res["metrics"]["trace.overhead_frac"]["value"], 0.01) * wall
                    assert abs(self_sum - wall) <= slack + 1e-3, (wl.name, self_sum, wall)
        print(f"selftest {wl.name}: metrics, units and trace accounting ok")

    wl = WORKLOADS["basin"]
    work = os.path.join(WORK_ROOT, "selftest-tamper")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    invs = [invoke(wl, "full", wl.short, 1, work, k, keep=True) for k in (1, 2)]
    assert all(i["failed"] == 0 and not i["errors"] for i in invs)
    csv = os.path.join(work, "out-2", "basin.csv")
    with open(csv) as fh:
        text = fh.read()
    with open(csv, "w") as fh:
        fh.write(text.replace("0", "1", 1))
    tampered = {**invs[1], "errors": []}
    check_output(wl, os.path.join(work, "out-2"), wl.short, tampered)
    assert tampered["failed"] > 0, "a tampered basin.csv passed the output check"
    mark_digest_mismatches([tampered], invs[0]["digest"])
    assert tampered["failed"] == tampered["ops"] and tampered["errors"]
    shutil.rmtree(work)
    key = " ".join([code_digest(), *wl.argv(wl.short, 1, os.path.join(WORK_ROOT, wl.name), "OUT")])
    with open(DIGESTS) as fh:
        known = json.load(fh)
    known[key] = "0" * 64
    with open(DIGESTS, "w") as fh:
        json.dump(known, fh)
    assert not run_workload(wl, 1, 0, False, wl.short)["result"]["correct"], \
        "outputs that differ from an earlier run of the same code passed"
    del known[key]
    with open(DIGESTS, "w") as fh:
        json.dump(known, fh)
    print("selftest tamper: a changed output file fails its check and its digest, "
          "within a run and across runs")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="short runs of every workload that check the benchmark itself")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "opinionflow", "cli.py")):
        print("error: src/opinionflow is missing; run from the root of an opinionflow "
              "checkout", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    wl = WORKLOADS[args.workload]
    info = machine_info()
    print(f"machine: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
          f"numpy={info['numpy']}")
    run = run_workload(wl, args.seed, args.seconds, bool(args.trace), wl.size)
    print("\n".join(run["lines"]))
    if not run["result"]["metrics"]:
        print("error: no invocation produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
