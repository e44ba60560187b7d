"""Benchmark of the rflsmooth command line on three workloads.

    python3 bench/run.py --workload {optimize,sweep,monte-carlo} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout: the program is imported from
./src, never from an installed copy.  Each workload is a closed loop with one
client in one process: every operation is one `rflsmooth.cli.main(argv)` call
and the next starts when it has returned.  A round is a fixed list of
operations; rounds repeat while the next one is expected to end within
--seconds, and at least one runs.  Every operation's output is checked with
bench/checks.py, apart from the program; an operation fails when it exits
non-zero or its output fails a check.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one round plain,
then traced rounds with every public call into a layer wrapped (bench/spans.py),
reports the per-layer metrics and writes the spans to bench/out/.  The last
line of standard output is the JSON result; the exit code is 1 when any
operation failed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED = SRC / "rflsmooth" / "data" / "phase_estimation.cfg"
OUT = ROOT / "bench" / "out"

SETUP_REPEATS = 5
SWEEP_GRID = 101          # points per `sweep` command
SWEEP_ORDERS = range(1, 7)
SWEEP_JITTER = 0.01       # seeded relative change of the pinned (tau, lambda)
REPRODUCE_POINTS = 21     # reproduce-paper's own sweep
MC_RUNS = 300             # one full 256-run batch plus a partial one
MC_RERUN_RUNS = 5         # small re-run ...
MC_RERUN_BATCH = 5        # ... in one batch of another size
OPT_STARTS = 1            # optimizer starts, drawn from the fixed seed below
OPT_SEED = 0


@dataclass
class Op:
    """One CLI command and the check of its output."""

    name: str
    argv: list
    check: object                      # callable() -> list of problems
    tags: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list                          # one round
    state: dict                        # parsed outputs of the current round
    vtau_key: object                   # state entry whose Vtau is vtau_star
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------- workloads

def _base_doc():
    return checks.read_config(BUNDLED)


def _copy(doc):
    return {s: dict(v) for s, v in doc.items()}


def _synth_check(out, plant, state, key):
    def check():
        sol = checks.load_solution(out / "synthesis.json")
        state[key] = sol
        return (checks.check_certificates(sol) + checks.check_loop_hurwitz(plant, sol)
                + checks.check_manifest(out))
    return check


def optimize_workload(seed, work):
    """`synth` minimizing the bound in the published power-of-two realization.

    The optimizer's starts come from a fixed seed, not from --seed: one start's
    evaluation count, time and optimum vary several-fold with its seed, so a
    seeded start would measure the seed, not the program."""
    doc = _base_doc()
    doc["synthesis"] = {"tau_bounds": doc["synthesis"]["tau_bounds"],
                        "n_starts": OPT_STARTS, "seed": OPT_SEED}
    cfg = work / "optimize.cfg"
    checks.write_config(cfg, doc)
    plant = checks.plant_from_doc(doc)
    out = work / "optimize"
    state = {}
    ops = [Op("synth", ["synth", "--config", str(cfg), "--paper-realization",
                        "--out-dir", str(out)],
              _synth_check(out, plant, state, "sol"))]
    return Workload("optimize", ops, state, "sol", {"n_starts": OPT_STARTS})


def sweep_workload(seed, work):
    """Pinned `synth` + `sweep` for Pade orders 1-6 (balanced) and order 2 in
    the paper realization, then `reproduce-paper`."""
    rng = np.random.default_rng(seed)
    doc = _base_doc()
    plant = checks.plant_from_doc(doc)
    lag = float(doc["delay"]["delta"])
    syn = doc["synthesis"]
    syn["lambda"] = [v * math.exp(rng.uniform(-SWEEP_JITTER, SWEEP_JITTER))
                     for v in syn["lambda"]]
    syn["tau"] = syn["tau"] * math.exp(rng.uniform(-SWEEP_JITTER, SWEEP_JITTER))
    interior = sorted(rng.choice(np.arange(1, SWEEP_GRID - 1), size=2, replace=False))
    picks = [0, *map(int, interior), SWEEP_GRID - 1]
    state = {}
    ops = []

    def sweep_check(out, key, extra=None):
        def check():
            rows = checks.load_sweep(out / "sweep.csv")
            state[("rows", key)] = rows
            problems = (checks.check_sweep_rows(rows) + checks.check_manifest(out)
                        + checks.check_sweep_recomputed(plant, state[("sol", key)],
                                                        rows, lag, picks))
            return problems + (extra() if extra else [])
        return check

    def converges():
        return checks.check_converges([state[("rows", k)][-1, 1] for k in SWEEP_ORDERS])

    def same_as_balanced():
        return checks.check_same_sweep(state[("rows", "2p")], state[("rows", 2)])

    variants = [(k, k, []) for k in SWEEP_ORDERS] + [("2p", 2, ["--paper-realization"])]
    for key, order, flags in variants:
        d = _copy(doc)
        d["delay"]["order"] = order
        d["delay"]["realization"] = "balanced"
        cfg = work / f"sweep-o{key}.cfg"
        checks.write_config(cfg, d)
        s_out, w_out = work / f"o{key}-synth", work / f"o{key}-sweep"
        ops.append(Op(f"synth-o{key}", ["synth", "--config", str(cfg), "--out-dir",
                                         str(s_out), *flags],
                      _synth_check(s_out, plant, state, ("sol", key)), {"order": order}))
        extra = converges if key == SWEEP_ORDERS[-1] else same_as_balanced if key == "2p" else None
        ops.append(Op(f"sweep-o{key}", ["sweep", "--config", str(cfg), "--grid",
                                         str(SWEEP_GRID), "--out-dir", str(w_out), *flags],
                      sweep_check(w_out, key, extra), {"order": order, "points": SWEEP_GRID}))

    r_out = work / "reproduce"

    def reproduce_check():
        report = json.loads((r_out / "reproduction.json").read_text(encoding="utf-8"))
        problems = [] if report["passed"] else ["reproduction report did not pass"]
        sol = checks.load_solution(r_out / "synthesis.json")
        rows = checks.load_sweep(r_out / "sweep.csv")
        picks_rp = [0, len(rows) // 2, len(rows) - 1]
        return (problems + checks.check_sweep_rows(rows) + checks.check_manifest(r_out)
                + checks.check_sweep_recomputed(plant, sol, rows, lag, picks_rp))

    ops.append(Op("reproduce-paper", ["reproduce-paper", "--out-dir", str(r_out)],
                  reproduce_check, {"order": 2, "points": REPRODUCE_POINTS}))
    return Workload("sweep", ops, state, ("sol", 2))


def monte_carlo_workload(seed, work):
    """Pinned `synth`, then `mc` with the smoother and with the filter readout
    on the same seed and runs, then a small re-run in batches of another size."""
    doc = _base_doc()
    plant = checks.plant_from_doc(doc)
    sim = doc["simulation"]
    nsteps = round(sim["horizon"] / sim["dt"])
    rerun_doc = _copy(doc)
    rerun_doc["simulation"]["batch"] = MC_RERUN_BATCH
    rerun_cfg = work / "mc-rerun.cfg"
    checks.write_config(rerun_cfg, rerun_doc)
    state = {}
    s_out = work / "mc-synth"
    common = ["--seed", str(seed), "--save-errors"]

    def mc_check(out, estimator, runs, key):
        def check():
            doc_out = json.loads((out / "monte_carlo.json").read_text(encoding="utf-8"))
            errors = checks.load_errors(out / "errors.csv")
            state[key] = errors
            cfg = doc_out["config"]
            problems = checks.check_manifest(out)
            if (cfg["estimator"], cfg["runs"], cfg["master_seed"]) != (estimator, runs, seed):
                problems.append(f"mc ran {cfg['estimator']}/{cfg['runs']}/{cfg['master_seed']}")
            if key == "rerun":
                return problems + checks.check_rerun(state["smoother"], errors)
            pred_s, pred_f = checks.mc_prediction(plant, state["sol"], sim)
            pred = pred_s if key == "smoother" else pred_f
            problems += checks.check_mc_report(doc_out, errors, runs, pred, estimator)
            if key == "ngcf":
                problems += checks.check_mc_pair(state["smoother"], errors)
            return problems
        return check

    ops = [
        Op("synth", ["synth", "--out-dir", str(s_out)],
           _synth_check(s_out, plant, state, "sol")),
        Op("mc-smoother", ["mc", "--runs", str(MC_RUNS), "--estimator", "smoother",
                           "--out-dir", str(work / "mc-smoother"), *common],
           mc_check(work / "mc-smoother", "smoother", MC_RUNS, "smoother"),
           {"run_steps": MC_RUNS * nsteps}),
        Op("mc-ngcf", ["mc", "--runs", str(MC_RUNS), "--estimator", "ngcf",
                       "--out-dir", str(work / "mc-ngcf"), *common],
           mc_check(work / "mc-ngcf", "ngcf", MC_RUNS, "ngcf"),
           {"run_steps": MC_RUNS * nsteps}),
        Op("mc-rerun", ["mc", "--config", str(rerun_cfg), "--runs", str(MC_RERUN_RUNS),
                        "--estimator", "smoother", "--out-dir", str(work / "mc-rerun"),
                        *common],
           mc_check(work / "mc-rerun", "smoother", MC_RERUN_RUNS, "rerun")),
    ]
    return Workload("monte-carlo", ops, state, "sol",
                    {"nsteps": nsteps, "master_seed": seed, "runs": MC_RUNS,
                     "chunk": sim.get("chunk", 5000)})   # SimConfig's default chunk


WORKLOADS = {"optimize": optimize_workload, "sweep": sweep_workload,
             "monte-carlo": monte_carlo_workload}


# ---------------------------------------------------------------- running

def import_cli():
    """rflsmooth.cli from this checkout's sources; exits when they are missing."""
    if not (SRC / "rflsmooth" / "cli.py").is_file():
        sys.exit(f"rflsmooth sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from rflsmooth import cli
    if Path(cli.__file__).resolve().parent != (SRC / "rflsmooth").resolve():
        sys.exit(f"rflsmooth was imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup():
    """Fresh interpreter to ready: import the CLI, load the bundled config and
    build the compact plant.  Median of SETUP_REPEATS interpreters."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from rflsmooth import cli; "
            "cli.compact_from_config(cli.load_config(sys.argv[2])); print('ready', flush=True)")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code, str(SRC), str(BUNDLED)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                sys.exit("set-up interpreter failed")
    return statistics.median(times)


def run_op(cli, op, tracer):
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            if tracer is None:
                code = cli.main(op.argv)
            else:
                code = tracer.span("cli.main", cli.main, op.argv)
    except Exception:  # an exception the CLI let through fails this operation
        code = None
        sink.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    if code != 0:
        tail = sink.getvalue().strip().splitlines()[-1:] or [""]
        return wall, [f"exit {code}: {tail[0]}"]
    try:
        return wall, op.check()
    except Exception as exc:  # unreadable or missing output fails this operation
        return wall, [f"output not readable: {type(exc).__name__}: {exc}"]


def _bytes_in(argv):
    out = Path(argv[argv.index("--out-dir") + 1])
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def run_rounds(cli, workload, seconds, log, tracer=None, first_round=0):
    """Whole rounds while the next is expected to end within `seconds`."""
    states = []
    t0 = time.perf_counter()
    while True:
        workload.state.clear()
        rnd = first_round + len(states)
        for op in workload.ops:
            if tracer is not None:
                tracer.op = len(log)
            wall, problems = run_op(cli, op, tracer)
            log.append({"round": rnd, "op": op.name, "wall_s": wall, "problems": problems,
                        "bytes": _bytes_in(op.argv) if not problems else 0,
                        "traced": tracer is not None, **op.tags})
        states.append(dict(workload.state))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(states) + 1) / len(states) > seconds:
            return states


def round_walls(log, traced):
    walls = {}
    for entry in log:
        if entry["traced"] == traced:
            walls[entry["round"]] = walls.get(entry["round"], 0.0) + entry["wall_s"]
    return list(walls.values())


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "nproc": os.cpu_count(),
        "blas_thread_env": {k: os.environ[k] for k in sorted(os.environ)
                            if k.endswith("_NUM_THREADS")},
    }
    try:
        import ctypes
        libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        lib = next(libdir.glob("libscipy_openblas*"))
        env["openblas_threads"] = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
    except (StopIteration, OSError, AttributeError):
        env["openblas_threads"] = "unknown"
    return env


# ---------------------------------------------------------------- metrics

def _median(values, scale=1.0):
    values = list(values)
    return statistics.median(values) * scale if values else 0.0


def noise_ns_per_run_step(info):
    """run_generator plus the standard_normal draws of one Monte Carlo pass
    (same runs, same chunking), timed alone."""
    from rflsmooth.sim import run_generator
    runs, nsteps, chunk = info["runs"], info["nsteps"], info["chunk"]
    t0 = time.perf_counter_ns()
    for i in range(runs):
        rng = run_generator(info["master_seed"], i)
        for start in range(0, nsteps, chunk):
            rng.standard_normal((min(chunk, nsteps - start), 2))
    return (time.perf_counter_ns() - t0) / (runs * nsteps)


def layer_metrics(tracer, log, workload, noise_ns):
    idx = spans.SpanIndex(tracer.spans)
    traced = [i for i, e in enumerate(log) if e["traced"]]
    ops = set(traced)
    rounds = len({log[i]["round"] for i in traced})
    us, ms = 1e-3, 1e-6
    m = {}

    def med(name, scale):
        return _median(idx.durations(name, ops), scale)

    m["config.load_ms"] = (med("config.load_config", ms), "ms")
    m["model.build_compact_ms"] = (med("model.build_compact", ms), "ms")
    m["delay.pade_delay_us"] = (med("delay.pade_delay", us), "us")

    gains = idx.ids("synthesis.compute_gains", ops)
    n_eval = len(gains)
    per_eval = (lambda name: len(idx.ids(name, ops)) / n_eval if n_eval else 0.0)
    m["synthesis.compute_gains.calls"] = (n_eval / rounds, "count")
    m["synthesis.compute_gains.us_per_call"] = (med("synthesis.compute_gains", us), "us")
    m["synthesis.compute_gains.accepted_ratio"] = (
        sum(tracer.spans[i][spans.OK] for i in gains) / n_eval if n_eval else 0.0, "1")
    for name in ("synthesis.assemble_multipliers", "synthesis.feasible"):
        m[f"{name}.per_evaluation"] = (per_eval(name), "count")
        m[f"{name}.us_per_call"] = (med(name, us), "us")
    m["synthesis.filter_riccati.us_per_call"] = (med("synthesis.filter_riccati", us), "us")
    m["synthesis.control_riccati.us_per_call"] = (med("synthesis.control_riccati", us), "us")
    in_search = sum(idx.has_ancestor(i, "synthesis.minimize_bound") for i in gains)
    searches = len(idx.ids("synthesis.minimize_bound", ops))
    starts = workload.info.get("n_starts", 0)
    m["synthesis.minimize_bound.evaluations_per_start"] = (
        in_search / (searches * starts) if searches and starts else 0.0, "count")
    m["numkernel.solve_care.per_evaluation"] = (per_eval("numkernel.solve_care"), "count")
    m["numkernel.solve_care.us_per_call"] = (med("numkernel.solve_care", us), "us")

    m["numkernel.solve_lyapunov.calls"] = (
        len(idx.ids("numkernel.solve_lyapunov", ops)) / rounds, "count")
    m["numkernel.solve_lyapunov.us_per_call"] = (med("numkernel.solve_lyapunov", us), "us")
    for order in SWEEP_ORDERS:
        of_order = {i for i in ops if log[i].get("order") == order}
        m[f"numkernel.solve_lyapunov.us_per_call.order{order}"] = (
            _median(idx.durations("numkernel.solve_lyapunov", of_order), us)
            if of_order else 0.0, "us")
    m["numkernel.expm.us_per_call"] = (med("numkernel.expm", us), "us")
    m["numkernel.is_hurwitz.calls"] = (
        len(idx.ids("numkernel.is_hurwitz", ops)) / rounds, "count")
    m["numkernel.is_hurwitz.us_per_call"] = (med("numkernel.is_hurwitz", us), "us")

    m["covariance.build_closed_loop.us_per_call"] = (med("covariance.build_closed_loop", us), "us")
    m["covariance.smoothed_error_covariance.us_per_call"] = (
        med("covariance.smoothed_error_covariance", us), "us")
    sweep_ns = sum(idx.durations("covariance.delta_sweep", ops))
    points = sum(log[i].get("points", 0) for i in ops)
    m["covariance.delta_sweep.us_per_point"] = (sweep_ns * us / points if points else 0.0, "us")

    mc_ops = {i for i in ops if "run_steps" in log[i]}
    mc_ns = sum(idx.durations("sim.monte_carlo", mc_ops))
    run_steps = sum(log[i]["run_steps"] for i in mc_ops)
    mc_per = mc_ns / run_steps if run_steps else 0.0
    m["sim.monte_carlo.ns_per_run_step"] = (mc_per, "ns")
    m["sim.noise.ns_per_run_step"] = (noise_ns, "ns")
    m["sim.integrate.ns_per_run_step"] = (mc_per - noise_ns if run_steps else 0.0, "ns")

    by_round = {}
    for i in traced:
        by_round.setdefault(log[i]["round"], set()).add(i)
    selfs = [idx.layer_self_ns(r_ops) for r_ops in by_round.values()]
    m["cli.bytes_written"] = (_median(sum(log[i]["bytes"] for i in r) for r in by_round.values()),
                              "bytes")
    for layer in spans.LAYERS:
        m[f"{layer}.self_ms"] = (_median((s[layer] for s in selfs), ms), "ms")

    plain = round_walls(log, traced=False)
    traced_walls = round_walls(log, traced=True)
    m["trace.overhead_pct"] = (100.0 * (_median(traced_walls) / _median(plain) - 1.0), "%")

    detail = {}
    for name in sorted(idx.by_name):
        d = [x / 1e3 for x in idx.durations(name, ops)]
        if d:
            detail[name] = {"calls": len(d), "median_us": statistics.median(d),
                            "tail": spans.tail_percentile(d)}
    return m, detail


def derived_metrics(workload, log):
    """The rates the workloads are about, from the same untraced rounds."""
    rounds = {}
    for e in log:
        rounds.setdefault(e["round"], []).append(e)
    out = {}
    if workload.name == "optimize":
        out["optimize_s"] = _median(r[0]["wall_s"] for r in rounds.values())
    if workload.name == "sweep":
        out["sweep_points_per_s"] = _median(
            sum(e.get("points", 0) for e in r) / sum(e["wall_s"] for e in r)
            for r in rounds.values())
    if workload.name == "monte-carlo":
        # a run counts once, when both its smoother and filter readouts arrived
        out["mc_run_steps_per_s"] = _median(
            workload.info["runs"] * workload.info["nsteps"]
            * all(not e["problems"] for e in r if "run_steps" in e)
            / sum(e["wall_s"] for e in r if "run_steps" in e)
            for r in rounds.values())
    return out


# ---------------------------------------------------------------- main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    env = environment()
    for key, value in env.items():
        print(f"# {key}: {value}")

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    log = []

    if args.trace:
        run_rounds(cli, workload, 0.0, log)            # one plain round: overhead base
        tracer = spans.Tracer()
        spent = sum(e["wall_s"] for e in log)
        with tracer.installed():
            run_rounds(cli, workload, args.seconds - spent, log, tracer, first_round=1)
        noise = (noise_ns_per_run_step(workload.info)
                 if workload.name == "monte-carlo" else 0.0)
        metrics, detail = layer_metrics(tracer, log, workload, noise)
        trace_path = OUT / f"trace-{args.workload}.json"
        tracer.dump(trace_path, log, {"seed": args.seed, "metrics": metrics,
                                      "calls": detail, "environment": env})
        for name, info in detail.items():
            tail = info["tail"]
            tail_text = f", p{tail[0]:g} {tail[1]:.1f} us" if tail else ""
            print(f"# span {name}: {info['calls']} calls, median {info['median_us']:.1f} us"
                  f"{tail_text}")
        if tracer.absent:
            print(f"# absent call sites: {', '.join(tracer.absent)}")
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        setup = measure_setup()
        states = run_rounds(cli, workload, args.seconds, log)
        walls = round_walls(log, traced=False)
        metrics = {"setup_s": (setup, "s"), "round_s": (statistics.median(walls), "s")}
        key = workload.vtau_key
        metrics["vtau_star"] = (_median(s[key]["Vtau"] for s in states if key in s), "1")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        for name, value in derived_metrics(workload, log).items():
            print(f"# {name}: {value:.6g}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        sys.exit(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    metrics = {name: metrics[name] for name in declared}

    failed = [e for e in log if e["problems"]]
    for e in failed:
        print(f"# FAILED round {e['round']} {e['op']}: {'; '.join(e['problems'])}")
    print(f"# {len(log)} operations in {1 + max(e['round'] for e in log)} rounds, "
          f"{len(failed)} failed")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(log),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
