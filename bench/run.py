"""Seeded end-to-end and per-layer benchmark for deepcars.

Run from the repository root:

    python3 bench/run.py --workload tabular-3lane --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A workload is a small plan of real `deepcars` CLI commands whose seeds are
generated from `--seed`; an untraced run draws SEED_SETS such plans. This
script runs the plans in rounds, cycling through them, until `--seconds` have
passed and every plan ran at least twice. Every command runs in a fresh
worker process (worker.py) with `src/` on PYTHONPATH and the BLAS/OpenMP
thread variables removed, so the program's own defaults govern; the harness
never selects a backend or a thread count. Commands of one stage run
concurrently, stages run one after another: a closed loop with one client, or
two on `deep-sweep`.

`--trace 0` reports the end-to-end metrics, timed by the worker around
`cli.run` (setup_s is spawn to `deepcars.cli` imported) and rescaled by the
host's measured speed (REFERENCE_S); raw figures are printed beside them.
`--trace 1` alternates untraced and traced rounds of one plan and reports
per-layer metrics from tracer.py plus the tracing overhead. Each run checks
the outputs: every command exits 0, artifacts load back through the package's
readers, every round reproduces the first round's artifact digests, and
traced call counts match exact invariants. The last line of stdout is one
JSON object; the full record (machine, samples, digests) goes to
`.bench_out/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import SCOPE, SPAN_NAMES  # noqa: E402
from worker import THREAD_VARS  # noqa: E402

OUT_ROOT = ".bench_out"
WORKER_TIMEOUT_S = 60
# untraced runs cycle through this many seed sets, so quality metrics are a
# median over seeds rather than one seed's luck; traced runs use one set
SEED_SETS = 5
MAX_EPISODE_STEPS = 200  # EnvConfig default; bounds steps per validation episode
# The host is a shared VM whose speed flips between a fast and a ~1.5x slower
# mode, within seconds and in different proportions from minute to minute.
# Each worker times a fixed pure-Python loop (worker._reference_s) just before
# its command; the reported step rates and setup_s are rescaled by the run's
# mean probe time, which like the rates averages over both modes, to a host on
# which that loop takes REFERENCE_S. The raw figures are printed too.
REFERENCE_S = 0.015

TABULAR_STEPS = 30_000
DDQN_TRAIN_STEPS = 6_000
DDQN_EVAL_STEPS = 20_000
DEEP_TRAIN_STEPS = 600
DEEP_LEARN_START = 400
DEEP_EVAL_STEPS = 10_000
# DqnHyperparams defaults that the plans leave in place
DEFAULT_LEARN_START = 1_000
DEFAULT_TARGET_SYNC = 1_000
DEEP_DIMS = [43, 64, 128, 128, 64, 3]
DDQN_DIMS = [43, 16, 16, 3]


@dataclass
class Cmd:
    name: str  # output subdirectory within a round, unique in the plan
    role: str  # "train" or "eval"
    agent: str  # "tabular", "dqn" or "ddqn"
    steps: int
    args: list  # CLI argv without --out; "{other}" expands to that command's out dir
    learn_start: int = 0
    dims: list | None = None


def _seed(rng) -> str:
    return str(rng.randrange(2**32))


def plan_tabular(rng):
    steps = str(TABULAR_STEPS)
    train = Cmd("train", "train", "tabular", TABULAR_STEPS,
                ["train-tabular", "--lanes", "3", "--steps", steps, "--seed", _seed(rng)])
    evaluate = Cmd("eval", "eval", "tabular", TABULAR_STEPS,
                   ["evaluate", "--lanes", "3", "--model", "{train}/qtable.txt",
                    "--steps", steps, "--seed", _seed(rng)])
    return [[train], [evaluate]]


def plan_ddqn(rng):
    train = Cmd("train", "train", "ddqn", DDQN_TRAIN_STEPS,
                ["train-dqn", "--arch", "ddqn16x16", "--steps", str(DDQN_TRAIN_STEPS),
                 "--seed", _seed(rng)],
                learn_start=DEFAULT_LEARN_START, dims=DDQN_DIMS)
    evaluate = Cmd("eval", "eval", "ddqn", DDQN_EVAL_STEPS,
                   ["evaluate", "--model", "{train}/best.model",
                    "--steps", str(DDQN_EVAL_STEPS), "--seed", _seed(rng)])
    return [[train], [evaluate]]


def plan_deep_sweep(rng):
    trains, evals = [], []
    for i in range(2):
        trains.append(Cmd(f"train{i}", "train", "dqn", DEEP_TRAIN_STEPS,
                          ["train-dqn", "--arch", "deep", "--steps", str(DEEP_TRAIN_STEPS),
                           "--learn-start", str(DEEP_LEARN_START), "--seed", _seed(rng)],
                          learn_start=DEEP_LEARN_START, dims=DEEP_DIMS))
        evals.append(Cmd(f"eval{i}", "eval", "dqn", DEEP_EVAL_STEPS,
                         ["evaluate", "--model", f"{{train{i}}}/best.model",
                          "--steps", str(DEEP_EVAL_STEPS), "--seed", _seed(rng)]))
    return [trains, evals]


WORKLOADS = {
    # the paper's tabular setting: shows env and encoder changes, and is the
    # control on which learner changes must move nothing
    "tabular-3lane": plan_tabular,
    # desk-scale DDQN: Python overhead in net, replay and dqn sets the pace;
    # eval only reads the net (b=1 forwards), training also writes
    "ddqn16x16": plan_ddqn,
    # two concurrent deep DQN trainers, as in a matched-seed sweep: the only
    # workload where BLAS threading decides the result. Not in BENCHMARK.json:
    # with default OpenBLAS threading its rounds land in one of two modes
    # (~120 or ~500-880 steps/s summed), so run medians do not repeat.
    "deep-sweep": plan_deep_sweep,
}

END_TO_END = (
    ("train_steps_per_s", "1/s", "higher"),
    ("eval_steps_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("eval_accuracy_pct", "%", "higher"),
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span in SPAN_NAMES:
        out += [(f"{span}.calls", "count"), (f"{span}.self_us_per_call", "us"),
                (f"{span}.self_pct", "%")]
    out += [
        ("tabular.qtable_states", "count"),
        ("dqn.validate.ms_per_episode", "ms"),
        ("dqn.forwards_per_gradient_step", "ratio"),
        ("dqn.validation_pct", "%"),
        ("trace.uncovered_pct", "%"),
        ("trace.overhead_pct", "%"),
    ]
    return out


# ---------------------------------------------------------------------------
# workers


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env(root) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workers:
    """Starts worker.py processes and collects their results."""

    def __init__(self, root, scratch):
        self.root = root
        self.scratch = scratch
        self.env = _worker_env(root)
        self.count = 0
        self.live = set()

    def start(self, spec, log_path):
        self.count += 1
        spec = dict(spec, src=os.path.join(self.root, "src"),
                    result=os.path.join(self.scratch, f"result-{self.count}.json"))
        log = open(log_path, "w")
        spec["spawn"] = _monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root,
        )
        self.live.add(proc)
        return proc, spec, log

    def finish(self, handle) -> dict | None:
        proc, spec, log = handle
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        self.live.discard(proc)
        log.close()
        if code != 0 or not os.path.exists(spec["result"]):
            with open(log.name) as fh:
                sys.stderr.write(f"worker {spec.get('argv', spec['mode'])} ended with "
                                 f"{code}:\n{fh.read()[-2000:]}\n")
            return None
        with open(spec["result"]) as fh:
            result = json.load(fh)
        os.remove(spec["result"])
        return result

    def run_one(self, spec, log_path) -> dict | None:
        return self.finish(self.start(spec, log_path))

    def close(self) -> None:
        """Kill and reap any worker still running (after an error in this script)."""
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live.clear()


def _digest(out_dir) -> str:
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one benchmark run


def run_rounds(workers, sets, seconds, trace, scratch):
    """Cycle through the seed sets' plans until `seconds` pass, each set at least
    twice (untraced then traced when tracing); returns one record per round."""
    rounds = []
    per_set = 2 if trace else 1
    start = time.perf_counter()
    while (len(rounds) < 2 * len(sets) or time.perf_counter() - start < seconds
           or len(rounds) % per_set):
        index = len(rounds) // per_set % len(sets)
        traced = trace and len(rounds) % 2 == 1
        plan = sets[index]
        base = os.path.join(scratch, f"round{len(rounds)}")
        os.makedirs(base)
        dirs = {cmd.name: os.path.join(base, cmd.name) for stage in plan for cmd in stage}
        results = {}
        for stage in plan:
            handles = []
            for cmd in stage:
                argv = [a.format(**dirs) for a in cmd.args] + ["--out", dirs[cmd.name]]
                handles.append((cmd, workers.start(
                    {"mode": "run", "argv": argv, "trace": traced},
                    dirs[cmd.name] + ".log")))
            for cmd, handle in handles:
                results[cmd.name] = workers.finish(handle)
        digests = {
            name: _digest(d) if results[name] is not None and os.path.isdir(d) else None
            for name, d in dirs.items()
        }
        rounds.append({"set": index, "traced": traced, "ok": None not in results.values()
                       and all(r["rc"] == 0 for r in results.values()),
                       "cmds": [c for stage in plan for c in stage],
                       "dirs": dirs, "results": results, "digests": digests})
    return rounds


def check_outputs(workers, rounds, scratch):
    """Failure accounting; returns (attempted, failed, problems, check info per out dir).

    The first round of each seed set is the reference: its artifacts are loaded
    back by a check worker, and every later round of the set must match its
    digests byte for byte.
    """
    firsts = {}
    for rnd in rounds:
        firsts.setdefault(rnd["set"], rnd)
    items = [
        {"out": rnd["dirs"][c.name], "role": c.role, "agent": c.agent,
         "steps": c.steps, "dims": c.dims}
        for rnd in firsts.values() for c in rnd["cmds"] if rnd["results"][c.name] is not None
    ]
    checked = workers.run_one({"mode": "check", "items": items},
                              os.path.join(scratch, "check.log"))
    info = {} if checked is None else checked["items"]
    problems = []
    failed = 0
    attempted = 0
    for i, rnd in enumerate(rounds):
        first = firsts[rnd["set"]]
        for c in rnd["cmds"]:
            attempted += 1
            result = rnd["results"][c.name]
            check = info.get(rnd["dirs"][c.name], {"error": "check worker failed"})
            why = None
            if result is None:
                why = "worker failed or timed out"
            elif result["rc"] != 0:
                why = f"exit code {result['rc']}"
            elif rnd["digests"][c.name] != first["digests"][c.name]:
                why = "artifact digest differs from the first round of its seed set"
            elif rnd is first and not check.get("ok"):
                why = "artifact check: " + check["error"]
            if why:
                failed += 1
                problems.append(f"round {i} {c.name}: {why}")
    trains = [rnd["digests"][c.name] for rnd in firsts.values() for c in rnd["cmds"]
              if c.role == "train" and rnd["digests"][c.name] is not None]
    if len(set(trains)) != len(trains):
        problems.append("distinct training seeds produced identical artifacts")
    return attempted, failed, problems, info


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values, better):
    """Nearest-rank p50/p90/p99/p99.9, the highest with >= 10 worse samples beyond it."""
    ordered = sorted(values, reverse=(better == "higher"))  # worst last
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(ordered) * (1 - p / 100) >= 10:
            return f"p{p:g}", ordered[math.ceil(p / 100 * len(ordered)) - 1]
    return None, None


def end_to_end(rounds, checks):
    """Headline values, raw values and per-round samples of the end-to-end metrics.

    Step rates are work completed per second over the whole run: total steps
    over total command time, per command of the plan, summed over commands
    that run concurrently. Time metrics are then rescaled by the host's speed
    during the run (see REFERENCE_S). Per-round rates are kept as samples for
    their median and tail; the other metrics report the median of their samples.
    """
    ok = [rnd for rnd in rounds if rnd["ok"] and not rnd["traced"]]
    samples = {"train_steps_per_s": [], "eval_steps_per_s": [], "setup_s": [],
               "peak_rss_mb": [], "eval_accuracy_pct": [], "reference_s": []}
    work = {}  # (role, command name) -> [steps, seconds]
    for rnd in ok:
        res = rnd["results"]
        for role in ("train", "eval"):
            samples[f"{role}_steps_per_s"].append(
                sum(c.steps / res[c.name]["run_s"] for c in rnd["cmds"] if c.role == role))
        for c in rnd["cmds"]:
            acc = work.setdefault((c.role, c.name), [0, 0.0])
            acc[0] += c.steps
            acc[1] += res[c.name]["run_s"]
        for key in ("setup_s", "reference_s"):
            samples[key] += [r[key] for r in res.values()]
        samples["peak_rss_mb"].append(max(r["maxrss_mb"] for r in res.values()))
    samples["eval_accuracy_pct"] = [v["accuracy"] for v in checks.values() if "accuracy" in v]
    raw = {name: _median(v) for name, v in samples.items()}
    raw["reference_s"] = statistics.fmean(samples["reference_s"] or [REFERENCE_S])
    for role in ("train", "eval"):
        raw[f"{role}_steps_per_s"] = sum(
            steps / seconds for (r, _), (steps, seconds) in work.items() if r == role)
    slowdown = raw["reference_s"] / REFERENCE_S
    values = dict(raw, setup_s=raw["setup_s"] / slowdown)
    for role in ("train", "eval"):
        values[f"{role}_steps_per_s"] = raw[f"{role}_steps_per_s"] * slowdown
    return values, raw, samples


def _sum_trace(rnd):
    """Span stats of one traced round, summed over its commands."""
    total = {name: {"calls": 0, "incl": 0.0, "self_s": 0.0, "in_scope": 0, "units": 0}
             for name in SPAN_NAMES}
    for result in rnd["results"].values():
        for name, stat in result["trace"].items():
            for k, v in stat.items():
                total[name][k] += v
    return total


def check_invariants(t, cmds, wall):
    """Exact call-count invariants of one traced round; returns problems."""
    calls = {name: s["calls"] for name, s in t.items()}
    steps = sum(c.steps for c in cmds)
    val_steps = t["env.step"]["in_scope"]
    tab_train = sum(c.steps for c in cmds if c.agent == "tabular" and c.role == "train")
    tab_eval = sum(c.steps for c in cmds if c.agent == "tabular" and c.role == "eval")
    mlp_train = [c for c in cmds if c.agent != "tabular" and c.role == "train"]
    mlp_evals = sum(1 for c in cmds if c.agent != "tabular" and c.role == "eval")
    grad_steps = sum(c.steps - c.learn_start + 1 for c in mlp_train)
    forwards = sum((3 if c.agent == "ddqn" else 2) * (c.steps - c.learn_start + 1)
                   for c in mlp_train)
    expect = {
        "env.step": steps + val_steps,
        "kernels.advance": steps + val_steps,
        "metrics.add_step": steps,
        "tabular.q_update": tab_train,
        "tabular.select_action": tab_train + tab_eval,
        "tabular.save_qtable": sum(1 for c in cmds if c.agent == "tabular" and c.role == "train"),
        "tabular.load_qtable": sum(1 for c in cmds if c.agent == "tabular" and c.role == "eval"),
        "replay.push": sum(c.steps for c in mlp_train),
        "dqn.train_step": sum(c.steps for c in mlp_train),
        "net.backward": grad_steps,
        "kernels.mlp_backward": grad_steps,
        "net.gradient_step": grad_steps,
        "kernels.adam_update": grad_steps,
        "net.forward.batch": forwards,
        "kernels.mlp_forward": forwards + calls["net.forward.b1"],
        "dqn.greedy_action": calls["net.forward.b1"],
        "replay.sample": grad_steps,
        "dqn.td_targets": grad_steps,
        "net.clone_into": sum(c.steps // DEFAULT_TARGET_SYNC for c in mlp_train),
        "metrics.write_csv": sum(1 for c in cmds if c.role == "train"),
        "net.save_model": 2 * len(mlp_train),
        "net.load_model": mlp_evals,
        "cli.run": len(cmds),
    }
    problems = [f"{name}.calls = {calls[name]}, expected {want}"
                for name, want in expect.items() if calls[name] != want]
    # every step encodes its next state; resets add one encoding each
    at_least = {
        "encoders.encode_tabular": tab_train + tab_eval,
        "encoders.encode_dqn": steps - tab_train - tab_eval,
        "net.forward.b1": sum(c.steps for c in cmds if c.agent != "tabular" and c.role == "eval"),
    }
    problems += [f"{name}.calls = {calls[name]}, expected at least {want}"
                 for name, want in at_least.items() if calls[name] < want]
    episodes = t[SCOPE]["units"]
    if not episodes <= val_steps <= episodes * MAX_EPISODE_STEPS:
        problems.append(f"{val_steps} validation steps for {episodes} episodes")
    self_total = sum(s["self_s"] for s in t.values())
    if abs(self_total - t["cli.run"]["incl"]) > 1e-6 * max(1.0, self_total):
        problems.append("span self times do not add up to cli.run inclusive time")
    if self_total > wall:
        problems.append("span self times exceed worker wall time")
    return problems


def per_layer(rounds, checks):
    """Per-layer metrics from the traced rounds; returns (metrics, problems)."""
    # traced rounds follow the untraced round of the same plan
    pairs = [(u, t) for u, t in zip(rounds[::2], rounds[1::2]) if u["ok"] and t["ok"]]
    if not pairs:
        return {}, ["no traced round completed"]
    problems = []
    sums = [_sum_trace(t) for _, t in pairs]
    walls = [sum(x["wall_s"] for x in t["results"].values()) for _, t in pairs]
    for (_, t), stats, w in zip(pairs, sums, walls):
        problems += check_invariants(stats, t["cmds"], w)
    counts = [{n: s["calls"] for n, s in t.items()} for t in sums]
    if any(c != counts[0] for c in counts):
        problems.append("call counts differ between traced rounds")
    wall = sum(walls)
    total = {n: {k: sum(t[n][k] for t in sums) for k in sums[0][n]} for n in SPAN_NAMES}
    m = {}
    for name in SPAN_NAMES:
        s = total[name]
        m[f"{name}.calls"] = s["calls"] / len(sums)
        m[f"{name}.self_us_per_call"] = 1e6 * s["self_s"] / s["calls"] if s["calls"] else 0.0
        m[f"{name}.self_pct"] = 100.0 * s["self_s"] / wall
    m["tabular.qtable_states"] = sum(v.get("qtable_states", 0) for v in checks.values())
    val = total[SCOPE]
    m["dqn.validate.ms_per_episode"] = 1e3 * val["incl"] / val["units"] if val["units"] else 0.0
    backward = total["net.backward"]["calls"]
    m["dqn.forwards_per_gradient_step"] = (
        total["net.forward.batch"]["calls"] / backward if backward else 0.0)
    train_run = sum(t["results"][c.name]["trace"]["cli.run"]["incl"]
                    for _, t in pairs for c in t["cmds"]
                    if c.role == "train" and c.agent != "tabular")
    m["dqn.validation_pct"] = 100.0 * val["incl"] / train_run if train_run else 0.0
    m["trace.uncovered_pct"] = 100.0 * (wall - sum(s["self_s"] for s in total.values())) / wall
    u_wall = sum(x["wall_s"] for u, _ in pairs for x in u["results"].values())
    m["trace.overhead_pct"] = 100.0 * (wall - u_wall) / u_wall
    return m, problems


def machine_record(probe, program, worker_env, load_start):
    """Where the numbers came from; `program` is what the first command saw."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": probe["numpy"],
        "blas": {k: probe["blas"].get(k) for k in ("name", "version", "openblas configuration")},
        "thread_vars_passed_to_workers": {k: worker_env.get(k) for k in THREAD_VARS},
        "thread_vars_seen_by_program": program.get("thread_vars"),
        "have_numba": program.get("have_numba"),
        "numba_enabled": program.get("numba_enabled"),
        "deepcars_numba_env": program.get("deepcars_numba_env"),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def bench_one(root, workload, seed, seconds, trace):
    scratch = os.path.join(root, OUT_ROOT, f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
    os.makedirs(scratch)
    workers = Workers(root, scratch)
    try:
        load_start = list(os.getloadavg())
        probe = workers.run_one({"mode": "probe"}, os.path.join(scratch, "probe.log"))
        if probe is None:
            with open(os.path.join(scratch, "probe.log")) as fh:
                sys.stderr.write(fh.read())
            raise SystemExit("error: worker could not import deepcars from src/")
        rng = random.Random(f"{workload}:{seed}")
        sets = [WORKLOADS[workload](rng) for _ in range(1 if trace else SEED_SETS)]
        t0 = time.perf_counter()
        rounds = run_rounds(workers, sets, seconds, trace, scratch)
        elapsed = time.perf_counter() - t0
        attempted, failed, problems, checks = check_outputs(workers, rounds, scratch)
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "rounds": len(rounds), "elapsed_s": elapsed,
            "attempted": attempted, "failed": failed,
            "ops_failed_pct": 100.0 * failed / attempted,
            "digests": [rnd["digests"] for rnd in rounds[:len(sets)]],
            "argv": [[c.args for stage in plan for c in stage] for plan in sets],
            "machine": machine_record(
                probe, next((r["program"] for rnd in rounds for r in rnd["results"].values()
                             if r is not None), {}), workers.env, load_start),
        }
        values, raw, samples = end_to_end(rounds, checks)
        record["samples"] = samples
        record["raw"] = raw
        if trace:
            metrics, trace_problems = per_layer(rounds, checks)
            problems += trace_problems
            units = dict(per_layer_metrics())
            out = {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()}
        else:
            out = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
            record["summary"] = {
                name: {"raw": raw[name], "median": _median(samples[name]),
                       "n": len(samples[name]), "tail": _tail(samples[name], better)}
                for name, _, better in END_TO_END}
            record["host_slowdown"] = raw["reference_s"] / REFERENCE_S
        record["problems"] = problems
        record["metrics"] = out
        return record
    finally:
        workers.close()
        shutil.rmtree(scratch, ignore_errors=True)


def print_record(record):
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['rounds']} rounds in {record['elapsed_s']:.1f} s, "
          f"{record['attempted']} commands, {record['failed']} failed "
          f"(ops_failed_pct {record['ops_failed_pct']:.2f} %)")
    m = record["machine"]
    print(f"# machine: {m['nproc']} x {m['cpu_model']}, python {m['python']}, "
          f"numpy {m['numpy']} ({m['blas'].get('name')} {m['blas'].get('version')}), "
          f"numba {m['have_numba']}/{m['numba_enabled']}, "
          f"thread vars {m['thread_vars_seen_by_program']}, "
          f"load {m['loadavg_start'][0]:.2f} -> {m['loadavg_end'][0]:.2f}")
    summary = record.get("summary", {})
    if "host_slowdown" in record:
        print(f"# host slowdown {record['host_slowdown']:.4f} "
              f"(mean reference loop time / {REFERENCE_S} s)")
    for name, metric in record["metrics"].items():
        line = f"{name:<44} {metric['value']:>14.6g} {metric['unit']}"
        if name in summary:
            s = summary[name]
            tail = "" if s["tail"][0] is None else f"  {s['tail'][0]} {s['tail'][1]:.6g}"
            line += (f"  raw {s['raw']:.6g}; samples: median {s['median']:.6g}"
                     f" of n={s['n']}{tail}")
        print(line)
    for p in record["problems"]:
        print(f"# problem: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit so running workers are reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "deepcars", "cli.py")):
        print("error: run from the repository root; src/deepcars/cli.py not found",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        jobs = [(args.workload, bool(args.trace))]

    records = []
    for workload, trace in jobs:
        record = bench_one(root, workload, args.seed, args.seconds, trace)
        print_record(record)
        results = os.path.join(root, OUT_ROOT, "results")
        os.makedirs(results, exist_ok=True)
        name = f"{workload}-seed{args.seed}-trace{int(trace)}.json"
        with open(os.path.join(results, name), "w") as fh:
            json.dump(record, fh, indent=1)
        records.append(record)

    correct = all(not r["problems"] and r["failed"] == 0 for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
