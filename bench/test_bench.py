"""Self-tests for the benchmark harness.

Run from the repository root: python3 -m pytest -q bench/test_bench.py

The tiny-run tests drive real CLI commands through traced worker processes
and compare call counts with numbers derived here by hand, which proves each
wrapper sits on the attribute its caller actually looks up.
"""

import os
import shutil

import pytest

import run
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_is_inclusive_minus_child_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def work(dt):
        now[0] += dt

    leaf = tracer.span("leaf", work)
    inner = tracer.span("inner", lambda: (work(1.0), leaf(2.0), work(0.5)))
    outer = tracer.span("outer", lambda: (work(3.0), inner(), leaf(4.0), inner()))
    outer()

    s = tracer.stats
    assert (s["leaf"].calls, s["leaf"].incl, s["leaf"].self_s) == (3, 8.0, 8.0)
    assert (s["inner"].calls, s["inner"].incl, s["inner"].self_s) == (2, 7.0, 3.0)
    assert s["outer"].incl == 14.0
    assert s["outer"].self_s == s["outer"].incl - s["inner"].incl - 4.0 == 3.0


def test_span_that_raises_still_closes():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def fail():
        now[0] += 2.0
        raise KeyError("boom")

    failing = tracer.span("failing", fail)

    def body():
        now[0] += 1.0
        with pytest.raises(KeyError):
            failing()

    tracer.span("outer", body)()
    assert tracer.stats["failing"].incl == 2.0
    assert tracer.stats["outer"].self_s == 1.0


def test_scope_counts_only_enclosed_calls():
    tracer = Tracer()
    leaf = tracer.span("leaf", lambda: None)
    scoped = tracer.span("scoped", lambda n: [leaf() for _ in range(n)],
                         units=lambda a: a[0], scope=True)
    leaf()
    scoped(3)
    assert tracer.stats["leaf"].calls == 4
    assert tracer.stats["leaf"].in_scope == 3
    assert tracer.stats["scoped"].units == 3


@pytest.fixture
def scratch():
    path = os.path.join(ROOT, run.OUT_ROOT, f"selftest-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _traced_totals(plan, scratch):
    workers = run.Workers(ROOT, scratch)
    rounds = run.run_rounds(workers, [plan], 0, True, scratch)
    attempted, failed, problems, checks = run.check_outputs(workers, rounds, scratch)
    assert (attempted, failed, problems) == (2 * len(rounds), 0, [])
    metrics, problems = run.per_layer(rounds, checks)
    assert problems == []
    traced = rounds[1]
    return metrics, run._sum_trace(traced), traced["cmds"], traced


# no traffic, so every episode runs to the step cap and the number of
# validation steps is known in advance
QUIET = ["--occupancy-prob", "0", "--max-episode-steps", "20"]


def _dqn_plan(arch, agent, dims):
    train = run.Cmd("train", "train", agent, 300,
                    ["train-dqn", "--arch", arch, "--steps", "300", "--learn-start", "100",
                     "--fast-val-period", "100", "--fast-val-episodes", "2",
                     "--seed", "7", *QUIET], learn_start=100,
                    dims=dims)
    evaluate = run.Cmd("eval", "eval", agent, 200,
                       ["evaluate", "--model", "{train}/best.model", "--steps", "200",
                        "--seed", "8"])
    return [[train], [evaluate]]


@pytest.mark.parametrize("arch,agent,dims,ratio", [
    ("ddqn16x16", "ddqn", run.DDQN_DIMS, 3.0),
    ("shallow", "dqn", [43, 32, 3], 2.0),
])
def test_dqn_exact_counts(scratch, arch, agent, dims, ratio):
    metrics, totals, cmds, _ = _traced_totals(_dqn_plan(arch, agent, dims), scratch)
    validation_steps = 3 * 2 * 20  # validations at 100, 200, 300; 2 episodes of 20 steps
    assert metrics["env.step.calls"] == 300 + 200 + validation_steps
    assert totals["env.step"]["in_scope"] == validation_steps
    assert metrics["net.backward.calls"] == 300 - 100 + 1
    assert metrics["replay.push.calls"] == 300
    assert metrics["dqn.forwards_per_gradient_step"] == ratio
    assert metrics["net.save_model.calls"] == 2
    assert metrics["net.load_model.calls"] == 1
    assert metrics["dqn.validate.calls"] == 3


def test_tabular_exact_counts(scratch):
    plan = [[run.Cmd("train", "train", "tabular", 300,
                     ["train-tabular", "--lanes", "3", "--steps", "300", "--seed", "3"])],
            [run.Cmd("eval", "eval", "tabular", 200,
                     ["evaluate", "--lanes", "3", "--model", "{train}/qtable.txt",
                      "--steps", "200", "--seed", "4"])]]
    metrics, _, _, _ = _traced_totals(plan, scratch)
    assert metrics["env.step.calls"] == 500
    assert metrics["tabular.q_update.calls"] == 300
    assert metrics["tabular.select_action.calls"] == 500
    assert metrics["metrics.add_step.calls"] == 500
    for name in ("net.forward.b1", "net.forward.batch", "replay.push", "kernels.mlp_forward"):
        assert metrics[f"{name}.calls"] == 0
    assert metrics["tabular.qtable_states"] > 0


def test_invariants_catch_a_missed_call(scratch):
    _, totals, cmds, traced = _traced_totals(_dqn_plan("ddqn16x16", "ddqn", run.DDQN_DIMS), scratch)
    wall = sum(r["wall_s"] for r in traced["results"].values())
    assert run.check_invariants(totals, cmds, wall) == []
    totals["replay.push"]["calls"] -= 1
    assert run.check_invariants(totals, cmds, wall) == ["replay.push.calls = 299, expected 300"]


def test_rates_are_run_totals_rescaled_by_the_host_probe():
    train = run.Cmd("train", "train", "tabular", 100, [])
    evaluate = run.Cmd("eval", "eval", "tabular", 50, [])

    def result(run_s, reference_s):
        return {"rc": 0, "run_s": run_s, "setup_s": 0.3, "maxrss_mb": 40.0,
                "reference_s": reference_s}

    ref = run.REFERENCE_S
    rounds = [
        {"ok": True, "traced": False, "cmds": [train, evaluate],
         "results": {"train": result(1.0, ref), "eval": result(0.5, ref)}},
        {"ok": True, "traced": False, "cmds": [train, evaluate],
         "results": {"train": result(3.0, 2 * ref), "eval": result(0.5, 2 * ref)}},
    ]
    values, raw, samples = run.end_to_end(rounds, {"out": {"accuracy": 90.0}})
    assert raw["train_steps_per_s"] == 200 / 4.0  # total steps over total time
    assert samples["train_steps_per_s"] == [100.0, 100 / 3.0]
    # probes take 1x, 1x, 2x, 2x the nominal time: on average the host ran 1.5x slow
    assert values["train_steps_per_s"] == pytest.approx(1.5 * 50.0)
    assert values["eval_steps_per_s"] == pytest.approx(1.5 * 100.0)
    assert values["setup_s"] == pytest.approx(0.3 / 1.5)
    assert values["eval_accuracy_pct"] == 90.0
