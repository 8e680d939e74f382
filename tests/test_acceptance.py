"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The suite trains real
agents and takes several minutes; every run is seeded and deterministic.
"""

import time

import numpy as np
import pytest

from deepcars import net, tabular
from deepcars.dqn import DqnHyperparams, encode_dqn, greedy_policy, td_targets, train_dqn
from deepcars.env import EnvConfig, evaluate
from deepcars.metrics import write_csv
from deepcars.replay import Batch, ReplayBuffer
from deepcars.tabular import TabularHyperparams, encode_tabular, train_tabular

from helpers import (
    decode_dqn,
    finite_diff_grad,
    kink_free_input,
    max_relative_error,
    run_lookahead,
    state_from_ascii,
)

pytestmark = pytest.mark.acceptance


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_tabular_reproduction():
    start = time.time()
    config = EnvConfig(lanes=3)
    table, train_run = train_tabular(
        config, TabularHyperparams(train_steps=50_000), seed=12345
    )
    eval_run = evaluate(tabular.greedy_policy(table, config), config, steps=100_000, seed=999)
    elapsed = time.time() - start
    acc = eval_run.accuracy()
    ok = acc is not None and acc >= 95.0 and elapsed < 60.0
    report(
        1,
        ok,
        f"tabular 50k train / 100k greedy eval on 3 lanes: "
        f"accuracy {acc:.2f}% (need >= 95), train-phase {train_run.accuracy():.2f}%, "
        f"{elapsed:.1f}s (need < 60)",
    )


def test_criterion_2_ddqn_desk_scale():
    start = time.time()
    config = EnvConfig()
    hp = DqnHyperparams(train_steps=150_000, double_q=True, hidden_layers=(16, 16))
    best, final, run = train_dqn(config, hp, seed=7)
    eval_run = evaluate(greedy_policy(best, config), config, steps=12_000, seed=4242)
    elapsed = time.time() - start
    acc = eval_run.accuracy()
    ok = acc is not None and acc >= 99.0 and elapsed < 900.0
    best_step = [row for row in run.validations if row[3]][-1][0]
    report(
        2,
        ok,
        f"DDQN-16x16, 150k steps, best checkpoint @{best_step}: "
        f"accuracy {acc:.3f}% over 12k eval steps (need >= 99), "
        f"{elapsed:.0f}s (need < 900)",
    )


def _threshold_crossing_step(run, bar):
    for w, mean_reward in run.windows:
        if mean_reward >= bar:
            last_episode = 100 * (w + 1) - 1
            return max(s for s, e, _, _ in run.steps if e <= last_episode)
    return None


def test_criterion_3_ddqn_converges_faster_than_dqn():
    # matched seeds, identical hyperparameters apart from the double-q flag;
    # epsilon anneals over 20k steps so window rewards reflect policy quality
    # rather than the exploration schedule
    config = EnvConfig()
    wins = 0
    details = []
    for seed in (1, 2, 3, 4, 5):
        crossings = {}
        runs = {}
        for double_q in (False, True):
            hp = DqnHyperparams(
                train_steps=100_000,
                double_q=double_q,
                hidden_layers=(16, 16),
                epsilon_decay_steps=20_000,
                fast_validation_period=10_000,
                fast_validation_episodes=5,
                deep_validation_period=50_000,
                deep_validation_episodes=20,
            )
            _, _, run = train_dqn(config, hp, seed=seed)
            runs["ddqn" if double_q else "dqn"] = run
        bar = 0.9 * max(mr for r in runs.values() for _, mr in r.windows)
        crossings = {k: _threshold_crossing_step(r, bar) for k, r in runs.items()}
        faster = crossings["ddqn"] is not None and (
            crossings["dqn"] is None or crossings["ddqn"] < crossings["dqn"]
        )
        wins += faster
        details.append(f"seed {seed}: dqn {crossings['dqn']} ddqn {crossings['ddqn']}")
    report(
        3,
        wins >= 4,
        f"DDQN crossed 0.9*max-window-reward first in {wins}/5 matched seeds "
        f"(need >= 4); {'; '.join(details)}",
    )


PAPER_ARCHITECTURES = ((32,), (32, 64, 32), (64, 128, 128, 64), (16,), (16, 16))


def test_criterion_4_gradient_oracle_all_architectures():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for hidden in PAPER_ARCHITECTURES:
        dims = [43, *hidden, 3]
        params = net.init_params(dims, int(rng.integers(1 << 31)))
        x = kink_free_input(params, rng)
        dout = rng.uniform(-1.0, 1.0, 3)
        analytic = net.backward(params, x, dout)
        numeric = finite_diff_grad(params, x, dout, step=1e-5)
        worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.time() - start
    report(
        4,
        worst < 1e-6,
        f"central differences vs backprop over 5 architectures: "
        f"max relative error {worst:.2e} (need < 1e-6), {elapsed:.1f}s",
    )


def test_criterion_5_double_q_coincidence_bit_exact():
    rng = np.random.default_rng(555)
    online = net.init_params([43, 16, 16, 3], 808)
    target = net.clone(online)
    exact = 0
    for _ in range(1_000):
        batch = Batch(
            states=rng.uniform(0, 1, (8, 43)),
            actions=rng.integers(0, 3, 8),
            rewards=np.where(rng.random(8) < 0.2, -1.0, 1.0),
            next_states=(rng.random((8, 43)) < 0.4).astype(np.float64),
            terminals=rng.random(8) < 0.2,
        )
        a = td_targets(batch, online, target, 0.9, double_q=False)
        b = td_targets(batch, online, target, 0.9, double_q=True)
        exact += int(np.array_equal(a, b))
    report(
        5,
        exact == 1_000,
        f"theta == theta-minus makes DDQN and DQN targets bit-equal on "
        f"{exact}/1000 random batches (need 1000)",
    )


def test_criterion_6_environment_solvability():
    config = EnvConfig(max_episode_steps=10_000)
    total_collisions = 0
    total_violations = 0
    for seed in range(20):
        collisions, _, violations = run_lookahead(config, seed=seed * 7919, steps=10_000)
        total_collisions += collisions
        total_violations += violations
    report(
        6,
        total_collisions == 0 and total_violations == 0,
        f"full-lookahead oracle over 20 seeds x 10k steps: "
        f"{total_collisions} collisions (need 0), "
        f"{total_violations} reachability-check violations",
    )


def test_criterion_7_encoder_fidelity():
    reference = state_from_ascii(
        ".....\n#....\n.....\n.....\n.#...\n.....\n.....\n..E#."
    )
    got = encode_tabular(reference)
    vector_ok = got == (2, 6, 3, 8, 0, 8)

    from deepcars.env import EnvState

    config = EnvConfig()
    rng = np.random.default_rng(7007)
    roundtrips = 0
    for _ in range(10_000):
        grid = (rng.random((8, 5)) < rng.uniform(0.1, 0.7)).astype(np.uint8)
        ego = int(rng.integers(0, 5))
        state = EnvState(
            grid=grid, ego_lane=ego, step_count=0
        )
        back_grid, back_ego = decode_dqn(encode_dqn(state), config)
        roundtrips += int(np.array_equal(back_grid, grid) and back_ego == ego)
    ok = vector_ok and roundtrips == 10_000
    report(
        7,
        ok,
        f"reference state vector {list(got)} "
        f"(need [2, 6, 3, 8, 0, 8]); encode/decode round-trips {roundtrips}/10000",
    )


def test_criterion_8_determinism_byte_identical_csvs(tmp_path):
    config = EnvConfig(lanes=3)
    hp_tab = TabularHyperparams(train_steps=5_000)
    dirs = []
    for run_idx in range(2):
        _, run = train_tabular(config, hp_tab, seed=31337)
        out = tmp_path / f"tab{run_idx}"
        write_csv(run, out)
        dirs.append(out)
    tab_ok = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("steps.csv", "windows.csv", "validation.csv", "summary.csv")
    )

    hp_dqn = DqnHyperparams(
        train_steps=4_000,
        hidden_layers=(8,),
        learn_start=500,
        epsilon_decay_steps=2_000,
        fast_validation_period=1_000,
        fast_validation_episodes=3,
        deep_validation_period=3_000,
        deep_validation_episodes=5,
    )
    dirs = []
    for run_idx in range(2):
        _, _, run = train_dqn(EnvConfig(), hp_dqn, seed=777)
        out = tmp_path / f"dqn{run_idx}"
        write_csv(run, out)
        dirs.append(out)
    dqn_ok = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("steps.csv", "windows.csv", "validation.csv", "summary.csv")
    )
    report(
        8,
        tab_ok and dqn_ok,
        f"two seeded runs byte-identical: tabular {tab_ok}, dqn {dqn_ok}",
    )


def test_criterion_9_replay_semantics():
    # ring eviction
    buf = ReplayBuffer(capacity=3, state_dim=1)
    for tag in range(7):
        buf.push(np.array([float(tag)]), 0, 1.0, np.array([0.0]), False)
    kept = sorted(buf.states[: len(buf), 0].tolist())
    ring_ok = kept == [4.0, 5.0, 6.0] and len(buf) == 3

    # underfill signalling
    empty_ok = ReplayBuffer(4, 1).sample(2, np.random.default_rng(0)) is None

    # uniform sampling within 3 sigma over 1e5 draws
    buf = ReplayBuffer(capacity=10, state_dim=1)
    for tag in range(10):
        buf.push(np.array([float(tag)]), 0, 1.0, np.array([0.0]), False)
    draws = 100_000
    batch = buf.sample(draws, np.random.default_rng(90210))
    counts = np.bincount(batch.states[:, 0].astype(int), minlength=10)
    sigma = np.sqrt(draws * 0.1 * 0.9)
    uniform_ok = bool(np.all(np.abs(counts - draws / 10) <= 3 * sigma))
    report(
        9,
        ring_ok and empty_ok and uniform_ok,
        f"ring eviction {ring_ok}, underfill signal {empty_ok}, "
        f"uniform 3-sigma bound {uniform_ok} "
        f"(max deviation {float(np.max(np.abs(counts - draws / 10))):.0f}, "
        f"3 sigma = {3 * sigma:.0f})",
    )
