import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from deepcars import net
from deepcars.dqn import (
    DqnHyperparams,
    DqnTrainer,
    epsilon_at,
    greedy_policy,
    td_targets,
    train_dqn,
    validate,
)
from deepcars.env import EnvConfig, evaluate
from deepcars.replay import Batch, ReplayBuffer

from helpers import layer_offsets, metrics_equal, naive_dqn_rollout, naive_validate


SMALL_HP = DqnHyperparams(
    train_steps=2_000,
    epsilon_decay_steps=1_000,
    learn_start=200,
    replay_capacity=2_000,
    target_sync_period=250,
    hidden_layers=(8,),
    fast_validation_period=500,
    fast_validation_episodes=2,
    deep_validation_period=1_500,
    deep_validation_episodes=3,
)
SMALL_CFG = EnvConfig(max_episode_steps=60)


def test_epsilon_schedule_endpoints():
    hp = DqnHyperparams()
    assert epsilon_at(hp, 0) == 1.0
    assert epsilon_at(hp, hp.epsilon_decay_steps) == 0.05
    assert epsilon_at(hp, hp.epsilon_decay_steps * 3) == 0.05
    mid = epsilon_at(hp, hp.epsilon_decay_steps // 2)
    assert 0.05 < mid < 1.0


def _random_batch(rng, dim, size=16, all_terminal=False):
    return Batch(
        states=rng.uniform(0, 1, (size, dim)),
        actions=rng.integers(0, 3, size),
        rewards=np.where(rng.random(size) < 0.3, -1.0, 1.0),
        next_states=rng.uniform(0, 1, (size, dim)),
        terminals=np.ones(size, bool) if all_terminal else rng.random(size) < 0.3,
    )


def test_td_targets_terminal_is_reward():
    rng = np.random.default_rng(0)
    online = net.init_params([6, 5, 3], 1)
    target = net.init_params([6, 5, 3], 2)
    batch = _random_batch(rng, 6, all_terminal=True)
    y = td_targets(batch, online, target, 0.9, double_q=False)
    assert np.array_equal(y, batch.rewards)
    y2 = td_targets(batch, online, target, 0.9, double_q=True)
    assert np.array_equal(y2, batch.rewards)


def test_td_targets_double_q_coincides_when_nets_equal():
    rng = np.random.default_rng(1)
    online = net.init_params([6, 5, 3], 3)
    target = net.clone(online)
    for _ in range(20):
        batch = _random_batch(rng, 6)
        a = td_targets(batch, online, target, 0.9, double_q=False)
        b = td_targets(batch, online, target, 0.9, double_q=True)
        assert np.array_equal(a, b)


def test_td_targets_match_hand_evaluated_toy_network():
    # 2-input identity-ish nets with hand-set weights, evaluated by hand
    online = net.init_params([2, 3], 0)
    online.theta[:] = 0.0
    online.weight(0)[:] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    target = net.init_params([2, 3], 0)
    target.theta[:] = 0.0
    target.weight(0)[:] = [[2.0, 0.0], [0.0, -1.0], [0.5, 0.5]]
    batch = Batch(
        states=np.zeros((2, 2)),
        actions=np.array([0, 1]),
        rewards=np.array([1.0, 1.0]),
        next_states=np.array([[1.0, 2.0], [3.0, 1.0]]),
        terminals=np.array([False, False]),
    )
    # target net on s1'=(1,2): [2, -2, 1.5] -> max 2.0; on s2'=(3,1): [6, -1, 2]
    y_dqn = td_targets(batch, online, target, 0.9, double_q=False)
    assert np.allclose(y_dqn, [1.0 + 0.9 * 2.0, 1.0 + 0.9 * 6.0])
    # online net argmax: s1' -> [1, 2, 3] picks a=2, target evaluates 1.5
    #                    s2' -> [3, 1, 4] picks a=2, target evaluates 2.0
    y_ddqn = td_targets(batch, online, target, 0.9, double_q=True)
    assert np.allclose(y_ddqn, [1.0 + 0.9 * 1.5, 1.0 + 0.9 * 2.0])


def test_td_targets_rejects_nonfinite_network():
    online = net.init_params([4, 3], 0)
    target = net.init_params([4, 3], 0)
    target.theta[0] = np.inf
    batch = _random_batch(np.random.default_rng(2), 4)
    with pytest.raises(net.NumericError):
        td_targets(batch, online, target, 0.9, double_q=False)


def test_td_targets_rejects_nonfinite_online_network_for_double_q():
    # the online net picks Double DQN's action, so its Q-values are checked too
    online = net.init_params([4, 3], 0)
    target = net.init_params([4, 3], 0)
    online.theta[0] = np.inf
    batch = _random_batch(np.random.default_rng(2), 4)
    assert np.isfinite(td_targets(batch, online, target, 0.9, double_q=False)).all()
    with pytest.raises(net.NumericError, match="online network produced non-finite"):
        td_targets(batch, online, target, 0.9, double_q=True)


def test_gradient_masking_on_output_layer():
    # TD loss touches only the taken action's output unit
    params = net.init_params([6, 4, 3], 5)
    x = np.random.default_rng(3).uniform(0, 1, 6)
    for action in range(3):
        dout = np.zeros(3)
        dout[action] = 1.7
        grad = net.backward(params, x, dout)
        w0, b0, end = layer_offsets(params.layer_dims)[1]
        out_w = grad[w0:b0].reshape(3, 4)
        out_b = grad[b0:end]
        for a in range(3):
            if a == action:
                assert np.any(out_w[a] != 0.0) and out_b[a] != 0.0
            else:
                assert np.all(out_w[a] == 0.0) and out_b[a] == 0.0


def test_target_network_stale_between_syncs():
    trainer = DqnTrainer(SMALL_CFG, SMALL_HP, seed=11)
    hashes = []
    for _ in range(SMALL_HP.target_sync_period * 2):
        frozen = trainer.target.theta.tobytes()
        trainer.train_step()
        if trainer.step_index % SMALL_HP.target_sync_period == 0:
            assert np.array_equal(trainer.target.theta, trainer.online.theta)
            hashes.append(trainer.target.theta.tobytes())
        else:
            assert trainer.target.theta.tobytes() == frozen
    assert len(hashes) == 2


def test_overfit_single_frozen_batch():
    rng = np.random.default_rng(7)
    params = net.init_params([10, 8, 3], 13)
    opt = net.make_optimizer(params, "adam", 1e-2)
    states = rng.uniform(0, 1, (32, 10))
    actions = rng.integers(0, 3, 32)
    targets = rng.uniform(-1, 10, 32)
    rows = np.arange(32)

    def loss():
        q = net.forward(params, states)
        return float(np.mean((q[rows, actions] - targets) ** 2))

    first = loss()
    for _ in range(100):
        q = net.forward(params, states)
        dout = np.zeros_like(q)
        dout[rows, actions] = 2.0 * (q[rows, actions] - targets) / 32
        net.gradient_step(params, net.backward(params, states, dout), opt)
    assert loss() < first * 0.5


def _best_row(metrics):
    """The last `is_new_best` validation row: the best net's step and mean reward."""
    return [rec for rec in metrics.validations if rec[3]][-1]


def test_checkpoint_monotonicity_and_validation_log():
    best, final, metrics = train_dqn(SMALL_CFG, SMALL_HP, seed=21)
    assert isinstance(best, net.MlpParams) and best.layer_dims == final.layer_dims
    bests = [rec for rec in metrics.validations if rec[3]]
    scores = [rec[1] for rec in bests]
    assert scores == sorted(scores)
    assert all(b > a for a, b in zip(scores, scores[1:]))
    # the best row holds the top score, at the first step that reached it
    step, reward, _, _ = _best_row(metrics)
    assert reward == max(rec[1] for rec in metrics.validations)
    assert step == min(rec[0] for rec in metrics.validations if rec[1] == reward)
    # both cadences fired
    steps = {rec[0] for rec in metrics.validations}
    assert 500 in steps and 1500 in steps


@pytest.mark.parametrize(
    "world,seed", [({}, 2), ({"occupancy_prob": 0.0}, 3)], ids=["default", "empty-road"]
)
def test_best_is_the_online_net_cloned_at_the_last_new_best_row(world, seed):
    config = replace(SMALL_CFG, **world)
    trainer = DqnTrainer(config, SMALL_HP, seed=seed)
    clones = {}  # step -> bytes of `online` right after that step's validation phase
    while trainer.step_index < SMALL_HP.train_steps:
        trainer.train_step()
        if len(trainer.metrics.validations) > len(clones):
            clones[trainer.step_index] = trainer.online.theta.tobytes()
    rows = trainer.metrics.validations
    assert [row[0] for row in rows] == list(clones) == [500, 1000, 1500, 2000]
    # a row is a new best when it is the first or strictly above every earlier row
    top = None
    for _, reward, _, is_best in rows:
        assert is_best == (top is None or reward > top)
        top = reward if top is None else max(top, reward)
    step = _best_row(trainer.metrics)[0]
    assert step != rows[-1][0] and clones[step] != clones[rows[-1][0]]  # a later net differs
    assert trainer.best.theta.tobytes() == clones[step]
    assert not np.shares_memory(trainer.best.theta, trainer.online.theta)
    if world:  # no car on the road: every validation ties, so the first row stays the best
        assert len({row[1] for row in rows}) == 1 and step == rows[0][0]


def test_training_is_deterministic():
    r1 = train_dqn(SMALL_CFG, SMALL_HP, seed=31)
    r2 = train_dqn(SMALL_CFG, SMALL_HP, seed=31)
    assert np.array_equal(r1[1].theta, r2[1].theta)
    assert r1[2].steps == r2[2].steps
    assert r1[2].validations == r2[2].validations
    assert _best_row(r1[2]) == _best_row(r2[2])
    assert r1[0].theta.tobytes() == r2[0].theta.tobytes()


@pytest.mark.parametrize("double_q", [False, True], ids=["dqn", "ddqn"])
def test_uint8_replay_trains_the_bits_of_a_float64_replay(double_q):
    # a ring that wraps four times, with target syncs and both validation cadences
    hp = replace(SMALL_HP, train_steps=1_200, replay_capacity=300, learn_start=100,
                 target_sync_period=200, fast_validation_period=300, deep_validation_period=900,
                 double_q=double_q)
    small, wide = DqnTrainer(SMALL_CFG, hp, seed=17), DqnTrainer(SMALL_CFG, hp, seed=17)
    wide.buffer = ReplayBuffer(hp.replay_capacity, small.buffer.states.shape[1])
    assert (small.buffer.states.dtype, wide.buffer.states.dtype) == (np.uint8, np.float64)
    runs = [trainer.run() for trainer in (small, wide)]
    assert len(small.buffer) == 300 and small.step_index == 1_200
    for name in ("online", "target"):
        assert getattr(small, name).theta.tobytes() == getattr(wide, name).theta.tobytes()
    assert small.opt.m.tobytes() == wide.opt.m.tobytes()
    assert small.opt.v.tobytes() == wide.opt.v.tobytes()
    assert small.opt.step_count == wide.opt.step_count == 1_200 - hp.learn_start + 1
    (best_s, _, metrics_s), (best_w, _, metrics_w) = runs
    assert best_s.theta.tobytes() == best_w.theta.tobytes()
    assert _best_row(metrics_s) == _best_row(metrics_w)
    assert metrics_equal(metrics_s, metrics_w)
    assert metrics_s.steps == metrics_w.steps and len(metrics_s.steps) == 1_200
    assert metrics_s.validations == metrics_w.validations and len(metrics_s.validations) == 4
    assert metrics_s.episode_rewards == metrics_w.episode_rewards


def test_validate_zero_weights_empty_road():
    config = EnvConfig(occupancy_prob=0.0, max_episode_steps=50)
    params = net.init_params([43, 8, 3], 0)
    params.theta[:] = 0.0
    run = validate(params, config, episodes=3, seed=9)
    assert run.episode_rewards == [50.0, 50.0, 50.0]
    assert run.accuracy() is None  # vacuous: no cars resolved
    assert run.collided == 0


@pytest.mark.parametrize(
    "world", [{}, {"max_episode_steps": 3}], ids=["default", "three-step-episodes"]
)
def test_validate_matches_reference_loop_past_a_window(world):
    # 130 episodes: the tally closes a 100-episode window inside validate
    config = EnvConfig(**world)
    params = net.init_params([43, 8, 3], 12)
    act, encode = greedy_policy(params, config)
    for seed in (0, 2**40 + 5):
        run = validate(params, config, episodes=130, seed=seed)
        assert run.episode == 130
        assert (sum(run.episode_rewards) / 130, run.accuracy(), run.passed, run.collided) == (
            naive_validate(lambda s: act(encode(s)), config, 130, seed))


@pytest.mark.parametrize("episodes", [2.5, True, 0], ids=repr)
def test_validate_refuses_an_episode_count_that_is_not_a_positive_integer(episodes):
    # 2.5 once played 3 episodes, and the trainer's mean divided their sum by 2.5
    params = net.init_params([43, 8, 3], 0)
    with pytest.raises(ValueError, match="episodes must be an integer >= 1"):
        validate(params, EnvConfig(), episodes, 1)


def test_validate_is_seed_deterministic():
    params = net.init_params([43, 8, 3], 1)
    a = validate(params, EnvConfig(), episodes=4, seed=77)
    b = validate(params, EnvConfig(), episodes=4, seed=77)
    assert a == b


def test_timeout_transitions_stored_bootstrappable():
    config = EnvConfig(occupancy_prob=0.0, max_episode_steps=3)
    hp = DqnHyperparams(
        train_steps=9,
        learn_start=1_000,
        hidden_layers=(4,),
        fast_validation_period=1_000,
        deep_validation_period=2_000,
    )
    trainer = DqnTrainer(config, hp, seed=1)
    for _ in range(9):
        trainer.train_step()
    buf = trainer.buffer
    assert len(buf) == 9
    # every third step ends an episode by timeout yet must bootstrap
    assert not buf.terminals[:9].any()
    assert (buf.rewards[:9] == 1.0).all()


def test_collision_transitions_stored_terminal():
    hp = DqnHyperparams(
        train_steps=400,
        learn_start=10_000,
        hidden_layers=(4,),
        epsilon_decay_steps=10,
        epsilon_start=1.0,
        epsilon_end=1.0,  # fully random: collisions guaranteed
        fast_validation_period=10_000,
        deep_validation_period=20_000,
    )
    trainer = DqnTrainer(EnvConfig(), hp, seed=3)
    for _ in range(400):
        trainer.train_step()
    buf = trainer.buffer
    terminal = buf.terminals[: len(buf)]
    assert terminal.any()
    assert (buf.rewards[: len(buf)][terminal] == -1.0).all()


@pytest.mark.parametrize("seed", [0, 2**40 + 9])
@pytest.mark.parametrize(
    "world",
    [{}, {"lanes": 3}, {"max_episode_steps": 3}],
    ids=["default", "three-lanes", "three-step-episodes"],
)
def test_rollout_matches_reference_loop(world, seed):
    # no learning, so the stored transitions and the step ledger show the
    # episode stream, the epsilon draws and the terminal flags alone
    config = EnvConfig(**world)
    hp = DqnHyperparams(
        hidden_layers=(8,),
        epsilon_start=0.5,
        epsilon_end=0.1,
        epsilon_decay_steps=300,
        learn_start=10_000,
        fast_validation_period=10_000,
        deep_validation_period=20_000,
    )
    trainer = DqnTrainer(config, hp, seed)
    for _ in range(600):
        trainer.train_step()
    stored, want_metrics = naive_dqn_rollout(config, hp, seed, 600)
    buf = trainer.buffer
    assert len(buf) == len(stored)  # the ring never wrapped, so row i is push i
    for i, (state, action, reward, next_state, terminal) in enumerate(stored):
        assert np.array_equal(buf.states[i], state)
        assert np.array_equal(buf.next_states[i], next_state)
        assert (buf.actions[i], buf.rewards[i], buf.terminals[i]) == (action, reward, terminal)
    assert metrics_equal(trainer.metrics, want_metrics)


def test_evaluate_counts_steps():
    params = net.init_params([43, 8, 3], 2)
    config = EnvConfig()
    run = evaluate(greedy_policy(params, config), config, steps=300, seed=5)
    assert len(run.steps) == 300
    assert run.passed + run.collided > 0


@pytest.mark.parametrize(
    "dims,message",
    [
        ([10, 4, 3], "input size 10"),  # a 10-input net on the default 8x5 world
        ([43, 4, 2], "2 outputs"),  # a net that can never steer right
    ],
    ids=["mlp-width", "mlp-outputs"],
)
def test_greedy_policy_refuses_a_net_its_world_cannot_feed(dims, message):
    # both once played without a word when called from the library
    params = net.init_params(dims, 0)
    with pytest.raises(net.ShapeError, match=message):
        greedy_policy(params, EnvConfig())
    with pytest.raises(net.ShapeError, match=message):
        validate(params, EnvConfig(), episodes=1, seed=0)


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        DqnHyperparams(epsilon_end=0.5, epsilon_start=0.1)
    with pytest.raises(ValueError):
        DqnHyperparams(batch_size=0)
    with pytest.raises(ValueError):
        DqnHyperparams(hidden_layers=())
    # counts must be integers: a sync period of 100.5 once synced only at steps
    # 201 and 402, and 2.5 train steps once ran 3; a list of hidden sizes once
    # went into config.txt as `hidden_layers=[16, 16]`, which --config cannot read
    for name, value in [("target_sync_period", 100.5), ("train_steps", 2.5),
                        ("fast_validation_episodes", 2.5), ("batch_size", True),
                        ("hidden_layers", [16, 16]), ("hidden_layers", (16, 0)),
                        ("hidden_layers", (16.0,)), ("gamma", 1.0), ("gamma", -0.1)]:
        with pytest.raises(ValueError, match=name):
            DqnHyperparams(**{name: value})
    numpy_counts = DqnHyperparams(batch_size=np.int64(8), hidden_layers=(np.int64(4),))
    assert numpy_counts.batch_size == 8 and numpy_counts.hidden_layers == (4,)


def test_learn_start_past_replay_capacity_is_refused():
    # the buffer length saturates at replay_capacity, so this run could never learn
    with pytest.raises(ValueError, match="learn_start 200 .*replay_capacity 100"):
        DqnHyperparams(learn_start=200, replay_capacity=100)
    assert DqnHyperparams(learn_start=100, replay_capacity=100).learn_start == 100


def test_train_dqn_that_could_never_learn_is_refused():
    # the first gradient step comes at step learn_start (200 here), so a
    # 199-step run would save an untrained net as both of its models
    with pytest.raises(ValueError, match="train_steps 199 .*learn_start 200"):
        train_dqn(SMALL_CFG, replace(SMALL_HP, train_steps=199), seed=1)
    _, _, metrics = train_dqn(SMALL_CFG, replace(SMALL_HP, train_steps=200), seed=1)
    assert _best_row(metrics)[0] == 200
    trainer = DqnTrainer(SMALL_CFG, replace(SMALL_HP, train_steps=200), seed=1)
    trainer.run()
    assert trainer.opt.step_count == 1


def test_trainer_run_that_could_never_learn_is_refused_before_a_step():
    # run() once returned a "best" checkpoint of a net that took no gradient step
    trainer = DqnTrainer(SMALL_CFG, replace(SMALL_HP, train_steps=199), seed=1)
    with pytest.raises(ValueError, match="train_steps 199 .*learn_start 200"):
        trainer.run()
    assert trainer.step_index == 0 and trainer.best is None and trainer.metrics.steps == []
    trainer.train_step()  # stepping by hand, to watch rollouts without learning, still works
    assert trainer.step_index == 1 and trainer.opt.step_count == 0


@pytest.mark.parametrize(
    "duplicate",
    [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["deepcopy", "pickle"],
)
def test_copied_trainer_continues_bit_identically(duplicate):
    # copied past learn_start; both runs then cross a target sync and a validation
    hp = replace(SMALL_HP, learn_start=50, target_sync_period=100, fast_validation_period=100,
                 deep_validation_period=10_000, replay_capacity=500)
    trainer = DqnTrainer(SMALL_CFG, hp, seed=17)
    for _ in range(120):
        trainer.train_step()
    twin = duplicate(trainer)
    for run in (trainer, twin):
        for _ in range(250):
            run.train_step()
    assert twin.step_index == trainer.step_index == 370
    for name in ("online", "target"):
        assert getattr(twin, name).theta.tobytes() == getattr(trainer, name).theta.tobytes()
    for name in ("m", "v"):
        assert getattr(twin.opt, name).tobytes() == getattr(trainer.opt, name).tobytes()
    assert twin.opt.step_count == trainer.opt.step_count
    assert twin.best.theta.tobytes() == trainer.best.theta.tobytes()
    assert _best_row(twin.metrics) == _best_row(trainer.metrics)
    assert len(trainer.metrics.validations) == 3
    assert metrics_equal(twin.metrics, trainer.metrics)
