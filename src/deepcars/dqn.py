"""DQN and Double-DQN training: epsilon-greedy rollouts, experience replay,
periodic target-network sync, and two-cadence real-time validation with
best-model checkpointing."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import net
from .env import (
    ACTIONS, DeepCarsEnv, EnvConfig, EnvState, Episodes, check_count, check_integer_fields,
    roll_seed,
)
from .metrics import RunMetrics
from .net import MlpParams, NumericError
from .replay import Batch, ReplayBuffer

# validation episodes draw from a stream disjoint from training seeds
VALIDATION_SEED_XOR = 0x9E3779B97F4A7C15


def lane_bit_width(lanes: int) -> int:
    """Bits needed for a big-endian binary lane id: ceil(log2(lanes))."""
    return (lanes - 1).bit_length()


@lru_cache(maxsize=None)
def _lane_bits(lanes: int) -> tuple[bytes, ...]:
    """Per lane, its big-endian binary id as one 0/1 byte per bit."""
    width = lane_bit_width(lanes)
    return tuple(bytes(map(int, format(lane, f"0{width}b"))) for lane in range(lanes))


def dqn_state_size(config: EnvConfig) -> int:
    return config.rows * config.lanes + lane_bit_width(config.lanes)


def encode_dqn(state: DeepCarsEnv | EnvState) -> np.ndarray:
    """Row-major flattened grid followed by the big-endian binary ego lane id, read
    from the `cells`, `lanes` and `ego_lane` of a live env or a snapshot."""
    cells = state.cells
    bits = _lane_bits(state.lanes)[state.ego_lane]
    return np.frombuffer(cells + bits, np.uint8).astype(np.float64)


@dataclass(frozen=True)
class DqnHyperparams:
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 50_000
    batch_size: int = 32
    replay_capacity: int = 50_000
    target_sync_period: int = 1_000
    train_steps: int = 500_000
    learn_start: int = 1_000
    double_q: bool = False
    hidden_layers: tuple = (16, 16)
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    fast_validation_period: int = 2_000
    fast_validation_episodes: int = 20
    deep_validation_period: int = 20_000
    deep_validation_episodes: int = 100

    def __post_init__(self):
        check_integer_fields(self, least=1, train_steps=0)
        if not self.hidden_layers:
            raise ValueError("hidden_layers must not be empty")
        if self.learn_start > self.replay_capacity:  # the buffer never fills past capacity
            raise ValueError(f"learn_start {self.learn_start} exceeds replay_capacity "
                             f"{self.replay_capacity}: training would never learn")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")


def epsilon_at(hp: DqnHyperparams, step_index: int) -> float:
    """Linear schedule over step indices starting at 0."""
    if step_index >= hp.epsilon_decay_steps:
        return hp.epsilon_end
    frac = step_index / hp.epsilon_decay_steps
    return hp.epsilon_start + (hp.epsilon_end - hp.epsilon_start) * frac


def td_targets(
    batch: Batch,
    online: MlpParams,
    target: MlpParams,
    gamma: float,
    double_q: bool,
) -> np.ndarray:
    """Per-sample scalar targets: y = r for terminals, else the bootstrapped value.

    Standard DQN evaluates the target net's own best action; Double DQN picks
    the action with the online net and evaluates it with the target net
    (argmax ties resolve to the lowest action code in both cases).
    """
    q_target = net.forward(target, batch.next_states)
    if not np.isfinite(q_target).all():
        raise NumericError("target network produced non-finite Q-values")
    if double_q:
        q_online = net.forward(online, batch.next_states)
        if not np.isfinite(q_online).all():
            raise NumericError("online network produced non-finite Q-values")
        chosen = q_online.argmax(axis=1)
    else:
        chosen = q_target.argmax(axis=1)
    bootstrap = q_target[np.arange(len(chosen)), chosen]
    return np.where(batch.terminals, batch.rewards, batch.rewards + gamma * bootstrap)


def greedy_action(params: MlpParams, state_vec: np.ndarray) -> int:
    return int(net.forward(params, state_vec).argmax())


def greedy_policy(params: MlpParams, config: EnvConfig):
    """The greedy `(act, encode)` pair of an MLP agent on the world `config`; a net
    whose input is not `encode_dqn`'s width there, or not one output per action, is refused."""
    inputs, *_, outputs = params.layer_dims
    expected = dqn_state_size(config)
    if inputs != expected:
        raise net.ShapeError(f"model expects input size {inputs}, "
                             f"environment produces {expected}; adjust --lanes/--rows")
    if outputs != len(ACTIONS):
        raise net.ShapeError(f"model has {outputs} outputs, one per action needs {len(ACTIONS)}")
    return lambda vec: greedy_action(params, vec), encode_dqn


def validate(params: MlpParams, config: EnvConfig, episodes: int, seed: int) -> RunMetrics:
    """Greedy rollouts of `episodes` episodes, tallied; parameters untouched."""
    check_count("episodes", episodes)
    act, encode = greedy_policy(params, config)
    stream = Episodes(config, encode, seed)
    run = RunMetrics()
    while run.episode < episodes:
        run.tally(stream.step(act)[2])
    return run


class DqnTrainer:
    """Owns one training run; `train_step()` advances it by one environment step."""

    def __init__(self, config: EnvConfig, hp: DqnHyperparams, seed: int):
        self.config = config
        self.hp = hp
        state_dim = dqn_state_size(config)
        dims = [state_dim, *hp.hidden_layers, len(ACTIONS)]

        seq = np.random.SeedSequence(seed).spawn(4)
        init_seed = roll_seed(np.random.default_rng(seq[0]))
        self.action_rng = np.random.default_rng(seq[1])
        self.episodes = Episodes(config, encode_dqn, seq[2])
        self.replay_rng = np.random.default_rng(seq[3])
        self._val_master = seed ^ VALIDATION_SEED_XOR

        self.online = net.init_params(dims, init_seed)
        self.target = net.clone(self.online)
        self.opt = net.make_optimizer(self.online, hp.optimizer, hp.learning_rate)
        self.buffer = ReplayBuffer(hp.replay_capacity, state_dim, np.uint8)  # states are 0/1
        self.metrics = RunMetrics()
        self.best: MlpParams | None = None  # a copy of `online` at its best validation
        self.step_index = 0

    # -- one full Algorithm-style iteration ---------------------------------

    def train_step(self) -> None:
        hp = self.hp
        t = self.step_index + 1
        s, a, out, s_next = self.episodes.step(self._act)
        # timeouts bootstrap: they end the episode but are not true terminals
        self.buffer.push(s, a, out.reward, s_next, out.cars_collided_this_step > 0)
        self.metrics.record(t, out, epsilon_at(hp, self.step_index))

        if len(self.buffer) >= hp.learn_start:
            self._gradient_step()

        if t % hp.target_sync_period == 0:
            net.clone_into(self.online, self.target)

        if t % hp.deep_validation_period == 0:
            self._validation_phase(t, hp.deep_validation_episodes)
        elif t % hp.fast_validation_period == 0:
            self._validation_phase(t, hp.fast_validation_episodes)

        self.step_index = t

    def _act(self, vec: np.ndarray) -> int:
        # epsilon-greedy; the action generator draws on every step
        if self.action_rng.random() < epsilon_at(self.hp, self.step_index):
            return int(self.action_rng.integers(0, len(ACTIONS)))
        return greedy_action(self.online, vec)

    def _gradient_step(self) -> None:
        hp = self.hp
        batch = self.buffer.sample(hp.batch_size, self.replay_rng)
        y = td_targets(batch, self.online, self.target, hp.gamma, hp.double_q)
        q = net.forward(self.online, batch.states)
        rows = np.arange(len(y))
        # squared TD error, averaged over the batch, on the taken actions only
        dout = np.zeros_like(q)
        dout[rows, batch.actions] = 2.0 * (q[rows, batch.actions] - y) / len(y)
        grad = net.backward(self.online, batch.states, dout)
        net.gradient_step(self.online, grad, self.opt)

    def _validation_phase(self, step: int, episodes: int) -> None:
        seed = roll_seed(np.random.default_rng(np.random.SeedSequence([self._val_master, step])))
        run = validate(self.online, self.config, episodes, seed)
        mean_reward = sum(run.episode_rewards) / episodes
        # the first row is a new best, a later one only if strictly above every earlier row
        is_best = all(mean_reward > row[1] for row in self.metrics.validations)
        if is_best:
            self.best = net.clone(self.online)
        self.metrics.validations.append((step, mean_reward, run.accuracy(), is_best))

    def run(self) -> tuple[MlpParams, MlpParams, RunMetrics]:
        """Train to `train_steps`; returns (best params, final params, metrics). The best
        net's step and mean reward are the last `is_new_best` row of `metrics.validations`."""
        hp = self.hp
        if hp.train_steps < hp.learn_start:  # the first gradient step comes at step learn_start
            raise ValueError(f"train_steps {hp.train_steps} is below learn_start {hp.learn_start}: "
                             "training would never learn")
        while self.step_index < hp.train_steps:
            self.train_step()
        if self.best is None:  # a short run that never hit a validation period still gets one
            self._validation_phase(self.step_index, hp.fast_validation_episodes)
        return self.best, self.online, self.metrics


def train_dqn(
    config: EnvConfig, hp: DqnHyperparams, seed: int
) -> tuple[MlpParams, MlpParams, RunMetrics]:
    """Full training loop; returns (best params, final params, metrics), as `DqnTrainer.run`."""
    return DqnTrainer(config, hp, seed).run()
