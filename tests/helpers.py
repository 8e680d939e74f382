"""Independent oracles used across the test suite.

Everything here deliberately re-derives behavior from first principles
(explicit loops, pure-python arithmetic, exhaustive reachability search) so
the library code under test never checks itself.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from deepcars import net
from deepcars.env import EnvConfig, EnvState


# ---------------------------------------------------------------------------
# environment oracles


def parse_ascii(text: str):
    """Inverse of render_ascii: returns (grid uint8, ego_lane)."""
    lines = text.splitlines()
    rows = len(lines)
    lanes = len(lines[0])
    grid = np.zeros((rows, lanes), dtype=np.uint8)
    ego_lane = None
    for r, line in enumerate(lines):
        assert len(line) == lanes
        for l, ch in enumerate(line):
            if ch == "#":
                grid[r, l] = 1
            elif ch == "E":
                ego_lane = l
            elif ch == "X":
                grid[r, l] = 1
                ego_lane = l
            else:
                assert ch == "."
    assert ego_lane is not None
    return grid, ego_lane


def state_from_ascii(text: str, step_count=0, passed=0, collided=0) -> EnvState:
    grid, ego = parse_ascii(text)
    return EnvState(
        grid=grid,
        ego_lane=ego,
        step_count=step_count,
        passed_count=passed,
        collided_count=collided,
    )


def naive_step(grid, ego_lane, action):
    """Brute-force one-step simulation (no spawn): every car advance enumerated.

    Returns (new_grid, new_ego, passed, collided).
    """
    rows, lanes = grid.shape
    new_ego = min(max(ego_lane + (int(action) - 1), 0), lanes - 1)
    new_grid = np.zeros_like(grid)
    passed = 0
    collided = 0
    for r in range(rows):
        for l in range(lanes):
            if grid[r, l]:
                if r + 1 >= rows:
                    if l == new_ego:
                        collided += 1
                    else:
                        passed += 1
                else:
                    new_grid[r + 1, l] = 1
    if new_grid[rows - 1, new_ego]:
        collided += 1
    return new_grid, new_ego, passed, collided


def naive_spawn_row(rng, config: EnvConfig, anchor_lane: int):
    """Array-scan reference for env.spawn_row: same single draw, same repair.

    Returns (row uint8, new_anchor); the repaired lane and the new anchor are
    the nearest candidates to the old anchor, ties toward the lower index.
    """
    row = (rng.random(config.lanes) < config.occupancy_prob).astype(np.uint8)
    reach = config.spawn_interval - 1
    free = np.flatnonzero(row == 0)
    if free.size == 0 or int(np.abs(free - anchor_lane).min()) > reach:
        occupied = np.flatnonzero(row == 1)
        row[occupied[np.argmin(np.abs(occupied - anchor_lane))]] = 0
        free = np.flatnonzero(row == 0)
    new_anchor = int(free[np.argmin(np.abs(free - anchor_lane))])
    return row, new_anchor


def naive_tabular_distances(grid):
    """Per-lane scan for the nearest car at or ahead of the ego row."""
    rows, lanes = grid.shape
    dists = []
    for l in range(lanes):
        d = rows
        for r in range(rows):
            if grid[r, l]:
                d = min(d, rows - 1 - r)
        dists.append(d)
    return dists


def decode_dqn(vec, config: EnvConfig):
    """Inverse of encode_dqn: returns (grid uint8, ego_lane)."""
    size = config.rows * config.lanes
    grid = np.asarray(vec[:size]).reshape(config.rows, config.lanes).astype(np.uint8)
    lane = 0
    for b in vec[size:]:
        lane = lane * 2 + int(b)
    return grid, lane


# ---------------------------------------------------------------------------
# full-lookahead driving oracle


def safe_lane_sets(grid, ego_lane):
    """Reachable collision-free lane sets k steps ahead against the visible grid.

    At future step k the post-move lane must dodge cars entering the ego row
    (currently at row rows-1-k) and cars leaving it (currently at row rows-k).
    Returns the list [R_1, ..., R_{rows-1}]; an empty set means no visible
    escape from that point on.
    """
    rows, lanes = grid.shape
    reach = {ego_lane}
    sets = []
    for k in range(1, rows):
        forbidden = set(np.flatnonzero(grid[rows - 1 - k]))
        forbidden |= set(np.flatnonzero(grid[rows - k]))
        reach = {
            l
            for l in range(lanes)
            if l not in forbidden
            and (l in reach or l - 1 in reach or l + 1 in reach)
        }
        sets.append(reach)
    return sets


def safe_actions(grid, ego_lane):
    """First actions that keep the whole visible horizon survivable (BFS check)."""
    rows, lanes = grid.shape
    good = []
    for action in (0, 1, 2):
        lane = min(max(ego_lane + action - 1, 0), lanes - 1)
        forbidden = set(np.flatnonzero(grid[rows - 2])) | set(
            np.flatnonzero(grid[rows - 1])
        )
        if lane in forbidden:
            continue
        sets = safe_lane_sets_from(grid, lane)
        if all(s for s in sets):
            good.append(action)
    return good


def safe_lane_sets_from(grid, lane_after_one_step):
    """Same DP as safe_lane_sets but starting one step into the future."""
    rows, lanes = grid.shape
    reach = {lane_after_one_step}
    sets = []
    for k in range(2, rows):
        forbidden = set(np.flatnonzero(grid[rows - 1 - k]))
        forbidden |= set(np.flatnonzero(grid[rows - k]))
        reach = {
            l
            for l in range(lanes)
            if l not in forbidden
            and (l in reach or l - 1 in reach or l + 1 in reach)
        }
        sets.append(reach)
    return sets


class CorridorAgent:
    """Plans against the visible grid: it reconstructs, per spawned row, the
    free lane nearest the previous one (ties low) - the corridor the spawner
    guarantees - and schedules itself to sit there when the row reaches the
    ego, holding one step after each arrival while the old row clears."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self.reset()

    def reset(self):
        self.corridor = self.config.lanes // 2
        self.pending = deque()  # (arrival_step, target_lane)
        self.last_arrival = None

    def observe_spawn(self, row, step_count):
        free = [l for l in range(self.config.lanes) if row[l] == 0]
        self.corridor = min(free, key=lambda l: (abs(l - self.corridor), l))
        self.pending.append((step_count + self.config.rows - 1, self.corridor))

    def act(self, step_count, ego_lane) -> int:
        next_step = step_count + 1
        while self.pending and self.pending[0][0] < next_step:
            self.pending.popleft()
        if self.last_arrival == step_count:
            return 1  # hold while the dodged row leaves the ego row
        if not self.pending:
            return 1
        arrival, target = self.pending[0]
        if next_step == arrival:
            self.last_arrival = arrival
            self.pending.popleft()
        if target > ego_lane:
            return 2
        if target < ego_lane:
            return 0
        return 1


def run_lookahead(config: EnvConfig, seed: int, steps: int):
    """Drive the corridor agent; returns (collisions, steps_run, safe_violations)."""
    from deepcars.env import DeepCarsEnv

    env = DeepCarsEnv(config)
    agent = CorridorAgent(config)
    state = env.reset(seed)
    agent.reset()
    collisions = 0
    violations = 0
    for _ in range(steps):
        action = agent.act(state.step_count, state.ego_lane)
        if action not in safe_actions(state.grid, state.ego_lane):
            violations += 1
        out = env.step(action)
        if out.reward < 0:
            collisions += 1
        state = out.next_state
        if state.step_count % config.spawn_interval == 0:
            agent.observe_spawn(state.grid[0], state.step_count)
        if out.terminal:
            state = env.reset(seed + 1 + state.step_count)
            agent.reset()
    return collisions, steps, violations


# ---------------------------------------------------------------------------
# greedy rollout oracles: the per-loop bodies the library once kept in four
# places, written out step by step around a policy `act(state)`


def naive_evaluate(act, config: EnvConfig, steps: int, seed: int):
    """Reference for env.evaluate; returns (step rows, passed, collided)."""
    from deepcars.env import DeepCarsEnv

    rng = np.random.default_rng(seed)
    env = DeepCarsEnv(config)
    state = env.reset(int(rng.integers(0, 2**63)))
    rows = []
    passed = 0
    collided = 0
    episode = 0
    for t in range(1, steps + 1):
        out = env.step(act(state))
        rows.append((t, episode, out.reward, 0.0))
        passed += out.cars_passed_this_step
        if out.terminal:
            if out.reward < 0:
                collided += out.next_state.collided_count
            episode += 1
            state = env.reset(int(rng.integers(0, 2**63)))
        else:
            state = out.next_state
    return rows, passed, collided


def naive_validate(act, config: EnvConfig, episodes: int, seed: int):
    """Reference for dqn.validate; returns (mean reward, accuracy %, passed, collided)."""
    from deepcars.env import DeepCarsEnv

    rng = np.random.default_rng(seed)
    env = DeepCarsEnv(config)
    total_reward = 0.0
    passed = 0
    collided = 0
    for _ in range(episodes):
        state = env.reset(int(rng.integers(0, 2**63)))
        while True:
            out = env.step(act(state))
            total_reward += out.reward
            passed += out.cars_passed_this_step
            if out.terminal:
                collided += out.next_state.collided_count
                break
            state = out.next_state
    resolved = passed + collided
    acc = 100.0 * passed / resolved if resolved else None
    return total_reward / episodes, acc, passed, collided


# ---------------------------------------------------------------------------
# training-loop oracles: each trainer's episode stream written out with its
# own env, its own episode generator and its own step ledger


def naive_ledger(booked):
    """Reference for RunMetrics.record over one run's (outcome, epsilon) per step."""
    from deepcars.metrics import RunMetrics

    metrics = RunMetrics()
    episode_reward = 0.0
    window = []
    for t, (out, eps) in enumerate(booked, start=1):
        metrics.steps.append((t, metrics.episode, out.reward, eps))
        metrics.passed += out.cars_passed_this_step
        episode_reward += out.reward
        if out.terminal:
            if out.reward < 0:
                metrics.collided += out.next_state.collided_count
            window.append(episode_reward)
            episode_reward = 0.0
            if len(window) == 100:
                metrics.windows.append((metrics.episode // 100, float(np.mean(window))))
                window = []
            metrics.episode += 1
    return metrics


def naive_train_tabular(config: EnvConfig, hp, seed: int):
    """Reference for tabular.train_tabular; returns (q-table, metrics)."""
    from deepcars.encoders import encode_tabular
    from deepcars.env import DeepCarsEnv
    from deepcars.tabular import QTable, q_update, select_action

    seq = np.random.SeedSequence(seed).spawn(2)
    action_rng = np.random.default_rng(seq[0])
    episode_rng = np.random.default_rng(seq[1])
    table = QTable()
    env = DeepCarsEnv(config)
    s = encode_tabular(env.reset(int(episode_rng.integers(0, 2**63))))
    booked = []
    for _ in range(hp.train_steps):
        a = select_action(table, s, hp.epsilon, action_rng)
        out = env.step(a)
        s_next = encode_tabular(out.next_state)
        collision = out.terminal and out.reward < 0
        q_update(table, s, a, out.reward, s_next, collision, hp)
        booked.append((out, hp.epsilon))
        if out.terminal:
            s = encode_tabular(env.reset(int(episode_rng.integers(0, 2**63))))
        else:
            s = s_next
    return table, naive_ledger(booked)


def naive_dqn_rollout(config: EnvConfig, hp, seed: int, steps: int):
    """Reference for `steps` DqnTrainer.train_step calls that never learn
    (learn_start > steps): returns (stored transitions, metrics)."""
    from deepcars.dqn import epsilon_at
    from deepcars.encoders import dqn_state_size, encode_dqn
    from deepcars.env import DeepCarsEnv

    seq = np.random.SeedSequence(seed).spawn(4)
    dims = [dqn_state_size(config), *hp.hidden_layers, 3]
    params = net.init_params(dims, int(np.random.default_rng(seq[0]).integers(0, 2**63)))
    action_rng = np.random.default_rng(seq[1])
    episode_rng = np.random.default_rng(seq[2])
    env = DeepCarsEnv(config)
    vec = encode_dqn(env.reset(int(episode_rng.integers(0, 2**63))))
    stored = []
    booked = []
    for i in range(steps):
        eps = epsilon_at(hp, i)
        if action_rng.random() < eps:
            a = int(action_rng.integers(0, 3))
        else:
            a = int(net.forward(params, vec).argmax())
        out = env.step(a)
        next_vec = encode_dqn(out.next_state)
        stored.append((vec, a, out.reward, next_vec, out.terminal and out.reward < 0))
        booked.append((out, eps))
        if out.terminal:
            vec = encode_dqn(env.reset(int(episode_rng.integers(0, 2**63))))
        else:
            vec = next_vec
    return stored, naive_ledger(booked)


# ---------------------------------------------------------------------------
# network oracles


def naive_forward(weights, biases, x):
    """Hand-rolled dense forward pass over python lists; relu hidden, linear out."""
    a = [float(v) for v in x]
    n_layers = len(weights)
    for k in range(n_layers):
        w, b = weights[k], biases[k]
        out = []
        for j in range(len(b)):
            s = float(b[j])
            for i, v in enumerate(a):
                s += float(w[j][i]) * v
            if k < n_layers - 1 and s < 0.0:
                s = 0.0
            out.append(s)
        a = out
    return np.array(a)


def layer_offsets(dims):
    """(weight_start, bias_start, end) of each layer in a flat parameter vector
    holding, layer by layer, a row-major (out x in) weight block, then its bias."""
    offsets = []
    pos = 0
    for k in range(len(dims) - 1):
        n_in, n_out = int(dims[k]), int(dims[k + 1])
        offsets.append((pos, pos + n_out * n_in, pos + n_out * n_in + n_out))
        pos += n_out * n_in + n_out
    return offsets


def naive_init_params(dims, seed):
    """Flat parameters as init_params must draw them: per layer, the row-major
    weights from one uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) draw, then zeros."""
    rng = np.random.default_rng(seed)
    blocks = []
    for k in range(len(dims) - 1):
        n_in, n_out = dims[k], dims[k + 1]
        scale = 1.0 / math.sqrt(n_in)
        blocks.append(rng.uniform(-scale, scale, n_out * n_in))
        blocks.append(np.zeros(n_out))
    return np.concatenate(blocks)


def finite_diff_grad(params, x, dout, step=1e-5):
    """Central differences of the scalar loss dout . forward(theta, x)."""
    dout = np.asarray(dout, dtype=np.float64)
    theta = params.theta
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        up = float(np.sum(net.forward(params, x) * dout))
        theta[i] = orig - step
        down = float(np.sum(net.forward(params, x) * dout))
        theta[i] = orig
        grad[i] = (up - down) / (2.0 * step)
    return grad


def max_relative_error(analytic, numeric, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def kink_free_input(params, rng, margin=1e-3, tries=200):
    """Sample an input whose pre-activations all clear the relu kink by `margin`."""
    n_in = int(params.layer_dims[0])
    for _ in range(tries):
        x = rng.uniform(-1.0, 1.0, n_in)
        if _min_preactivation(params, x) > margin:
            return x
    raise AssertionError("could not find a kink-free input")


def _min_preactivation(params, x):
    a = np.asarray(x, dtype=np.float64)
    worst = np.inf
    for k in range(params.n_layers):
        z = params.weight(k) @ a + params.bias(k)
        if k < params.n_layers - 1:
            worst = min(worst, float(np.min(np.abs(z))))
            a = np.maximum(z, 0.0)
        else:
            a = z
    return worst


# ---------------------------------------------------------------------------
# metrics


def metrics_equal(a, b) -> bool:
    def rec_eq(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return repr(x) == repr(y)  # exact, nan-tolerant
        return x == y

    def rows_eq(ra, rb):
        return len(ra) == len(rb) and all(
            len(p) == len(q) and all(rec_eq(u, v) for u, v in zip(p, q))
            for p, q in zip(ra, rb)
        )

    return (
        rows_eq(a.steps, b.steps)
        and rows_eq(a.windows, b.windows)
        and rows_eq(a.validations, b.validations)
        and a.passed == b.passed
        and a.collided == b.collided
    )
