import copy
import dataclasses
import pickle

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deepcars import dqn, kernels, net, tabular
from deepcars.dqn import dqn_state_size, encode_dqn
from deepcars.env import (
    ACTIONS,
    CHUNK,
    TAPE_ROWS,
    Action,
    ConfigError,
    DeepCarsEnv,
    EnvConfig,
    EnvState,
    Episodes,
    TerminalStateError,
    evaluate,
    render_ascii,
    spawn_row,
)
from deepcars.tabular import encode_tabular

from helpers import (
    ACTION_CODES,
    NON_ACTIONS,
    decode_dqn,
    naive_evaluate,
    naive_spawn_row,
    naive_step,
    naive_tabular_distances,
    naive_validate,
    parse_ascii,
    run_lookahead,
    safe_actions,
    state_from_ascii,
)


def test_reset_defaults():
    # reset starts an episode and returns nothing; env.state is the snapshot:
    # an empty grid, the ego in the middle lane and step count zero, so the
    # first step resolves no car
    rng = np.random.default_rng(3)
    for lanes, middle in ((2, 1), (3, 1), (5, 2)):
        env = DeepCarsEnv(EnvConfig(lanes=lanes, rows=8, occupancy_prob=0.9))
        while not env.terminal and env.state.step_count < 12:
            env.step(int(rng.integers(0, 3)))
        assert env.state.grid.any()
        assert env.reset(42) is None
        state = env.state
        assert state.ego_lane == middle
        assert state.grid.shape == (8, lanes)
        assert state.grid.sum() == 0
        assert state.step_count == 0
        out = env.step(Action.STAY)
        assert (out.cars_passed_this_step, out.cars_collided_this_step) == (0, 0)


def test_reset_three_lanes_starts_middle():
    env = DeepCarsEnv(EnvConfig(lanes=3, rows=8))
    env.reset(0)
    assert env.state.ego_lane == 1


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(lanes=1), "lanes"),
        (dict(rows=1), "rows"),
        (dict(spawn_interval=0), "spawn_interval"),
        (dict(occupancy_prob=1.0), "occupancy_prob"),
        (dict(occupancy_prob=-0.1), "occupancy_prob"),
        (dict(max_episode_steps=0), "max_episode_steps"),
        (dict(seed=-1), "seed"),
        # counts must be integers: 10.5 once played 11-step episodes, and True
        # once went into config.txt as `seed=True`, which --config cannot read
        (dict(max_episode_steps=10.5), "max_episode_steps"),
        (dict(seed=True), "seed"),
        (dict(lanes=np.float64(3.0)), "lanes"),
        (dict(seed=2**64), "seed must be an unsigned 64-bit integer"),
    ],
)
def test_config_bounds_rejected(kwargs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        EnvConfig(**kwargs)


@pytest.mark.parametrize("cell", [2, 0.5, -1, 300])
def test_set_state_refuses_non_binary_cells(cell):
    # 2 would count as two cars, 0.5 would truncate to 0, -1 and 300 overflow uint8
    env = DeepCarsEnv(EnvConfig(lanes=3, rows=3))
    grid = [[0, 0, 0], [0, 0, 0], [cell, 0, 0]]
    with pytest.raises(ConfigError, match="0 or 1"):
        env.set_state(grid=grid)
    assert env.state.grid.sum() == 0


@pytest.mark.parametrize("shape", [(3, 4), (2, 3), (9,)], ids=str)
def test_set_state_refuses_a_grid_of_another_shape(shape):
    env = DeepCarsEnv(EnvConfig(lanes=3, rows=3))
    with pytest.raises(ConfigError, match="grid"):
        env.set_state(grid=np.ones(shape, np.uint8), ego_lane=0)
    assert env.state.grid.sum() == 0 and env.state.ego_lane == 1  # neither half applied


@pytest.mark.parametrize("lane", [1.7, True, "1", np.int64(1)], ids=repr)
def test_set_state_ego_lane_must_be_an_integer(lane):
    # 1.7 and True once became lane 1, and "1" escaped as a bare TypeError
    env = DeepCarsEnv(EnvConfig(lanes=3, rows=3))
    env.set_state(ego_lane=0)
    cars = np.eye(3, dtype=np.uint8)
    if isinstance(lane, np.integer):
        env.set_state(grid=cars, ego_lane=lane)
        assert env.state.ego_lane == 1 and type(env.state.ego_lane) is int
        assert np.array_equal(env.state.grid, cars)
    else:
        with pytest.raises(ConfigError, match="ego_lane must be an integer"):
            env.set_state(grid=cars, ego_lane=lane)
        assert env.state.ego_lane == 0 and env.state.grid.sum() == 0  # neither half applied


def test_grid_is_a_read_only_snapshot():
    env = DeepCarsEnv(EnvConfig(max_episode_steps=1000))
    env.reset(5)
    for _ in range(6):  # two spawns; none reaches the ego row yet
        env.step(Action.STAY)
    before = env.state
    grid = env.grid
    assert grid.dtype == np.uint8 and grid.shape == (8, 5) and grid.sum() > 0
    assert np.array_equal(grid, before.grid)
    with pytest.raises(ValueError):
        grid[0, 0] = 1 - grid[0, 0]
    with pytest.raises(ValueError):
        grid.setflags(write=True)
    after = env.state
    assert np.array_equal(after.grid, before.grid) and after.ego_lane == before.ego_lane
    env.step(Action.STAY)  # no spawn: the traffic moves down one row
    assert not np.array_equal(env.state.grid, before.grid)
    assert np.array_equal(grid, before.grid)  # the grid taken before the step is unchanged


def test_snapshot_is_a_value():
    env = DeepCarsEnv(EnvConfig(max_episode_steps=1000))
    env.reset(5)
    for _ in range(6):
        env.step(Action.STAY)
    state = env.state
    # every route to a snapshot of this world gives the same value, with a read-only grid
    routes = (env.state, EnvState(env.grid, state.ego_lane, state.step_count),
              copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state)))
    for twin in routes:
        assert twin == state and hash(twin) == hash(state)
        assert twin.grid.tobytes() == twin.cells and not twin.grid.flags.writeable
        with pytest.raises(ValueError):
            twin.grid[0, 0] = 1
    with pytest.raises(AttributeError):  # frozen: the constructor is the one way in
        state.cells = bytes(40)
    # a refused snapshot or set_state changes nothing
    with pytest.raises(ConfigError):
        EnvState(np.full((8, 5), 2), 2, 6)
    with pytest.raises(ConfigError):
        env.set_state(grid=np.full((8, 5), 2), ego_lane=0)
    assert env.state == state and all(twin == state for twin in routes)
    # a different world: another ego lane, another step, or the same bytes in another shape
    env.step(Action.STAY)
    assert env.state != state
    assert EnvState(state.grid, 0, 6) != state
    assert EnvState(np.zeros((2, 6)), 0, 0) != EnvState(np.zeros((3, 4)), 0, 0)
    # the snapshot owns its cells: its source array can change under it
    source = np.zeros((8, 5), np.uint8)
    source[3, 1] = 1
    snap = EnvState(source, 2, 0)
    cells, tab, vec = snap.cells, encode_tabular(snap), encode_dqn(snap)
    source[7, 2] = source[0, 0] = 1
    assert snap.cells == cells == bytes(16) + b"\x01" + bytes(23)  # the car at row 3, lane 1
    assert encode_tabular(snap) == tab == (2, 8, 4, 8, 8, 8)
    assert encode_dqn(snap).tobytes() == vec.tobytes()
    assert snap == EnvState(np.frombuffer(cells, np.uint8).reshape(8, 5), 2, 0)
    with pytest.raises(ValueError):
        state.grid.setflags(write=True)


def test_ego_lane_cannot_be_assigned():
    env = DeepCarsEnv(EnvConfig())
    with pytest.raises(AttributeError):
        env.ego_lane = 0
    assert env.ego_lane == env.state.ego_lane == 2
    env.set_state(ego_lane=0)
    assert env.ego_lane == env.state.ego_lane == 0 and type(env.ego_lane) is int


def test_advance_matches_bruteforce_on_random_grids():
    # the grid is a window of a tape: empty rows above it, stale rows below it;
    # advance counts and moves no byte, and the window one row up is the next grid
    rng = np.random.default_rng(17)
    for rows in range(2, 10):
        for lanes in range(2, 9):
            for ego in range(lanes):
                grid = (rng.random((rows, lanes)) < 0.5).astype(np.uint8)
                exp_grid, _, exp_passed, exp_collided = naive_step(grid, ego, Action.STAY)
                above, below = int(rng.integers(1, 4)), int(rng.integers(0, 3))
                stale = (rng.random(below * lanes) < 0.5).astype(np.uint8).tobytes()
                tape = bytearray(bytes(above * lanes) + grid.tobytes() + stale)
                before = bytes(tape)
                top, size = above * lanes, rows * lanes
                passed, collided = kernels.advance(tape, top, size, lanes, ego)
                assert tape == before
                assert tape[top - lanes : top - lanes + size] == exp_grid.tobytes()
                assert (passed, collided) == (exp_passed, exp_collided)


@pytest.mark.parametrize(
    "duplicate",
    [copy.deepcopy, lambda env: pickle.loads(pickle.dumps(env))],
    ids=["deepcopy", "pickle"],
)
def test_copied_env_continues_bit_identically(duplicate):
    # a saved env must resume exactly: grid, ego, step count and spawn stream
    env = DeepCarsEnv(EnvConfig(max_episode_steps=1000))
    env.reset(31)
    rng = np.random.default_rng(4)

    def act(state):
        return int(rng.choice(safe_actions(state.grid, state.ego_lane) or [Action.STAY]))

    for _ in range(20):
        assert not env.step(act(env.state)).terminal
    twin = duplicate(env)
    for k in range(50):
        action = act(env.state)
        a, b = env.step(action), twin.step(action)
        assert vars(a) == vars(b)
        assert env.state == twin.state  # the spawned rows too
        if a.terminal:
            env.reset(k)
            twin.reset(k)


@pytest.mark.parametrize(
    "duplicate",
    [copy.deepcopy, lambda env: pickle.loads(pickle.dumps(env))],
    ids=["deepcopy", "pickle"],
)
def test_copied_env_continues_across_a_chunk_draw_and_a_compaction(duplicate):
    # copied one step before the window reaches the tape's start, with part of a
    # chunk of sampled rows unused; the copy then plays a compaction and at least
    # CHUNK more spawns, so one chunk draw, beside the original
    config = EnvConfig(max_episode_steps=1000)
    env = DeepCarsEnv(config)
    env.reset(31)
    rng = np.random.default_rng(4)

    def act(state):
        return int(rng.choice(safe_actions(state.grid, state.ego_lane) or [Action.STAY]))

    for _ in range(TAPE_ROWS - 1):
        assert not env.step(act(env.state)).terminal
    assert (TAPE_ROWS - 1) // config.spawn_interval % CHUNK  # mid-chunk
    twin = duplicate(env)
    for _ in range(CHUNK * config.spawn_interval + 2):
        action = act(env.state)
        a, b = env.step(action), twin.step(action)
        assert vars(a) == vars(b) and not a.terminal
        assert env.state == twin.state


def test_tape_size_does_not_depend_on_the_step_cap():
    config = EnvConfig(occupancy_prob=0.0, max_episode_steps=10**9)
    tracemalloc.start()
    try:
        env = DeepCarsEnv(config)
        for _ in range(TAPE_ROWS + 10):  # through one compaction
            env.step(Action.STAY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(env._tape) <= (TAPE_ROWS + config.rows) * config.lanes
    assert peak < 256 * 1024


@pytest.mark.parametrize(
    "world, episodes",
    [({"spawn_interval": 1, "occupancy_prob": 0.6}, 2),
     ({"lanes": 8, "rows": 5, "spawn_interval": 2, "occupancy_prob": 0.7}, 2),
     ({"lanes": 3, "rows": 9, "max_episode_steps": 6}, 20),
     ({}, 2)],
    ids=["interval-one", "8-lanes-5-rows", "cap-below-rows", "set-state"],
)
def test_env_matches_the_oracles_over_long_safe_play(world, episodes):
    # the env beside a world stepped by naive_step and naive_spawn_row, which draw
    # one row per spawn from their own generator; safe play keeps episodes longer
    # than TAPE_ROWS, so the window moves back to the tape's end in mid-episode.
    # The last world is overwritten by set_state one step after that move
    config = EnvConfig(**{"max_episode_steps": 2 * TAPE_ROWS + 40, **world})
    rows, lanes = config.rows, config.lanes
    rng = np.random.default_rng(6)
    env = DeepCarsEnv(config)
    longest = 0
    for episode in range(episodes):
        env.reset(episode)
        ref = np.random.default_rng(episode)
        grid = np.zeros((rows, lanes), np.uint8)
        ego = anchor = lanes // 2
        for t in range(1, config.max_episode_steps + 1):
            if not world and t == TAPE_ROWS + 2:
                grid[rows // 2 :] = 0  # clearing cars keeps the corridor
                grid[0, 0] = 1 - grid[0, 0]
                env.set_state(grid=grid.copy(), ego_lane=ego)
            action = int(rng.choice(safe_actions(grid, ego) or [0, 1, 2]))
            out = env.step(action)
            grid, ego, passed, collided = naive_step(grid, ego, action)
            if t % config.spawn_interval == 0:
                row, anchor = naive_spawn_row(ref, config, anchor)
                grid[0] = row
            terminal = collided > 0 or t == config.max_episode_steps
            assert vars(out) == {"reward": -1.0 if collided else 1.0, "terminal": terminal,
                                 "cars_passed_this_step": passed,
                                 "cars_collided_this_step": collided}
            assert env.cells == grid.tobytes() and env.ego_lane == ego
            assert encode_tabular(env) == (ego, *naive_tabular_distances(grid))
            back_grid, back_ego = decode_dqn(encode_dqn(env), config)
            assert np.array_equal(back_grid, grid) and back_ego == ego
            if terminal:
                break
        longest = max(longest, t)
    # an episode reached the cap, or went on past the set_state
    assert longest == config.max_episode_steps or longest > TAPE_ROWS + 2


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    lanes=st.integers(2, 8),
    rows=st.integers(2, 9),
    interval=st.integers(1, 4),
    prob=st.sampled_from([0.2, 0.5, 0.9]),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=50),
)
def test_traffic_never_depends_on_the_ego(seed, lanes, rows, interval, prob, picks):
    # two envs reset with one seed and driven by different actions see the same
    # traffic at every step until either episode ends; one plays its first safe
    # action, the other picks among its safe actions other than that one
    config = EnvConfig(lanes=lanes, rows=rows, spawn_interval=interval, occupancy_prob=prob,
                       max_episode_steps=TAPE_ROWS + 20)
    first, other = DeepCarsEnv(config), DeepCarsEnv(config)
    first.reset(seed)
    other.reset(seed)
    for t in range(config.max_episode_steps):
        played = (safe_actions(first.grid, first.ego_lane) or [Action.STAY])[0]
        a = first.step(played)
        safe = safe_actions(other.grid, other.ego_lane)
        choices = [c for c in safe if c != played] or safe or [0, 1, 2]
        b = other.step(choices[picks[t % len(picks)] % len(choices)])
        assert first.cells == other.cells
        if a.terminal or b.terminal:
            break


def _scripted_env(text, spawn_interval=1000, lanes=None):
    grid, ego = parse_ascii(text)
    config = EnvConfig(
        lanes=lanes or grid.shape[1],
        rows=grid.shape[0],
        spawn_interval=spawn_interval,
        occupancy_prob=0.0,
    )
    env = DeepCarsEnv(config)
    env.reset(0)
    env.set_state(grid=grid, ego_lane=ego)
    return env


def test_step_no_cars_near_ego_is_safe():
    env = _scripted_env("#####\n.....\n.....\n.....\n.....\n.....\n.....\n..E..")
    out = env.step(Action.STAY)
    assert out.reward == 1.0
    assert not out.terminal


def _naive_counts(state, action):
    """(passed, collided) of one step from `state`, by the brute-force reference."""
    return naive_step(state.grid, state.ego_lane, action)[2:]


def test_step_car_entering_ego_cell_collides():
    env = _scripted_env(".....\n.....\n.....\n.....\n.....\n.....\n..#..\n..E..")
    before = env.state
    out = env.step(Action.STAY)
    assert out.reward == -1.0
    assert out.terminal
    assert (out.cars_passed_this_step, out.cars_collided_this_step) == (
        _naive_counts(before, Action.STAY)) == (0, 1)


def test_step_dodge_right_matches_bruteforce():
    text = ".....\n.....\n.....\n.....\n.....\n.....\n..#..\n..E.."
    env = _scripted_env(text)
    grid, ego = parse_ascii(text)
    exp_grid, exp_ego, exp_passed, exp_collided = naive_step(grid, ego, Action.RIGHT)
    out = env.step(Action.RIGHT)
    assert out.reward == 1.0 and not out.terminal
    assert env.state.ego_lane == exp_ego
    assert np.array_equal(env.state.grid, exp_grid)
    assert out.cars_passed_this_step == exp_passed == 0
    assert exp_collided == 0


def test_step_sliding_into_leaving_car_collides():
    # car beside the ego on the ego row; moving onto it is a side collision
    env = _scripted_env(".....\n.....\n.....\n.....\n.....\n.....\n.....\n.#E..")
    before = env.state
    out = env.step(Action.LEFT)
    assert out.reward == -1.0 and out.terminal
    assert (out.cars_passed_this_step, out.cars_collided_this_step) == (
        _naive_counts(before, Action.LEFT)) == (0, 1)


def test_step_passing_car_counts():
    env = _scripted_env(".....\n.....\n.....\n.....\n.....\n.....\n.....\n#.E..")
    before = env.state
    out = env.step(Action.STAY)
    assert out.reward == 1.0
    assert (out.cars_passed_this_step, out.cars_collided_this_step) == (
        _naive_counts(before, Action.STAY)) == (1, 0)


def test_random_one_step_against_bruteforce():
    rng = np.random.default_rng(7)
    config = EnvConfig(lanes=5, rows=8, occupancy_prob=0.0, spawn_interval=1000)
    for _ in range(300):
        grid = (rng.random((8, 5)) < 0.3).astype(np.uint8)
        ego = int(rng.integers(0, 5))
        grid[7, ego] = 0  # live states keep the ego cell clear
        action = int(rng.integers(0, 3))
        env = DeepCarsEnv(config)
        env.reset(0)
        env.set_state(grid=grid.copy(), ego_lane=ego)
        exp_grid, exp_ego, exp_passed, exp_collided = naive_step(grid, ego, action)
        out = env.step(action)
        assert np.array_equal(env.state.grid, exp_grid)
        assert env.state.ego_lane == exp_ego
        assert out.cars_passed_this_step == exp_passed
        assert out.terminal == (exp_collided > 0)
        assert (out.reward == -1.0) == (exp_collided > 0)
        assert out.cars_collided_this_step == exp_collided


def test_clamping_left_at_lane_zero_equals_stay():
    config = EnvConfig()
    base = DeepCarsEnv(config)
    base.reset(123)
    base.set_state(ego_lane=0)
    twin = copy.deepcopy(base)
    for _ in range(30):
        a = base.step(Action.LEFT)
        b = twin.step(Action.STAY)
        assert np.array_equal(base.state.grid, twin.state.grid)
        assert base.state.ego_lane == twin.state.ego_lane == 0
        assert a.reward == b.reward and a.terminal == b.terminal
        if a.terminal:
            break
        base.set_state(ego_lane=0)
        twin.set_state(ego_lane=0)


@pytest.mark.parametrize("lanes", [2, 3, 5, 8])
def test_clamping_right_at_the_last_lane_equals_stay(lanes):
    base = DeepCarsEnv(EnvConfig(lanes=lanes))
    base.reset(123)
    base.set_state(ego_lane=lanes - 1)
    twin = copy.deepcopy(base)
    for _ in range(30):
        a = base.step(Action.RIGHT)
        b = twin.step(Action.STAY)
        assert np.array_equal(base.state.grid, twin.state.grid)
        assert base.state.ego_lane == twin.state.ego_lane == lanes - 1
        assert vars(a) == vars(b)
        if a.terminal:
            break
        base.set_state(ego_lane=lanes - 1)
        twin.set_state(ego_lane=lanes - 1)


def test_step_outcomes_are_shared_values_that_cannot_be_assigned():
    env = DeepCarsEnv(EnvConfig(occupancy_prob=0.0, max_episode_steps=3))
    first, second = env.step(Action.STAY), env.step(Action.STAY)
    assert first is second  # an outcome is shared by every step that ends alike
    for name, value in [("reward", -1.0), ("terminal", True),
                        ("cars_passed_this_step", 1), ("cars_collided_this_step", 1)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first, name, value)
    assert vars(first) == {"reward": 1.0, "terminal": False,
                           "cars_passed_this_step": 0, "cars_collided_this_step": 0}
    assert vars(env.step(Action.STAY))["terminal"]


def test_determinism_same_seed_same_outcomes():
    config = EnvConfig()
    actions = np.random.default_rng(5).integers(0, 3, size=400)
    traces = []
    for _ in range(2):
        env = DeepCarsEnv(config)
        env.reset(99)
        trace = []
        for a in actions:
            out = env.step(int(a))
            trace.append(
                (out.reward, out.terminal, out.cars_passed_this_step,
                 env.state.ego_lane, env.state.grid.tobytes())
            )
            if out.terminal:
                env.reset(99 + len(trace))
        traces.append(trace)
    assert traces[0] == traces[1]


def test_conservation_every_car_resolves_once():
    # every spawned car, counted off the top row right after each spawn step, is
    # on the grid or counted exactly once by the outcomes as passed or collided;
    # the car that crashed into the ego stays visible on the ego cell
    config = EnvConfig(max_episode_steps=150)
    env = DeepCarsEnv(config)
    rng = np.random.default_rng(11)
    for episode in range(12):
        env.reset(1000 + episode)
        spawned = resolved = 0
        while True:
            out = env.step(int(rng.integers(0, 3)))
            resolved += out.cars_passed_this_step + out.cars_collided_this_step
            state = env.state
            top = int(state.grid[0].sum())
            if state.step_count % config.spawn_interval == 0:
                spawned += top
            else:
                assert top == 0  # the old top row moved down and nothing spawned
            on_grid = int(state.grid.sum())
            overlap = int(state.grid[-1, state.ego_lane])
            assert spawned == resolved + on_grid - overlap
            if out.terminal:
                break


def test_timeout_is_terminal_but_not_collision():
    config = EnvConfig(occupancy_prob=0.0, max_episode_steps=5)
    env = DeepCarsEnv(config)
    env.reset(0)
    for _ in range(4):
        out = env.step(Action.STAY)
        assert not out.terminal
    out = env.step(Action.STAY)
    assert out.terminal
    assert out.reward == 1.0
    assert out.cars_collided_this_step == 0


def test_step_after_terminal_raises():
    config = EnvConfig(occupancy_prob=0.0, max_episode_steps=1)
    env = DeepCarsEnv(config)
    env.reset(0)
    env.step(Action.STAY)
    with pytest.raises(TerminalStateError):
        env.step(Action.STAY)


@pytest.mark.parametrize("action", [*NON_ACTIONS, 2.9, -0.5], ids=repr)
def test_step_refuses_an_action_that_is_not_an_integer_of_0_to_2(action):
    # int() once truncated the floats and read "1" and True as STAY, without a word
    env = DeepCarsEnv(EnvConfig(lanes=3))
    env.reset(5)
    before = env.state
    with pytest.raises(ValueError, match="action must be an integer in 0 .. 2"):
        env.step(action)
    assert env.state == before  # same cells, ego lane and step count


def test_action_codes_are_the_commands_in_order():
    assert ACTIONS == tuple(Action) == (0, 1, 2) and type(ACTIONS) is tuple


@pytest.mark.parametrize("action", ACTION_CODES, ids=repr)
def test_step_plays_an_integer_action_of_any_integer_type(action):
    env = DeepCarsEnv(EnvConfig(lanes=3, occupancy_prob=0.0))
    env.reset(5)  # the ego starts in lane 1, so code c moves it to lane c
    env.step(action)
    assert env.state.ego_lane == int(action) and type(env.state.ego_lane) is int


def test_reward_dichotomy_over_random_play():
    env = DeepCarsEnv(EnvConfig())
    rng = np.random.default_rng(3)
    for episode in range(10):
        out = None
        env.reset(episode)
        while out is None or not out.terminal:
            before = env.state
            action = int(rng.integers(0, 3))
            out = env.step(action)
            _, collided = _naive_counts(before, action)
            assert out.reward in (1.0, -1.0)
            assert (out.reward == -1.0) == (collided > 0)
            assert out.cars_collided_this_step == collided


# ---------------------------------------------------------------------------
# spawning


def _flags(rng, config):
    """One row's sampled occupancy flags, drawn as the env draws each row."""
    return (rng.random(config.lanes) < config.occupancy_prob).tolist()


def test_spawn_row_zero_probability_all_free():
    config = EnvConfig(occupancy_prob=0.0)
    row, anchor = spawn_row(_flags(np.random.default_rng(0), config), config, anchor_lane=2)
    assert row == bytes(5)
    assert anchor == 2


def test_spawn_row_repair_clears_anchor_when_all_occupied():
    config = EnvConfig(occupancy_prob=0.999999, spawn_interval=3)

    class AllOnes:
        def random(self, n):
            return np.zeros(n)  # below prob -> every lane occupied

    occupied = _flags(AllOnes(), config)
    row, anchor = spawn_row(occupied, config, anchor_lane=2)
    assert occupied == [True] * config.lanes  # the repair works on its own copy
    assert row[2] == 0
    assert row.count(1) == config.lanes - 1
    assert anchor == 2


def test_spawn_row_always_leaves_reachable_free_lane():
    config = EnvConfig(occupancy_prob=0.8)
    rng = np.random.default_rng(21)
    anchor = config.lanes // 2
    for _ in range(5000):
        row, new_anchor = spawn_row(_flags(rng, config), config, anchor)
        free = np.flatnonzero(np.frombuffer(row, np.uint8) == 0)
        assert free.size >= 1
        assert np.abs(free - anchor).min() <= config.spawn_interval - 1
        assert row[new_anchor] == 0
        assert abs(new_anchor - anchor) <= config.spawn_interval - 1
        anchor = new_anchor


def test_spawn_row_interval_one_keeps_anchor_lane_clear():
    # reach radius 0: the anchor lane itself must stay free in every row
    config = EnvConfig(spawn_interval=1, occupancy_prob=0.7)
    rng = np.random.default_rng(2)
    anchor = 2
    for _ in range(2000):
        row, anchor_next = spawn_row(_flags(rng, config), config, anchor)
        assert row[anchor] == 0
        assert anchor_next == anchor  # nearest free lane is always itself
        anchor = anchor_next


def test_spawn_row_matches_reference_and_draw_count():
    # same row and anchor as the array-scan reference, on rows taken in turn from
    # one chunk draw; the chunk leaves the generator where the reference's 25
    # draws of `lanes` uniforms do, so a spawn consumes exactly one such draw
    for lanes in range(2, 9):
        for interval in range(1, 5):
            for prob in (0.0, 0.4, 0.9, 0.95):
                config = EnvConfig(lanes=lanes, spawn_interval=interval, occupancy_prob=prob)
                for anchor in range(lanes):
                    seed = [lanes, interval, int(prob * 10), anchor]
                    rng = np.random.default_rng(seed)
                    ref = np.random.default_rng(seed)
                    chunk = (rng.random((25, lanes)) < prob).tolist()
                    for occupied in chunk:
                        row, new_anchor = spawn_row(occupied, config, anchor)
                        want_row, want_anchor = naive_spawn_row(ref, config, anchor)
                        assert type(row) is bytes
                        assert np.array_equal(np.frombuffer(row, np.uint8), want_row)
                        assert type(new_anchor) is int and new_anchor == want_anchor
                    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("steps", [2.5, True, 0], ids=repr)
def test_evaluate_refuses_a_step_count_that_is_not_a_positive_integer(steps):
    # True once played one step, and 2.5 failed inside range with a TypeError
    config = EnvConfig(lanes=3)
    policy = tabular.greedy_policy({}, config)
    with pytest.raises(ValueError, match="steps must be an integer >= 1"):
        evaluate(policy, config, steps, seed=0)
    assert len(evaluate(policy, config, np.int64(3), seed=0).steps) == 3


@pytest.mark.parametrize(
    "world",
    [{}, {"occupancy_prob": 0.0}, {"max_episode_steps": 3}],
    ids=["default", "empty-road", "three-step-episodes"],
)
def test_greedy_rollouts_match_reference_loops(world):
    # evaluate and validate against loops written out step by step: the same
    # episode seeds, step rows, episode counter and car counts
    config = EnvConfig(**world)
    table, _ = tabular.train_tabular(config, tabular.TabularHyperparams(train_steps=3_000), 1)
    params = net.init_params([dqn_state_size(config), 8, 3], 4)
    agents = {"tabular": tabular.greedy_policy(table, config),
              "mlp": dqn.greedy_policy(params, config)}
    # the oracles act on raw states
    plays = {
        name: (lambda state, act=act, encode=encode: act(encode(state)))
        for name, (act, encode) in agents.items()
    }
    for seed in (0, 7, 2**40 + 3):
        for name, policy in agents.items():
            run = evaluate(policy, config, 700, seed)
            rows, passed, collided = naive_evaluate(plays[name], config, 700, seed)
            assert run.steps == rows
            assert (run.passed, run.collided) == (passed, collided)
        run = dqn.validate(params, config, 5, seed)
        assert (sum(run.episode_rewards) / 5, run.accuracy(), run.passed, run.collided) == (
            naive_validate(plays["mlp"], config, 5, seed))


def test_episode_stream_starts_an_episode_only_when_stepped_past_a_terminal():
    config = EnvConfig(occupancy_prob=0.0, max_episode_steps=3)
    # states encoded as their step count
    stream = Episodes(config, lambda env: env.state.step_count, np.random.SeedSequence(5))
    one_seed_drawn = np.random.default_rng(np.random.SeedSequence(5))
    one_seed_drawn.integers(0, 2**63)
    steps = [stream.step(lambda s: Action.STAY) for _ in range(3)]
    assert [(s, s_next) for s, _, _, s_next in steps] == [(0, 1), (1, 2), (2, 3)]
    assert steps[-1][2].terminal and stream.state is None
    assert stream.rng.bit_generator.state == one_seed_drawn.bit_generator.state
    s, _, out, _ = stream.step(lambda s: Action.STAY)
    assert s == 0 and not out.terminal and stream.state == 1


def test_lookahead_oracle_survives():
    # quick check; the full 20-seed x 10k-step gate lives in the acceptance suite
    config = EnvConfig(max_episode_steps=2_000)
    collisions, steps, violations = run_lookahead(config, seed=5, steps=2_000)
    assert collisions == 0
    assert violations == 0
    assert steps == 2_000


def test_lookahead_oracle_survives_tight_configs():
    for config in (
        EnvConfig(lanes=2, max_episode_steps=1_500),
        EnvConfig(lanes=3, spawn_interval=2, occupancy_prob=0.6, max_episode_steps=1_500),
        EnvConfig(spawn_interval=1, occupancy_prob=0.5, max_episode_steps=1_500),
    ):
        collisions, _, _ = run_lookahead(config, seed=3, steps=1_500)
        assert collisions == 0


# ---------------------------------------------------------------------------
# rendering


def test_render_empty_grid_three_lanes():
    state = state_from_ascii("...\n...\n.E.")
    assert render_ascii(state).splitlines()[-1] == ".E."


def test_render_car_top_corner():
    state = state_from_ascii("#....\n.....\n..E..")
    assert render_ascii(state).startswith("#")


def test_render_collision_overlap_glyph():
    state = EnvState(np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0]]), ego_lane=1, step_count=0)
    assert render_ascii(state).splitlines()[-1] == ".X."


def test_render_roundtrip_random_states():
    rng = np.random.default_rng(17)
    for _ in range(200):
        rows = int(rng.integers(2, 9))
        lanes = int(rng.integers(2, 7))
        grid = (rng.random((rows, lanes)) < 0.35).astype(np.uint8)
        ego = int(rng.integers(0, lanes))
        state = EnvState(grid=grid, ego_lane=ego, step_count=0)
        back_grid, back_ego = parse_ascii(render_ascii(state))
        assert np.array_equal(back_grid, grid)
        assert back_ego == ego
