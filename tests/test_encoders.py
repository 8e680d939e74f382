import copy

import numpy as np
import pytest

from deepcars.dqn import dqn_state_size, encode_dqn, lane_bit_width
from deepcars.env import CHUNK, ConfigError, DeepCarsEnv, EnvConfig, EnvState, render_ascii
from deepcars import tabular
from deepcars.tabular import encode_tabular

from helpers import (
    decode_dqn,
    naive_spawn_row,
    naive_step,
    naive_tabular_distances,
    state_from_ascii,
)


def _state(grid, ego):
    return EnvState(grid=np.asarray(grid, dtype=np.uint8), ego_lane=ego, step_count=0)


def _env_at(grid, ego):
    env = DeepCarsEnv(EnvConfig(rows=grid.shape[0], lanes=grid.shape[1]))
    env.set_state(grid, ego)
    return env


def test_tabular_reference_configuration():
    # 5-lane, 8-row scene with ego in lane 2: nearest cars at per-lane
    # distances 6, 3, none, 0, none -> vector [2, 6, 3, 8, 0, 8]
    state = state_from_ascii(
        ".....\n"
        "#....\n"
        ".....\n"
        ".....\n"
        ".#...\n"
        ".....\n"
        ".....\n"
        "..E#."
    )
    assert encode_tabular(state) == (2, 6, 3, 8, 0, 8)


def test_tabular_empty_grid_sentinels():
    state = _state(np.zeros((8, 3)), ego=1)
    assert encode_tabular(state) == (1, 8, 8, 8)


def test_tabular_distance_origin_is_ego_row():
    # car on the ego row one lane over reads distance 0; one row ahead reads 1
    beside = state_from_ascii("...\n...\n...\n...\n...\n...\n...\n#E.")
    assert encode_tabular(beside)[1] == 0
    ahead = state_from_ascii("...\n...\n...\n...\n...\n...\n#..\n.E.")
    assert encode_tabular(ahead)[1] == 1


def test_tabular_matches_bruteforce_scan():
    rng = np.random.default_rng(23)
    for _ in range(500):
        rows = int(rng.integers(2, 10))
        lanes = int(rng.integers(2, 8))
        grid = (rng.random((rows, lanes)) < 0.4).astype(np.uint8)
        ego = int(rng.integers(0, lanes))
        got = encode_tabular(_state(grid, ego))
        assert got[0] == ego
        assert list(got[1:]) == naive_tabular_distances(grid)


def test_tabular_consistency_invariant():
    rng = np.random.default_rng(29)
    for _ in range(200):
        grid = (rng.random((8, 5)) < 0.4).astype(np.uint8)
        state = _state(grid, int(rng.integers(0, 5)))
        for lane, d in enumerate(encode_tabular(state)[1:]):
            if d == 8:
                assert grid[:, lane].sum() == 0
            else:
                assert grid[7 - d, lane] == 1
                assert grid[8 - d :, lane].sum() == 0  # nothing nearer


@pytest.mark.parametrize("ego", [2, np.int64(2)], ids=["int", "numpy-int"])
def test_tabular_state_is_a_tuple_of_python_ints(ego):
    grid = np.zeros((8, 5), dtype=np.uint8)
    grid[3, 1] = 1
    for source in (_state(grid, ego), _env_at(grid, ego)):
        got = encode_tabular(source)
        assert type(got) is tuple
        assert [type(v) for v in got] == [int] * 6
        assert got == (2, 8, 4, 8, 8, 8)


def test_tabular_cache_keeps_worlds_of_equal_cell_bytes_apart():
    # 8x3, 6x4 and 4x6 worlds all have 24 cells, so the same bytes and ego lane
    # reach the cache from each; only the lane count tells their states apart
    tabular._encode.cache_clear()
    rng = np.random.default_rng(23)
    for _ in range(200):
        cells = (rng.random(24) < 0.3).astype(np.uint8)
        for ego in range(3):
            for shape in ((8, 3), (6, 4), (4, 6), (8, 3)):
                grid = cells.reshape(shape)
                want = (ego, *naive_tabular_distances(grid))
                assert encode_tabular(_state(grid, ego)) == want
                assert encode_tabular(_env_at(grid, ego)) == want


def test_tabular_cache_is_bounded_and_reencodes_an_evicted_state():
    size = tabular._ENCODE_CACHE_SIZE
    assert tabular._encode.cache_info().maxsize == size
    tabular._encode.cache_clear()
    # the bits of k, one per cell of an 8x5 grid: size + 100 distinct states
    grids = [np.array([(k >> i) & 1 for i in range(40)], np.uint8).reshape(8, 5)
             for k in range(size + 100)]
    for k, grid in enumerate(grids):
        assert encode_tabular(_state(grid, k % 5)) == (k % 5, *naive_tabular_distances(grid))
    assert tabular._encode.cache_info().currsize == size
    # the earliest 100 were pushed out: each is encoded afresh, and right
    misses = tabular._encode.cache_info().misses
    for k, grid in enumerate(grids[:100]):
        assert encode_tabular(_state(grid, k % 5)) == (k % 5, *naive_tabular_distances(grid))
    assert tabular._encode.cache_info().misses == misses + 100
    assert tabular._encode.cache_info().currsize == size


@pytest.mark.parametrize("world", [dict(lanes=3), dict(lanes=5), dict(rows=3, lanes=2)],
                         ids=["3x8", "5x8", "2x3"])
def test_tabular_cache_serves_a_live_env_and_its_snapshot_alike(world):
    tabular._encode.cache_clear()
    config = EnvConfig(**world)
    env = DeepCarsEnv(config)
    rng = np.random.default_rng(5)
    for episode in range(100):
        env.reset(episode)
        t = 0
        while not env.terminal:
            # the live env first on even steps, its snapshot first on odd ones
            sources = (env, env.state) if t % 2 == 0 else (env.state, env)
            first, second = (encode_tabular(source) for source in sources)
            assert first == (env.ego_lane, *naive_tabular_distances(env.grid))
            assert second is first  # one shared tuple
            assert [type(v) for v in first] == [int] * (config.lanes + 1)
            env.step(int(rng.integers(0, 3)))
            t += 1


def _raw_state(grid, ego):
    # the grid as given, no cast
    return EnvState(grid=grid, ego_lane=ego, step_count=0)


# everything that reads a snapshot's cells and ego lane
_snapshot_readers = pytest.mark.parametrize(
    "encode", [encode_tabular, encode_dqn, render_ascii], ids=["tabular", "dqn", "render"]
)


@_snapshot_readers
@pytest.mark.parametrize("cell", [-1, 2, 0.5], ids=repr)
def test_encoders_refuse_a_snapshot_cell_that_is_not_0_or_1(encode, cell):
    # -1 once encoded as -1.0, and a 2 beside the ego as an empty lane
    grid = np.zeros((3, 3), dtype=np.asarray(cell).dtype)
    grid[2, 0] = cell
    with pytest.raises(ConfigError, match="0 or 1"):
        encode(_raw_state(grid, 1))


@_snapshot_readers
@pytest.mark.parametrize("shape", [(9,), (2, 3, 3)], ids=["1-D", "3-D"])
def test_encoders_refuse_a_snapshot_grid_that_is_not_2d(encode, shape):
    with pytest.raises(ConfigError, match="2-D"):
        encode(_raw_state(np.zeros(shape, np.uint8), 1))


@_snapshot_readers
@pytest.mark.parametrize("ego", [-1, -5, 5, True, 2.0], ids=repr)
def test_encoders_refuse_a_snapshot_ego_lane_off_the_road(encode, ego):
    # -1 once encoded as lane 4's id, -5 as lane 0 and True as lane 1
    with pytest.raises(ConfigError, match="ego_lane"):
        encode(_raw_state(np.zeros((8, 5), np.uint8), ego))


@pytest.mark.parametrize("dtype", [bool, np.int64], ids=["bool", "int64"])
def test_encoders_accept_binary_bool_and_int64_grids(dtype):
    config = EnvConfig()
    rng = np.random.default_rng(43)
    for _ in range(100):
        grid = rng.random((8, 5)) < 0.4
        ego = int(rng.integers(0, 5))
        state = _raw_state(grid.astype(dtype), ego)
        assert encode_tabular(state) == (ego, *naive_tabular_distances(grid))
        back_grid, back_ego = decode_dqn(encode_dqn(state), config)
        assert np.array_equal(back_grid, grid) and back_ego == ego


def test_dqn_empty_grid_lane_bits():
    state = _state(np.zeros((8, 5)), ego=2)
    vec = encode_dqn(state)
    assert vec.shape == (43,)
    assert np.all(vec[:40] == 0.0)
    assert list(vec[40:]) == [0.0, 1.0, 0.0]


def test_dqn_single_car_first_cell():
    grid = np.zeros((8, 5))
    grid[0, 0] = 1
    vec = encode_dqn(_state(grid, ego=2))
    assert vec[0] == 1.0
    assert vec[1:40].sum() == 0.0


def test_dqn_roundtrip_random_states():
    config = EnvConfig()
    rng = np.random.default_rng(31)
    for _ in range(1000):
        grid = (rng.random((8, 5)) < 0.4).astype(np.uint8)
        ego = int(rng.integers(0, 5))
        back_grid, back_ego = decode_dqn(encode_dqn(_state(grid, ego)), config)
        assert np.array_equal(back_grid, grid)
        assert back_ego == ego


def test_dqn_injectivity():
    rng = np.random.default_rng(37)
    seen = {}
    for _ in range(2000):
        grid = (rng.random((8, 5)) < 0.4).astype(np.uint8)
        ego = int(rng.integers(0, 5))
        key = encode_dqn(_state(grid, ego)).tobytes()
        ident = (grid.tobytes(), ego)
        assert seen.setdefault(key, ident) == ident
    assert len(seen) > 100


def test_lane_bit_width():
    assert lane_bit_width(2) == 1
    assert lane_bit_width(4) == 2
    assert lane_bit_width(5) == 3
    assert lane_bit_width(8) == 3


def test_encoding_length_constant():
    config = EnvConfig(lanes=5, rows=8)
    assert dqn_state_size(config) == 43
    rng = np.random.default_rng(41)
    sizes = set()
    for _ in range(50):
        grid = (rng.random((8, 5)) < 0.5).astype(np.uint8)
        sizes.add(encode_dqn(_state(grid, int(rng.integers(0, 5)))).size)
    assert sizes == {43}


# every world of 2-7 lanes, 2-9 rows and spawn interval 1-4 at one occupancy
def _sweep(prob):
    return [
        {"lanes": lanes, "rows": rows, "spawn_interval": interval, "occupancy_prob": prob,
         "max_episode_steps": 12}
        for lanes in range(2, 8)
        for rows in range(2, 10)
        for interval in range(1, 5)
    ]


@pytest.mark.parametrize(
    "worlds, episodes",
    [([{}], 30), ([{"lanes": 3}], 30), ([{"max_episode_steps": 3}], 30),
     (_sweep(0.0), 3), (_sweep(0.4), 3), (_sweep(0.95), 3)],
    ids=["default", "three-lanes", "three-step-episodes",
         "sweep-empty-road", "sweep-p0.4", "sweep-p0.95"],
)
def test_encoders_read_the_live_env_as_its_snapshot(worlds, episodes):
    # right after each reset and after every step of seeded random play, the live
    # env encodes as its snapshot and as a reference world stepped beside it by
    # naive_step and naive_spawn_row, which draw from their own generator one
    # row per spawn; the env draws CHUNK rows at a time
    rng = np.random.default_rng(8)
    for world in worlds:
        config = EnvConfig(**world)
        env = DeepCarsEnv(config)
        for episode in range(episodes):
            env.reset(episode)
            ref = np.random.default_rng(episode)
            grid = np.zeros((config.rows, config.lanes), np.uint8)
            ego = anchor = config.lanes // 2
            spawns = 0
            for t in range(1, config.max_episode_steps + 2):
                snapshot = env.state
                live, want = encode_dqn(env), encode_dqn(snapshot)
                assert live.dtype == want.dtype and live.tobytes() == want.tobytes()
                back_grid, back_ego = decode_dqn(live, config)
                assert np.array_equal(back_grid, grid) and back_ego == ego
                tab = encode_tabular(env)
                assert tab == encode_tabular(snapshot)
                assert tab == (ego, *naive_tabular_distances(grid))
                # the env's generator has made exactly the reference's draws, and
                # the rest of the current chunk's rows
                ahead = copy.deepcopy(ref)
                ahead.random((-spawns % CHUNK, config.lanes))
                assert env._rng.bit_generator.state == ahead.bit_generator.state
                if env.terminal:
                    break
                action = int(rng.integers(0, 3))
                out = env.step(action)
                grid, ego, passed, collided = naive_step(grid, ego, action)
                if t % config.spawn_interval == 0:
                    row, anchor = naive_spawn_row(ref, config, anchor)
                    grid[0] = row
                    spawns += 1
                assert (out.cars_passed_this_step, out.cars_collided_this_step) == (
                    passed, collided)
            assert env.terminal
