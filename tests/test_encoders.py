import numpy as np
import pytest

from deepcars.encoders import (
    dqn_state_size,
    encode_dqn,
    encode_tabular,
    lane_bit_width,
)
from deepcars.env import DeepCarsEnv, EnvConfig, EnvState

from helpers import decode_dqn, naive_tabular_distances, state_from_ascii


def _state(grid, ego):
    return EnvState(
        grid=np.asarray(grid, dtype=np.uint8),
        ego_lane=ego,
        step_count=0,
        passed_count=0,
        collided_count=0,
    )


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


@pytest.mark.parametrize(
    "world",
    [{}, {"lanes": 3}, {"max_episode_steps": 3}],
    ids=["default", "three-lanes", "three-step-episodes"],
)
def test_encoders_read_the_live_env_as_its_snapshot(world):
    # right after each reset and after every step of seeded random play
    env = DeepCarsEnv(EnvConfig(**world))
    rng = np.random.default_rng(8)
    for episode in range(30):
        env.reset(episode)
        while True:
            snapshot = env.state
            live, want = encode_dqn(env), encode_dqn(snapshot)
            assert live.dtype == want.dtype and live.tobytes() == want.tobytes()
            assert encode_tabular(env) == encode_tabular(snapshot)
            if env.terminal:
                break
            env.step(int(rng.integers(0, 3)))
