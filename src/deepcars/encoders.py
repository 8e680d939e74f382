"""State encoders: the tabular distance vector and the flat binary DQN vector,
read from the `grid` and `ego_lane` of a live `DeepCarsEnv` or an `EnvState`."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .env import DeepCarsEnv, EnvConfig, EnvState

# the tabular state, (ego_lane, d_0, ..., d_{lanes-1}): the row a q-table file stores
TabularState = tuple[int, ...]


def encode_tabular(state: DeepCarsEnv | EnvState) -> TabularState:
    """Ego lane, then per lane the rows between the ego row and the closest car
    at or ahead of it (0 = a car beside the ego); a lane with no visible car
    reads `rows`."""
    grid = state.grid
    rows = grid.shape[0]
    # one list per lane, index 0 = ego row; the grid is binary
    lanes = grid[::-1].T.tolist()
    return (int(state.ego_lane), *[lane.index(1) if 1 in lane else rows for lane in lanes])


def lane_bit_width(lanes: int) -> int:
    """Bits needed for a big-endian binary lane id: ceil(log2(lanes))."""
    return (lanes - 1).bit_length()


@lru_cache(maxsize=None)
def _lane_bit_table(lanes: int) -> np.ndarray:
    width = lane_bit_width(lanes)
    table = np.zeros((lanes, width))
    for lane in range(lanes):
        for i in range(width):
            table[lane, i] = (lane >> (width - 1 - i)) & 1
    table.setflags(write=False)
    return table


def dqn_state_size(config: EnvConfig) -> int:
    return config.rows * config.lanes + lane_bit_width(config.lanes)


def encode_dqn(state: DeepCarsEnv | EnvState) -> np.ndarray:
    """Row-major flattened grid followed by the big-endian binary ego lane id."""
    grid = state.grid
    bits = _lane_bit_table(grid.shape[1])
    out = np.empty(grid.size + bits.shape[1])
    out[: grid.size] = grid.ravel()
    out[grid.size :] = bits[state.ego_lane]
    return out
