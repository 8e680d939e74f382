"""State encoders: the tabular distance vector and the flat binary DQN vector,
read from the `cells`, `lanes` and `ego_lane` of a live `DeepCarsEnv` or an `EnvState`."""

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
    cells = state.cells
    lanes = state.lanes
    last_row = len(cells) // lanes - 1
    # rfind gives the row of a lane's nearest car, or -1 for none, which reads `rows`
    return (int(state.ego_lane), *[last_row - cells[lane::lanes].rfind(1) for lane in range(lanes)])


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
    """Row-major flattened grid followed by the big-endian binary ego lane id."""
    cells = state.cells
    bits = _lane_bits(state.lanes)[state.ego_lane]
    return np.frombuffer(cells + bits, np.uint8).astype(np.float64)
