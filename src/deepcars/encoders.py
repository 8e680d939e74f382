"""State encoders: the tabular distance vector and the flat binary DQN vector."""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .env import EnvConfig, EnvState


class TabularState(NamedTuple):
    """Discrete state: ego lane plus per-lane distance to the nearest car.

    distances[i] counts rows between the ego row and the closest car in lane i
    at or ahead of the ego row (0 = a car beside the ego on the ego row); a
    lane with no visible car carries the sentinel value `rows`.
    """

    ego_lane_id: int
    distances: tuple[int, ...]


def encode_tabular(state: EnvState) -> TabularState:
    grid = state.grid
    rows = grid.shape[0]
    # one list per lane, index 0 = ego row; the grid is binary
    lanes = grid[::-1].T.tolist()
    dists = tuple(lane.index(1) if 1 in lane else rows for lane in lanes)
    return TabularState(int(state.ego_lane), dists)


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


def encode_dqn(state: EnvState) -> np.ndarray:
    """Row-major flattened grid followed by the big-endian binary ego lane id."""
    grid = state.grid
    bits = _lane_bit_table(grid.shape[1])
    out = np.empty(grid.size + bits.shape[1])
    out[: grid.size] = grid.ravel()
    out[grid.size :] = bits[state.ego_lane]
    return out
