"""Fixed-capacity experience replay with uniform sampling."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .env import check_action, check_count, is_bool, is_real


class Batch(NamedTuple):
    states: np.ndarray  # (B, dim) float64
    actions: np.ndarray  # (B,) int64
    rewards: np.ndarray  # (B,)
    next_states: np.ndarray  # (B, dim) float64
    terminals: np.ndarray  # (B,) bool


class ReplayBuffer:
    """Ring buffer over preallocated arrays; oldest entries are overwritten first.

    States are stored as `dtype`: the DQN trainer's 0/1 states fit in uint8, an
    eighth of float64's bytes. `push` takes only states the store holds exactly,
    codes in `ACTIONS`, finite rewards and bool terminals, and `sample` returns states
    as float64, so a batch has the same bits whatever the store's dtype.
    """

    def __init__(self, capacity: int, state_dim: int, dtype=np.float64):
        check_count("capacity", capacity)
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim), dtype)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, state_dim), dtype)
        self.terminals = np.zeros(capacity, dtype=bool)
        # the row shape and dtype `push` checks against, kept apart because
        # reading them off `states` on every push costs more than the check
        self._row_shape, self._dtype = self.states.shape[1:], self.states.dtype
        self._cursor = 0
        self._fill = 0

    def __len__(self) -> int:
        return self._fill

    def _held(self, name: str, row) -> np.ndarray:
        """`row` as the store's dtype; ValueError unless it is one row of
        `state_dim` values that the dtype holds exactly."""
        row = np.asarray(row)
        if row.shape != self._row_shape:
            raise ValueError(f"{name} has shape {row.shape}, the store holds rows of shape "
                             f"{self._row_shape}")
        try:
            return row.astype(self._dtype, casting="same_value", copy=False)
        except ValueError:
            with np.errstate(invalid="ignore"):  # nan and inf cast with a warning
                changed = row[row.astype(self._dtype).astype(row.dtype) != row]
            if not changed.size:
                raise
            raise ValueError(f"{name} value {changed[0].item()!r} is not exactly "
                             f"representable as {self._dtype}") from None

    def push(
        self, state: np.ndarray, action: int, reward: float, next_state: np.ndarray, terminal: bool
    ) -> None:
        # every field is checked before any is written, so a refused push leaves
        # the ring as it was
        state, next_state = self._held("state", state), self._held("next state", next_state)
        action = check_action(action)
        if not is_real(reward) or not math.isfinite(reward):
            raise ValueError(f"reward must be a finite number, got {reward!r}")
        if not is_bool(terminal):
            raise ValueError(f"terminal must be a bool, got {terminal!r}")
        i = self._cursor
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.terminals[i] = terminal
        self._cursor = (i + 1) % self.capacity
        self._fill = min(self._fill + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch | None:
        """Uniform with replacement over the filled region; None while empty."""
        if self._fill == 0:
            return None
        idx = rng.integers(0, self._fill, size=batch_size)
        return Batch(
            states=self.states.take(idx, axis=0).astype(np.float64, copy=False),
            actions=self.actions.take(idx),
            rewards=self.rewards.take(idx),
            next_states=self.next_states.take(idx, axis=0).astype(np.float64, copy=False),
            terminals=self.terminals.take(idx),
        )
