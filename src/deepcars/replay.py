"""Fixed-capacity experience replay with uniform sampling."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Transition(NamedTuple):
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


class Batch(NamedTuple):
    states: np.ndarray  # (B, dim)
    actions: np.ndarray  # (B,) int64
    rewards: np.ndarray  # (B,)
    next_states: np.ndarray  # (B, dim)
    terminals: np.ndarray  # (B,) bool


class ReplayBuffer:
    """Ring buffer over preallocated arrays; oldest entries are overwritten first."""

    def __init__(self, capacity: int, state_dim: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, state_dim))
        self.terminals = np.zeros(capacity, dtype=bool)
        self._cursor = 0
        self._fill = 0

    def __len__(self) -> int:
        return self._fill

    def push(self, t: Transition) -> None:
        i = self._cursor
        self.states[i] = t.state
        self.actions[i] = t.action
        self.rewards[i] = t.reward
        self.next_states[i] = t.next_state
        self.terminals[i] = t.terminal
        self._cursor = (i + 1) % self.capacity
        self._fill = min(self._fill + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch | None:
        """Uniform with replacement over the filled region; None while empty."""
        if self._fill == 0:
            return None
        idx = rng.integers(0, self._fill, size=batch_size)
        return Batch(
            states=self.states.take(idx, axis=0),
            actions=self.actions.take(idx),
            rewards=self.rewards.take(idx),
            next_states=self.next_states.take(idx, axis=0),
            terminals=self.terminals.take(idx),
        )

    def entries(self) -> list[Transition]:
        """Stored transitions in storage order (for inspection and tests)."""
        return [
            Transition(
                self.states[i].copy(),
                int(self.actions[i]),
                float(self.rewards[i]),
                self.next_states[i].copy(),
                bool(self.terminals[i]),
            )
            for i in range(self._fill)
        ]
