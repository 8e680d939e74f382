"""DeepCars highway gridworld.

A binary (rows x lanes) grid of traffic descends one row per step toward an
ego vehicle pinned to the bottom row. The ego picks one of three lateral
commands per step; the episode ends on collision (reward -1) or on a step cap
(reward stays +1). Traffic rows spawn stochastically but are repaired so a
collision-free driving line always exists.

Grid orientation: row 0 is the farthest visible row, row rows-1 is the ego
row. The grid stores traffic only; the ego is tracked by its lane index.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import kernels
from .metrics import RunMetrics


class Action(IntEnum):
    LEFT = 0
    STAY = 1
    RIGHT = 2


class ConfigError(ValueError):
    """An environment parameter violates its documented bound."""


class TerminalStateError(RuntimeError):
    """step() was called on a finished episode."""


@dataclass(frozen=True)
class EnvConfig:
    lanes: int = 5
    rows: int = 8
    spawn_interval: int = 3
    occupancy_prob: float = 0.4
    max_episode_steps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.lanes < 2:
            raise ConfigError(f"lanes must be >= 2, got {self.lanes}")
        if self.rows < 2:
            raise ConfigError(f"rows must be >= 2, got {self.rows}")
        if self.spawn_interval < 1:
            raise ConfigError(f"spawn_interval must be >= 1, got {self.spawn_interval}")
        if not 0.0 <= self.occupancy_prob < 1.0:
            raise ConfigError(
                f"occupancy_prob must be in [0, 1), got {self.occupancy_prob}"
            )
        if self.max_episode_steps < 1:
            raise ConfigError(
                f"max_episode_steps must be >= 1, got {self.max_episode_steps}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(eq=False)
class EnvState:
    """Value snapshot of the world; the grid holds traffic only, never the ego."""

    grid: np.ndarray  # uint8 (rows, lanes)
    ego_lane: int
    step_count: int
    passed_count: int
    collided_count: int


@dataclass(eq=False)
class StepOutcome:
    next_state: EnvState
    reward: float  # +1.0, or -1.0 exactly on collision
    terminal: bool
    cars_passed_this_step: int
    cars_collided_this_step: int  # > 0 exactly on collision, which ends the episode


def spawn_row(rng, config: EnvConfig, anchor_lane: int):
    """Sample one traffic row and repair it so the safe corridor survives.

    `anchor_lane` is the free lane of the previous spawn that a driver dodging
    every row is guaranteed to be able to occupy. Between two consecutive row
    arrivals the ego has spawn_interval moves, one of which is forced (it must
    hold its lane while the old row clears the ego row), so the new row must
    offer a free lane within spawn_interval - 1 of the anchor. If sampling
    left none, the occupied lane nearest the anchor (ties toward the lower
    index) is cleared; that lane is always the anchor itself, since any other
    nearby free lane would have satisfied the rule.

    Returns (row, new_anchor) where new_anchor is the free lane nearest the
    old anchor, ties toward the lower index.
    """
    row = (rng.random(config.lanes) < config.occupancy_prob).astype(np.uint8)
    cells = row.tolist()
    # lanes in order of distance from the anchor, the lower index first on ties
    for d in range(config.spawn_interval):
        for lane in (anchor_lane - d, anchor_lane + d):
            if 0 <= lane < config.lanes and not cells[lane]:
                return row, lane
    row[anchor_lane] = 0
    return row, anchor_lane


class DeepCarsEnv:
    """Seedable single-agent instance; use independent instances for parallel runs."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self._grid = np.zeros((config.rows, config.lanes), dtype=np.uint8)
        self._start(config.seed)

    def reset(self, seed: int | None = None) -> EnvState:
        """Start a fresh episode; the RNG stream is fully determined by `seed`."""
        self._start(self.config.seed if seed is None else seed)
        return self.state

    def _start(self, seed: int) -> None:
        # __init__ calls this, not reset, so each reset call is one episode start
        self._rng = np.random.default_rng(seed)
        self._grid[:] = 0
        self._ego = self.config.lanes // 2
        self._steps = 0
        self._passed = 0
        self._collided = 0
        self._spawned = 0
        self._terminal = False
        self._anchor = self._ego

    @property
    def state(self) -> EnvState:
        return EnvState(
            grid=self._grid.copy(),
            ego_lane=self._ego,
            step_count=self._steps,
            passed_count=self._passed,
            collided_count=self._collided,
        )

    @property
    def terminal(self) -> bool:
        return self._terminal

    @property
    def total_spawned(self) -> int:
        """Cars spawned since the last reset (for conservation accounting)."""
        return self._spawned

    def set_state(self, grid: np.ndarray | None = None, ego_lane: int | None = None):
        """Overwrite the live grid/ego for scripted scenarios."""
        if grid is not None:
            grid = np.asarray(grid)
            if grid.shape != self._grid.shape:
                raise ConfigError(
                    f"grid shape {grid.shape} does not match {self._grid.shape}"
                )
            if not np.isin(grid, (0, 1)).all():  # before the cast to uint8 can wrap or truncate
                raise ConfigError("grid cells must be 0 or 1")
            self._grid[:] = grid
        if ego_lane is not None:
            if not 0 <= ego_lane < self.config.lanes:
                raise ConfigError(f"ego_lane {ego_lane} outside [0, {self.config.lanes})")
            self._ego = int(ego_lane)

    def step(self, action: int) -> StepOutcome:
        if self._terminal:
            raise TerminalStateError("episode already ended; call reset()")
        action = int(action)
        if action not in (0, 1, 2):
            raise ValueError(f"invalid action {action}")

        # lateral move, clamped at the road edges
        self._ego = min(max(self._ego + (action - 1), 0), self.config.lanes - 1)

        passed, collided = kernels.advance(self._grid, self._ego)
        self._steps += 1

        if self._steps % self.config.spawn_interval == 0:
            row, self._anchor = spawn_row(self._rng, self.config, self._anchor)
            self._grid[0] = row
            self._spawned += int(row.sum())

        self._passed += passed
        self._collided += collided
        collision = collided > 0
        self._terminal = collision or self._steps >= self.config.max_episode_steps
        return StepOutcome(
            next_state=self.state,
            reward=-1.0 if collision else 1.0,
            terminal=self._terminal,
            cars_passed_this_step=passed,
            cars_collided_this_step=collided,
        )


def roll_seed(rng: np.random.Generator) -> int:
    """The seed of the next episode in a stream of episodes."""
    return int(rng.integers(0, 2**63))


class Episodes:
    """One seeded stream of episodes; each `step` is one environment step.

    Episode seeds are drawn in turn from `default_rng(seed)`, and states reach
    the agent through `encode`, once each. An episode starts only when the
    step after a terminal one is taken. The env, the episode generator and
    the pending encoded state are attributes, so a stream can be saved whole.
    """

    def __init__(self, config: EnvConfig, encode, seed):
        self.env = DeepCarsEnv(config)
        self.rng = np.random.default_rng(seed)
        self.encode = encode
        self.state = None  # encoded state the next step acts on; None between episodes

    def step(self, act):
        """One step chosen by `act(encoded state)`: (s, action, outcome, s_next)."""
        s = self.state
        if s is None:
            s = self.encode(self.env.reset(roll_seed(self.rng)))
        action = act(s)
        out = self.env.step(action)
        s_next = self.encode(out.next_state)
        self.state = None if out.terminal else s_next
        return s, action, out, s_next


def evaluate(policy, config: EnvConfig, steps: int, seed: int) -> RunMetrics:
    """Greedy rollout of an `(act, encode)` policy for a fixed number of steps."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    act, encode = policy
    episodes = Episodes(config, encode, seed)
    metrics = RunMetrics()
    for t in range(1, steps + 1):
        metrics.record(t, episodes.step(act)[2], 0.0)
    return metrics


def render_ascii(state: EnvState) -> str:
    """One line per row: '.' empty, '#' car, 'E' ego ('X' if a car shares its cell)."""
    rows, lanes = state.grid.shape
    lines = []
    for r in range(rows):
        chars = []
        for l in range(lanes):
            car = state.grid[r, l] != 0
            if r == rows - 1 and l == state.ego_lane:
                chars.append("X" if car else "E")
            else:
                chars.append("#" if car else ".")
        lines.append("".join(chars))
    return "\n".join(lines)
