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

from dataclasses import dataclass, field, fields
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


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer_fields(settings, least=0, error=ValueError, **bounds) -> None:
    """Refuse a field of the dataclass `settings` whose default is an int and whose
    value is not an integer of at least `bounds.get(name, least)`, or whose default
    is a tuple and whose value is not a tuple of such integers."""
    for f in fields(settings):
        kind, value, low = type(f.default), getattr(settings, f.name), bounds.get(f.name, least)
        if kind is tuple:
            ok = isinstance(value, tuple) and all(is_integer(v) and v >= low for v in value)
        else:
            ok = kind is not int or (is_integer(value) and value >= low)
        if not ok:
            what = "a tuple of integers" if kind is tuple else "an integer"
            raise error(f"{f.name} must be {what} >= {low}, got {value!r}")


@dataclass(frozen=True)
class EnvConfig:
    lanes: int = 5
    rows: int = 8
    spawn_interval: int = 3
    occupancy_prob: float = 0.4
    max_episode_steps: int = 200
    seed: int = 0

    def __post_init__(self):
        check_integer_fields(self, 0, ConfigError, lanes=2, rows=2, spawn_interval=1,
                             max_episode_steps=1)
        if not 0.0 <= self.occupancy_prob < 1.0:
            raise ConfigError(f"occupancy_prob must be in [0, 1), got {self.occupancy_prob}")
        if self.seed >= 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class EnvState:
    """Value snapshot of the world; the grid holds traffic only, never the ego.

    On creation the grid is checked (2-D, every cell 0 or 1) and copied into
    `cells`, and an ego lane that is not an integer lane of the grid is refused;
    `grid` is then a read-only uint8 view of `cells`. Snapshots compare and hash
    by value: cells, lanes, ego lane and step count."""

    grid: np.ndarray = field(compare=False, repr=False)  # (rows, lanes), a view of `cells`
    ego_lane: int
    step_count: int
    cells: bytes = field(init=False)  # row-major, one 0/1 byte per cell
    lanes: int = field(init=False)

    def __post_init__(self):
        grid, ego = np.asarray(self.grid), self.ego_lane
        if grid.ndim != 2:
            raise ConfigError(f"grid must be 2-D, got shape {grid.shape}")
        if not np.isin(grid, (0, 1)).all():  # checked before the cast to uint8 can wrap a cell
            raise ConfigError("grid cells must be 0 or 1")
        if not is_integer(ego):
            raise ConfigError(f"ego_lane must be an integer, got {ego!r}")
        if not 0 <= ego < grid.shape[1]:
            raise ConfigError(f"ego_lane {ego} outside [0, {grid.shape[1]})")
        _snapshot(grid.astype(np.uint8).tobytes(), grid.shape[1], int(ego), self.step_count, self)

    def __reduce__(self):
        # a copy or an unpickled snapshot rebuilds its view over its own cells
        return _snapshot, (self.cells, self.lanes, self.ego_lane, self.step_count)


def _snapshot(cells: bytes, lanes: int, ego_lane: int, step_count: int, state=None) -> EnvState:
    """`state`, a new EnvState by default, holding cells and an ego lane already
    checked, as a live env's are; the one place a frozen snapshot's fields are set."""
    state = object.__new__(EnvState) if state is None else state
    grid = np.frombuffer(cells, np.uint8).reshape(-1, lanes)
    vars(state).update(grid=grid, ego_lane=ego_lane, step_count=step_count, cells=cells, lanes=lanes)
    return state


@dataclass(eq=False)
class StepOutcome:
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

    Returns (row, new_anchor): the row is `lanes` bytes of 0/1, and new_anchor
    is the free lane nearest the old anchor, ties toward the lower index.
    """
    cells = (rng.random(config.lanes) < config.occupancy_prob).tolist()
    # lanes in order of distance from the anchor, the lower index first on ties
    for d in range(config.spawn_interval):
        for lane in (anchor_lane - d, anchor_lane + d):
            if 0 <= lane < config.lanes and not cells[lane]:
                return bytes(cells), lane
    cells[anchor_lane] = False
    return bytes(cells), anchor_lane


class DeepCarsEnv:
    """Seedable single-agent instance; use independent instances for parallel runs."""

    def __init__(self, config: EnvConfig):
        self.config = config
        # the config values step reads on every call
        self.lanes = config.lanes
        self._interval = config.spawn_interval
        self._max_steps = config.max_episode_steps
        self._start(config.seed)

    def reset(self, seed: int | None = None) -> None:
        """Start a fresh episode; the RNG stream is fully determined by `seed`."""
        self._start(self.config.seed if seed is None else seed)

    def _start(self, seed: int) -> None:
        # __init__ calls this, not reset, so each reset call is one episode start
        self._rng = np.random.default_rng(seed)
        # row-major grid cells; no ndarray view of it is kept, so deepcopy and pickle stay whole
        self._cells = bytearray(self.config.rows * self.config.lanes)
        self._ego = self.config.lanes // 2
        self._steps = 0
        self._terminal = False
        self._anchor = self._ego

    @property
    def cells(self) -> bytes:
        """Row-major copy of the traffic, one 0/1 byte per cell; later steps leave it as it is."""
        return bytes(self._cells)

    @property
    def grid(self) -> np.ndarray:
        """Read-only uint8 (rows, lanes) view of `cells`."""
        return np.frombuffer(self.cells, np.uint8).reshape(-1, self.lanes)

    @property
    def ego_lane(self) -> int:
        return self._ego

    @property
    def state(self) -> EnvState:
        """A snapshot of the world, with its own copy of the cells."""
        return _snapshot(self.cells, self.lanes, self._ego, self._steps)

    @property
    def terminal(self) -> bool:
        return self._terminal

    def set_state(self, grid: np.ndarray | None = None, ego_lane: int | None = None):
        """Overwrite the live grid/ego for scripted scenarios, checked as a snapshot
        of them is; a refused call changes neither."""
        state = EnvState(self.grid if grid is None else grid,
                         self._ego if ego_lane is None else ego_lane, self._steps)
        shape = (self.config.rows, self.lanes)
        if state.grid.shape != shape:
            raise ConfigError(f"grid shape {state.grid.shape} does not match {shape}")
        self._cells[:] = state.cells
        self._ego = state.ego_lane

    def step(self, action: int) -> StepOutcome:
        if self._terminal:
            raise TerminalStateError("episode already ended; call reset()")
        action = int(action)
        if action not in (0, 1, 2):
            raise ValueError(f"invalid action {action}")

        # lateral move, clamped at the road edges
        lanes = self.lanes
        self._ego = ego = min(max(self._ego + (action - 1), 0), lanes - 1)

        passed, collided = kernels.advance(self._cells, lanes, ego)
        steps = self._steps = self._steps + 1

        if steps % self._interval == 0:
            row, self._anchor = spawn_row(self._rng, self.config, self._anchor)
            self._cells[:lanes] = row

        self._terminal = terminal = collided > 0 or steps >= self._max_steps
        return StepOutcome(-1.0 if collided else 1.0, terminal, passed, collided)


def roll_seed(rng: np.random.Generator) -> int:
    """The seed of the next episode in a stream of episodes."""
    return int(rng.integers(0, 2**63))


class Episodes:
    """One seeded stream of episodes; each `step` is one environment step.

    Episode seeds are drawn in turn from `default_rng(seed)`. After each reset
    and each step, `encode(env)` reads the world from the env; each encoded
    state reaches the agent once. An episode starts only when the step after
    a terminal one is taken. The env, the episode generator and the pending
    encoded state are attributes, so a stream can be saved whole.
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
            self.env.reset(roll_seed(self.rng))
            s = self.encode(self.env)
        action = act(s)
        out = self.env.step(action)
        s_next = self.encode(self.env)
        self.state = None if out.terminal else s_next
        return s, action, out, s_next


def evaluate(policy, config: EnvConfig, steps: int, seed: int) -> RunMetrics:
    """Greedy rollout of an `(act, encode)` policy for a fixed number of steps."""
    if not is_integer(steps) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    act, encode = policy
    episodes = Episodes(config, encode, seed)
    metrics = RunMetrics()
    for t in range(1, steps + 1):
        metrics.record(t, episodes.step(act)[2], 0.0)
    return metrics


def render_ascii(state: EnvState) -> str:
    """One line per row: '.' empty, '#' car, 'E' ego ('X' if a car shares its cell)."""
    cells, lanes = state.cells, state.lanes
    chars = [".#"[cell] for cell in cells]
    ego = len(cells) - lanes + state.ego_lane
    chars[ego] = "EX"[cells[ego]]
    return "\n".join("".join(chars[i : i + lanes]) for i in range(0, len(cells), lanes))
