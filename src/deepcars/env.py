"""DeepCars highway gridworld.

A binary (rows x lanes) grid of traffic descends one row per step toward an
ego vehicle pinned to the bottom row. The ego picks one of three lateral
commands per step; the episode ends on collision (reward -1) or on a step cap
(reward stays +1). Traffic rows spawn stochastically but are repaired so a
collision-free driving line always exists.

Grid orientation: row 0 is the farthest visible row, row rows-1 is the ego
row. The grid stores traffic only; the ego is tracked by its lane index.
Traffic never depends on the ego, so the env writes each spawned row once on
a time-descending tape, and the grid is a window moving up it one row a step.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from . import kernels
from .metrics import RunMetrics

TAPE_ROWS = 256  # steps between two moves of the window back to the tape's end
CHUNK = 64  # spawns drawn by one generator call


class Action(IntEnum):
    LEFT = 0
    STAY = 1
    RIGHT = 2


ACTIONS = tuple(range(len(Action)))  # the codes; `in` costs less on a tuple than on a range
# the reward types `is_real` takes, built once: built per call they are slow
_REALS = (int, float, np.integer, np.floating)


class ConfigError(ValueError):
    """An environment parameter violates its documented bound."""


class TerminalStateError(RuntimeError):
    """step() was called on a finished episode."""


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a Python or numpy int or float; a bool is not one, though Python
    counts it an int, so a learner would take True as a reward of 1.0."""
    return isinstance(value, _REALS) and type(value) is not bool


def is_bool(value) -> bool:
    """True for a Python or numpy bool, the one kind of terminal flag a learner takes."""
    return isinstance(value, (bool, np.bool_))


def check_action(action) -> int:
    """`action` as a plain int; ValueError unless it is an integer in `ACTIONS`, not a bool."""
    if not is_integer(action) or action not in ACTIONS:
        raise ValueError(f"action must be an integer in 0 .. {ACTIONS[-1]}, got {action!r}")
    return int(action)


def check_count(name, value, least=1, error=ValueError) -> None:
    """Raise `error` unless `value` is an integer of at least `least`."""
    if not is_integer(value) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


def check_integer_fields(settings, least=0, error=ValueError, **bounds) -> None:
    """Refuse a field of the dataclass `settings` whose default is an int and whose
    value is not an integer of at least `bounds.get(name, least)`, or whose default
    is a tuple and whose value is not a tuple of such integers."""
    for f in fields(settings):
        kind, value, low = type(f.default), getattr(settings, f.name), bounds.get(f.name, least)
        if kind is int:
            check_count(f.name, value, low, error)
        elif kind is tuple and not (isinstance(value, tuple)
                                    and all(is_integer(v) and v >= low for v in value)):
            raise error(f"{f.name} must be a tuple of integers >= {low}, got {value!r}")


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


@dataclass(frozen=True, init=False)
class EnvState:
    """Value snapshot of the world; the grid holds traffic only, never the ego.

    Made only by `EnvState(grid, ego_lane, step_count)`, which checks the grid
    (2-D, every cell 0 or 1) and copies it into `cells`, and refuses an ego lane
    that is not an integer lane of the grid. Snapshots compare and hash by their
    fields; holding bytes and ints only, they copy and pickle with no hook."""

    cells: bytes  # row-major, one 0/1 byte per cell
    lanes: int
    ego_lane: int
    step_count: int

    def __init__(self, grid, ego_lane: int, step_count: int):
        grid = np.asarray(grid)
        if grid.ndim != 2:
            raise ConfigError(f"grid must be 2-D, got shape {grid.shape}")
        # checked before the cast to uint8 can wrap a cell
        if not ((grid == 0) | (grid == 1)).all():
            raise ConfigError("grid cells must be 0 or 1")
        if not is_integer(ego_lane):
            raise ConfigError(f"ego_lane must be an integer, got {ego_lane!r}")
        if not 0 <= ego_lane < grid.shape[1]:
            raise ConfigError(f"ego_lane {ego_lane} outside [0, {grid.shape[1]})")
        vars(self).update(cells=grid.astype(np.uint8).tobytes(), lanes=grid.shape[1],
                          ego_lane=int(ego_lane), step_count=step_count)

    @property
    def grid(self) -> np.ndarray:
        """Read-only uint8 (rows, lanes) view of `cells`."""
        return np.frombuffer(self.cells, np.uint8).reshape(-1, self.lanes)


@dataclass(frozen=True, eq=False)
class StepOutcome:
    reward: float  # +1.0, or -1.0 exactly on collision
    terminal: bool
    cars_passed_this_step: int
    cars_collided_this_step: int  # > 0 exactly on collision, which ends the episode


def spawn_row(occupied, config: EnvConfig, anchor_lane: int):
    """Repair one sampled traffic row so the safe corridor survives.

    `occupied` is the row's `lanes` sampled flags (uniform < occupancy_prob).

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
    # lanes in order of distance from the anchor, the lower index first on ties
    for d in range(config.spawn_interval):
        for lane in (anchor_lane - d, anchor_lane + d):
            if 0 <= lane < config.lanes and not occupied[lane]:
                return bytes(occupied), lane
    return bytes(o and lane != anchor_lane for lane, o in enumerate(occupied)), anchor_lane


class DeepCarsEnv:
    """Seedable single-agent instance; use independent instances for parallel runs."""

    def __init__(self, config: EnvConfig):
        self.config = config
        # the config values step reads on every call
        self.lanes = config.lanes
        self._interval = config.spawn_interval
        self._max_steps = config.max_episode_steps
        self._size = config.rows * config.lanes
        # every outcome step can return, by [collided][terminal][passed], built once and shared
        self._outcomes = tuple(tuple(tuple(StepOutcome(-1.0 if c else 1.0, t, p, c)
                                           for p in range(self.lanes + 1))
                                     for t in (False, True)) for c in range(3))
        self._start(config.seed)

    def reset(self, seed: int | None = None) -> None:
        """Start a fresh episode; the RNG stream is fully determined by `seed`."""
        self._start(self.config.seed if seed is None else seed)

    def _start(self, seed: int) -> None:
        # __init__ calls this, not reset, so each reset call is one episode start
        self._rng = np.random.default_rng(seed)
        self._flags = []  # the sampled rows of the next spawns, the next one last
        # the grid is tape[top : top + size], row-major; every row above it is empty.
        # No ndarray view of the tape is kept, so deepcopy and pickle stay whole
        self._tape = bytearray((TAPE_ROWS + self.config.rows) * self.lanes)
        self._top = TAPE_ROWS * self.lanes
        self._ego = self.config.lanes // 2
        self._steps = 0
        self._terminal = False
        self._anchor = self._ego

    @property
    def cells(self) -> bytes:
        """Row-major copy of the traffic, one 0/1 byte per cell; later steps leave it as it is."""
        return bytes(self._tape[self._top : self._top + self._size])

    grid = EnvState.grid  # the same read-only view, of the live cells

    @property
    def ego_lane(self) -> int:
        return self._ego

    @property
    def state(self) -> EnvState:
        """A snapshot of the world, with its own copy of the cells."""
        return EnvState(self.grid, self._ego, self._steps)

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
        self._tape[self._top : self._top + self._size] = state.cells
        self._ego = state.ego_lane

    def step(self, action: int) -> StepOutcome:
        if self._terminal:
            raise TerminalStateError("episode already ended; call reset()")
        if type(action) is not int or action not in ACTIONS:  # a plain int is the hot case
            action = check_action(action)

        # lateral move, clamped at the road edges; a move is one lane, so only -1 and lanes miss
        lanes = self.lanes
        ego = self._ego + (action - 1)
        if ego < 0:
            ego = 0
        elif ego == lanes:
            ego -= 1
        self._ego = ego

        tape, top = self._tape, self._top
        if not top:  # the window reached the tape's start: move it back to the end
            top = TAPE_ROWS * lanes
            tape[:] = bytes(top) + tape[: self._size]
        passed, collided = kernels.advance(tape, top, self._size, lanes, ego)
        self._top = top = top - lanes
        steps = self._steps = self._steps + 1

        if steps % self._interval == 0:
            if not self._flags:  # one call: the same stream as CHUNK calls of random(lanes)
                draws = self._rng.random((CHUNK, lanes)) < self.config.occupancy_prob
                self._flags = draws.tolist()[::-1]
            row, self._anchor = spawn_row(self._flags.pop(), self.config, self._anchor)
            tape[top : top + lanes] = row

        self._terminal = terminal = collided > 0 or steps >= self._max_steps
        return self._outcomes[collided][terminal][passed]


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
    check_count("steps", steps)
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
