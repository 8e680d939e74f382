"""Tabular epsilon-greedy Q-learning over the discrete distance-vector state."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .env import (
    ACTIONS, DeepCarsEnv, EnvConfig, EnvState, Episodes, check_action, check_integer_fields,
    is_bool, is_real,
)
from .metrics import RunMetrics, read_lines, write_lines
from .net import NumericError

# the tabular state, (ego_lane, d_0, ..., d_{lanes-1}): the row a q-table file stores
TabularState = tuple[int, ...]
# a q-table maps each visited state to its action values; a state it has
# never seen reads _ZERO_Q, and is inserted only when an update stores a value
QTable = dict[TabularState, list[float]]
_ZERO_Q = (0.0,) * len(ACTIONS)
# the most states `encode_tabular` keeps encoded, least recently used out first
_ENCODE_CACHE_SIZE = 4096


def encode_tabular(state: DeepCarsEnv | EnvState) -> TabularState:
    """Ego lane, then per lane the rows between the ego row and the closest car
    at or ahead of it (0 = a car beside the ego); a lane with no visible car
    reads `rows`. Reads the `cells`, `lanes` and `ego_lane` of a live env or a
    snapshot. Equal states share one tuple while the bounded cache holds it."""
    return _encode(state.cells, state.lanes, state.ego_lane)


# a greedy 3-lane run meets ~1.1k distinct states; `lanes` is in the key, as
# the cells of 8x3 and 6x4 worlds are both 24 bytes
@functools.lru_cache(maxsize=_ENCODE_CACHE_SIZE)
def _encode(cells: bytes, lanes: int, ego_lane: int) -> TabularState:
    last_row = len(cells) // lanes - 1
    # rfind gives the row of a lane's nearest car, or -1 for none, which reads `rows`
    return (int(ego_lane), *[last_row - cells[lane::lanes].rfind(1) for lane in range(lanes)])


@dataclass(frozen=True)
class TabularHyperparams:
    gamma: float = 0.9
    alpha: float = 0.1
    epsilon: float = 0.2
    train_steps: int = 50_000

    def __post_init__(self):
        check_integer_fields(self)
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")


def q_update(
    table: QTable,
    s: TabularState,
    a: int,
    r: float,
    s_next: TabularState,
    terminal: bool,
    hp: TabularHyperparams,
) -> None:
    """Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') * [not terminal] - Q(s,a)).

    It refuses (ValueError) an action not in `ACTIONS`, a reward that is not a
    number and a terminal that is not a bool; a refused update leaves the table
    as it was."""
    if type(a) is not int or a not in ACTIONS:  # a plain int is the hot case
        a = check_action(a)
    if type(r) is not float and not is_real(r):
        raise ValueError(f"reward must be a number, got {r!r}")
    if type(terminal) is not bool and not is_bool(terminal):
        raise ValueError(f"terminal must be a bool, got {terminal!r}")
    if not math.isfinite(r):
        raise NumericError(f"non-finite reward {r}")
    q = table.get(s, _ZERO_Q)
    bootstrap = 0.0 if terminal else hp.gamma * max(table.get(s_next, _ZERO_Q))
    value = q[a] + hp.alpha * (r + bootstrap - q[a])
    if not math.isfinite(value):
        raise NumericError("Q-value became non-finite")
    if q is _ZERO_Q:
        table[s] = q = list(_ZERO_Q)
    q[a] = value


def select_action(
    table: QTable, s: TabularState, epsilon: float, rng: np.random.Generator
) -> int:
    """Uniform-random with probability epsilon, else argmax with lowest-code ties."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, len(ACTIONS)))
    q = table.get(s, _ZERO_Q)
    return q.index(max(q))


def greedy_policy(table: QTable, config: EnvConfig):
    """The greedy `(act, encode)` pair of a tabular agent on the world `config`; a
    table holding a state `encode_tabular` cannot produce there is refused."""
    for ego, *distances in table:
        if len(distances) != config.lanes or ego >= config.lanes:
            raise ValueError(f"q-table holds states for {len(distances)} lanes with ego lane "
                             f"{ego}, environment has {config.lanes} lanes; adjust --lanes")
        if max(distances) > config.rows:
            raise ValueError(f"q-table holds distance {max(distances)}, "
                             f"environment has {config.rows} rows; adjust --rows")
    # epsilon 0 never draws, so no generator is needed
    return lambda s: select_action(table, s, 0.0, None), encode_tabular


def train_tabular(
    config: EnvConfig, hp: TabularHyperparams, seed: int
) -> tuple[QTable, RunMetrics]:
    """Run epsilon-greedy Q-learning for hp.train_steps environment steps."""
    seq = np.random.SeedSequence(seed).spawn(2)
    action_rng = np.random.default_rng(seq[0])
    episodes = Episodes(config, encode_tabular, seq[1])

    table: QTable = {}
    metrics = RunMetrics()

    def act(s):
        return select_action(table, s, hp.epsilon, action_rng)

    for t in range(1, hp.train_steps + 1):
        s, a, out, s_next = episodes.step(act)
        # a timeout is not a true terminal state: keep the bootstrap term
        q_update(table, s, a, out.reward, s_next, out.cars_collided_this_step > 0, hp)
        metrics.record(t, out, hp.epsilon)
    return table, metrics


# ---------------------------------------------------------------------------
# persistence: one line per state, "<ints> | <q0> <q1> <q2>"


def _qtable_line(state, qs) -> str:
    return " ".join(map(str, state)) + " | " + " ".join(repr(float(q)) for q in qs)


def save_qtable(table: QTable, path) -> None:
    """Write `table`; a non-finite Q-value, which `load_qtable` refuses, raises
    NumericError before any file is written."""
    for state, qs in table.items():
        if not all(map(math.isfinite, qs)):
            raise NumericError(f"{path}: state {state} holds a non-finite Q-value")
    write_lines(path, (_qtable_line(state, table[state]) for state in sorted(table)))


def load_qtable(path) -> QTable:
    table: QTable = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        left, sep, right = line.partition("|")
        if not sep:
            raise ValueError(f"{path}:{lineno}: missing '|' separator")
        try:
            ints = [int(v) for v in left.split()]
            qs = [float(v) for v in right.split()]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed record") from None
        if len(ints) < 2 or len(qs) != len(ACTIONS):
            raise ValueError(
                f"{path}:{lineno}: expected ego+distances and {len(ACTIONS)} Q-values"
            )
        # "0_1", "+0.5", padding or a "\r": text save_qtable never writes
        if _qtable_line(ints, qs) != line:
            raise ValueError(f"{path}:{lineno}: malformed record")
        if min(ints) < 0:
            raise ValueError(f"{path}:{lineno}: negative lane or distance")
        if not all(map(math.isfinite, qs)):
            raise ValueError(f"{path}:{lineno}: non-finite Q-value")
        state = tuple(ints)
        if state in table:
            raise ValueError(f"{path}:{lineno}: repeated state {left.strip()!r}")
        table[state] = qs
    return table
