"""Tabular epsilon-greedy Q-learning over the discrete distance-vector state."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoders import TabularState, encode_tabular
from .env import EnvConfig, Episodes, check_integer_fields
from .metrics import RunMetrics, write_lines
from .net import NumericError

# a q-table maps each visited state to its three action values; a state it
# has never seen reads _ZERO_Q and is not inserted
QTable = dict[TabularState, list[float]]
_ZERO_Q = (0.0, 0.0, 0.0)


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
    """Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') * [not terminal] - Q(s,a))."""
    if not math.isfinite(r):
        raise NumericError(f"non-finite reward {r}")
    q = table.setdefault(s, [0.0, 0.0, 0.0])
    bootstrap = 0.0 if terminal else hp.gamma * max(table.get(s_next, _ZERO_Q))
    q[a] += hp.alpha * (r + bootstrap - q[a])
    if not math.isfinite(q[a]):
        raise NumericError("Q-value became non-finite")


def select_action(
    table: QTable, s: TabularState, epsilon: float, rng: np.random.Generator
) -> int:
    """Uniform-random with probability epsilon, else argmax with lowest-code ties."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, 3))
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


def save_qtable(table: QTable, path) -> None:
    write_lines(path, (
        " ".join(map(str, state)) + " | " + " ".join(repr(float(q)) for q in table[state])
        for state in sorted(table)
    ))


def load_qtable(path) -> QTable:
    table: QTable = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            left, sep, right = line.partition("|")
            if not sep:
                raise ValueError(f"{path}:{lineno}: missing '|' separator")
            try:
                ints = [int(v) for v in left.split()]
                qs = [float(v) for v in right.split()]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed record") from None
            if len(ints) < 2 or len(qs) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected ego+distances and 3 Q-values"
                )
            if min(ints) < 0:
                raise ValueError(f"{path}:{lineno}: negative lane or distance")
            if not all(map(math.isfinite, qs)):
                raise ValueError(f"{path}:{lineno}: non-finite Q-value")
            state = tuple(ints)
            if state in table:
                raise ValueError(f"{path}:{lineno}: repeated state {left.strip()!r}")
            table[state] = qs
    return table
