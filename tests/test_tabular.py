import numpy as np
import pytest

from deepcars.encoders import TabularState
from deepcars.env import EnvConfig, evaluate
from deepcars.net import NumericError
from deepcars.tabular import (
    QTable,
    TabularHyperparams,
    greedy_policy,
    load_qtable,
    q_update,
    save_qtable,
    select_action,
    train_tabular,
)

from helpers import metrics_equal, naive_train_tabular

HP = TabularHyperparams()
S = TabularState(1, (3, 8, 8))
S2 = TabularState(2, (8, 0, 8))


def test_q_update_fresh_positive_reward():
    table = QTable()
    q_update(table, S, 1, 1.0, S2, terminal=False, hp=HP)
    assert np.isclose(table.values(S)[1], 0.1)  # 0 + 0.1 * (1 + 0 - 0)


def test_q_update_fresh_terminal_collision():
    table = QTable()
    q_update(table, S, 0, -1.0, S2, terminal=True, hp=HP)
    assert np.isclose(table.values(S)[0], -0.1)


def test_q_update_bootstraps_next_state_max():
    table = QTable()
    table._writable(S)[2] = 0.5
    table._writable(S2)[:] = [0.2, 1.0, -0.3]
    q_update(table, S, 2, 1.0, S2, terminal=False, hp=HP)
    # 0.5 + 0.1 * (1 + 0.9 * 1.0 - 0.5) = 0.64, recomputed by hand
    assert np.isclose(table.values(S)[2], 0.64)


def test_q_update_changes_exactly_one_cell():
    table = QTable()
    table._writable(S)[:] = [0.1, 0.2, 0.3]
    table._writable(S2)[:] = [0.4, 0.5, 0.6]
    before = {k: v.copy() for k, v in table.entries.items()}
    q_update(table, S, 1, 1.0, S2, terminal=False, hp=HP)
    for key, vals in table.entries.items():
        for a in range(3):
            if key == S and a == 1:
                assert vals[a] != before[key][a]
            else:
                assert vals[a] == before.get(key, np.zeros(3))[a]


def test_q_update_rejects_nonfinite_reward():
    with pytest.raises(NumericError):
        q_update(QTable(), S, 0, float("nan"), S2, terminal=False, hp=HP)


def test_absent_state_reads_zero_without_insert():
    table = QTable()
    vals = table.values(S)
    assert np.array_equal(vals, np.zeros(3))
    assert len(table) == 0
    with pytest.raises(ValueError):
        vals[0] = 1.0  # the shared default is read-only


def test_select_action_greedy_argmax():
    table = QTable()
    table._writable(S)[:] = [0.1, 0.9, 0.2]
    assert select_action(table, S, 0.0, np.random.default_rng(0)) == 1


def test_select_action_tie_breaks_lowest_code():
    table = QTable()
    assert select_action(table, S, 0.0, np.random.default_rng(0)) == 0
    table._writable(S)[:] = [0.5, 0.5, 0.1]
    assert select_action(table, S, 0.0, np.random.default_rng(0)) == 0


def test_select_action_uniform_when_epsilon_one():
    table = QTable()
    rng = np.random.default_rng(19)
    counts = np.zeros(3)
    draws = 10_000
    for _ in range(draws):
        counts[select_action(table, S, 1.0, rng)] += 1
    expected = draws / 3
    sigma = np.sqrt(draws * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_greedy_invariant_under_positive_scaling():
    table = QTable()
    rng = np.random.default_rng(4)
    states = [TabularState(i % 3, (i, 8, 8)) for i in range(20)]
    for s in states:
        table._writable(s)[:] = rng.uniform(-1, 1, 3)
    before = [select_action(table, s, 0.0, rng) for s in states]
    for s in states:
        table.entries[s] *= 7.5
    after = [select_action(table, s, 0.0, rng) for s in states]
    assert before == after


def test_training_zero_steps_reports_no_cars():
    config = EnvConfig(lanes=3)
    table, metrics = train_tabular(config, TabularHyperparams(train_steps=0), seed=0)
    assert len(table) == 0
    assert metrics.accuracy() is None
    assert metrics.passed == 0 and metrics.collided == 0


def test_training_is_seed_deterministic():
    config = EnvConfig(lanes=3)
    hp = TabularHyperparams(train_steps=3_000)
    t1, m1 = train_tabular(config, hp, seed=5)
    t2, m2 = train_tabular(config, hp, seed=5)
    assert set(t1.entries) == set(t2.entries)
    for key in t1.entries:
        assert np.array_equal(t1.entries[key], t2.entries[key])
    assert m1.steps == m2.steps


@pytest.mark.parametrize("seed", [0, 2**40 + 9])
@pytest.mark.parametrize(
    "world",
    [{}, {"lanes": 3}, {"max_episode_steps": 3}],
    ids=["default", "three-lanes", "three-step-episodes"],
)
def test_training_matches_reference_loop(world, seed):
    # the episode stream against a loop written out with its own env:
    # episode seeds, bootstrap on timeouts, q-values and the step ledger
    config = EnvConfig(**world)
    hp = TabularHyperparams(train_steps=3_000)
    table, metrics = train_tabular(config, hp, seed)
    want_table, want_metrics = naive_train_tabular(config, hp, seed)
    assert table.entries.keys() == want_table.entries.keys()
    for state, q in want_table.entries.items():
        assert table.entries[state].tobytes() == q.tobytes()
    assert metrics_equal(metrics, want_metrics)


def test_training_bounds_q_values():
    config = EnvConfig(lanes=3)
    table, _ = train_tabular(config, TabularHyperparams(train_steps=8_000), seed=2)
    bound = 1.0 / (1.0 - HP.gamma)
    for vals in table.entries.values():
        assert np.all(np.abs(vals) <= bound + 1e-9)
        assert np.all(np.isfinite(vals))


def test_training_leaves_unvisited_states_absent():
    config = EnvConfig(lanes=3)
    table, _ = train_tabular(config, TabularHyperparams(train_steps=2_000), seed=3)
    # the reachable state space is far bigger than what 2k steps can visit
    assert 0 < len(table) < 3 * 9**3


def test_trained_table_beats_empty_table():
    config = EnvConfig(lanes=3)
    hp = TabularHyperparams(train_steps=20_000)
    table, _ = train_tabular(config, hp, seed=7)
    trained = evaluate(greedy_policy(table), config, steps=5_000, seed=100)
    blank = evaluate(greedy_policy(QTable()), config, steps=5_000, seed=100)
    assert trained.accuracy() > blank.accuracy()


def test_evaluate_empty_environment_vacuous():
    config = EnvConfig(lanes=3, occupancy_prob=0.0)
    run = evaluate(greedy_policy(QTable()), config, steps=500, seed=0)
    assert run.collided == 0
    assert run.accuracy() is None  # no cars resolved: vacuously perfect


def test_qtable_roundtrip(tmp_path):
    table = QTable()
    rng = np.random.default_rng(8)
    for i in range(40):
        s = TabularState(int(rng.integers(0, 3)), tuple(rng.integers(0, 9, 3)))
        table._writable(s)[:] = rng.uniform(-2, 2, 3)
    path = tmp_path / "qtable.txt"
    save_qtable(table, path)
    loaded = load_qtable(path)
    assert set(loaded.entries) == set(table.entries)
    for key in table.entries:
        assert np.array_equal(loaded.entries[key], table.entries[key])


@pytest.mark.parametrize(
    "line,message",
    [
        ("bogus line without separator", "missing '|'"),
        ("1 2 3 5 | nan 0.0 0.0", "non-finite"),
        ("1 2 3 6 | 0.0 -inf 0.0", "non-finite"),
        ("1 2 3 4 | 0.0 0.0 0.0", "repeated state"),
        ("1 -1 3 4 | 0.0 0.0 0.0", "negative"),
    ],
    ids=["no-separator", "nan", "inf", "repeated", "negative-distance"],
)
def test_qtable_parse_error_names_line(tmp_path, line, message):
    path = tmp_path / "qtable.txt"
    path.write_text(f"1 2 3 4 | 0.5 0.25 -0.125\n{line}\n")
    with pytest.raises(ValueError, match=f":2: {message}"):
        load_qtable(path)


@pytest.mark.parametrize(
    "kwargs",
    [dict(gamma=1.0), dict(alpha=0.0), dict(alpha=1.5), dict(epsilon=-0.1)],
)
def test_hyperparam_bounds(kwargs):
    with pytest.raises(ValueError):
        TabularHyperparams(**kwargs)
