import numpy as np
import pytest

from deepcars.env import EnvConfig, evaluate
from deepcars.net import NumericError
from deepcars.tabular import (
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
S = (1, 3, 8, 8)
S2 = (2, 8, 0, 8)


def test_q_update_fresh_positive_reward():
    table = {}
    q_update(table, S, 1, 1.0, S2, terminal=False, hp=HP)
    assert np.isclose(table[S][1], 0.1)  # 0 + 0.1 * (1 + 0 - 0)


def test_q_update_fresh_terminal_collision():
    table = {}
    q_update(table, S, 0, -1.0, S2, terminal=True, hp=HP)
    assert np.isclose(table[S][0], -0.1)


def test_q_update_bootstraps_next_state_max():
    table = {S: [0.0, 0.0, 0.5], S2: [0.2, 1.0, -0.3]}
    q_update(table, S, 2, 1.0, S2, terminal=False, hp=HP)
    # 0.5 + 0.1 * (1 + 0.9 * 1.0 - 0.5) = 0.64, recomputed by hand
    assert np.isclose(table[S][2], 0.64)


def test_q_update_changes_exactly_one_cell():
    table = {S: [0.1, 0.2, 0.3], S2: [0.4, 0.5, 0.6]}
    before = {k: list(v) for k, v in table.items()}
    q_update(table, S, 1, 1.0, S2, terminal=False, hp=HP)
    assert table.keys() == before.keys()
    for key, vals in table.items():
        for a in range(3):
            if key == S and a == 1:
                assert vals[a] != before[key][a]
            else:
                assert vals[a] == before[key][a]


def test_q_update_rejects_nonfinite_reward():
    with pytest.raises(NumericError):
        q_update({}, S, 0, float("nan"), S2, terminal=False, hp=HP)


def test_absent_state_reads_zero_without_insert():
    table = {}
    assert select_action(table, S2, 0.0, None) == 0
    q_update(table, S, 1, 1.0, S2, terminal=False, hp=HP)
    assert list(table) == [S]  # the bootstrap read S2 without inserting it
    # a second fresh state starts from zero: the update did not write the shared default
    q_update(table, S2, 1, 1.0, S, terminal=True, hp=HP)
    assert table[S2] == [0.0, 0.1, 0.0]


def test_select_action_greedy_argmax():
    table = {S: [0.1, 0.9, 0.2]}
    assert select_action(table, S, 0.0, np.random.default_rng(0)) == 1


def test_select_action_tie_breaks_lowest_code():
    table = {}
    assert select_action(table, S, 0.0, np.random.default_rng(0)) == 0
    table[S] = [0.5, 0.5, 0.1]
    assert select_action(table, S, 0.0, np.random.default_rng(0)) == 0
    table[S] = [0.1, 0.5, 0.5]
    assert select_action(table, S, 0.0, np.random.default_rng(0)) == 1


def test_select_action_uniform_when_epsilon_one():
    table = {}
    rng = np.random.default_rng(19)
    counts = np.zeros(3)
    draws = 10_000
    for _ in range(draws):
        counts[select_action(table, S, 1.0, rng)] += 1
    expected = draws / 3
    sigma = np.sqrt(draws * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_greedy_invariant_under_positive_scaling():
    rng = np.random.default_rng(4)
    states = [(i % 3, i, 8, 8) for i in range(20)]
    table = {s: rng.uniform(-1, 1, 3).tolist() for s in states}
    before = [select_action(table, s, 0.0, rng) for s in states]
    for s in states:
        table[s] = [7.5 * q for q in table[s]]
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
    assert t1 == t2
    assert m1.steps == m2.steps


@pytest.mark.parametrize("seed", [0, 2**40 + 9])
@pytest.mark.parametrize(
    "world,learner",
    [({}, {}), ({"lanes": 3}, {}), ({"max_episode_steps": 3}, {}),
     ({}, {"epsilon": 0.0, "alpha": 1.0})],
    ids=["default", "three-lanes", "three-step-episodes", "greedy-alpha-one"],
)
def test_training_matches_reference_loop(world, learner, seed):
    # the episode stream against a loop written out with its own env, its own
    # action choice and its own Q-update: episode seeds, action draws, ties,
    # bootstrap on timeouts, every q-value bit and the step ledger
    config = EnvConfig(**world)
    hp = TabularHyperparams(train_steps=3_000, **learner)
    table, metrics = train_tabular(config, hp, seed)
    want_table, want_metrics = naive_train_tabular(config, hp, seed)
    assert table.keys() == want_table.keys()
    for state, want in want_table.items():
        assert [q.hex() for q in table[state]] == [float(q).hex() for q in want]
    assert metrics_equal(metrics, want_metrics)


def test_training_bounds_q_values():
    config = EnvConfig(lanes=3)
    table, _ = train_tabular(config, TabularHyperparams(train_steps=8_000), seed=2)
    bound = 1.0 / (1.0 - HP.gamma)
    for vals in table.values():
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
    trained = evaluate(greedy_policy(table, config), config, steps=5_000, seed=100)
    blank = evaluate(greedy_policy({}, config), config, steps=5_000, seed=100)
    assert trained.accuracy() > blank.accuracy()


@pytest.mark.parametrize(
    "state,world,message",
    [
        ((0, 1, 3, 8), {}, "for 3 lanes"),  # a 3-lane q-table on 5 lanes
        ((4, 3, 8, 8), {"lanes": 3}, "ego lane 4"),  # a 3-lane state whose ego sits in lane 4
        ((0, 8, 2, 8, 8, 1), {"rows": 5}, "distance 8"),  # an 8-row q-table on 5 rows
    ],
    ids=["qtable-lanes", "qtable-ego", "qtable-rows"],
)
def test_greedy_policy_refuses_a_state_its_world_cannot_produce(state, world, message):
    # every lookup of such a table misses, so it once played on as an empty table
    with pytest.raises(ValueError, match=message):
        greedy_policy({state: [0.5, 0.0, -0.5]}, EnvConfig(**world))


def test_greedy_policy_takes_the_edge_states_of_its_world():
    # the last lane, a car beside the ego (0) and a lane with no visible car (rows)
    table = {(4, 0, 8, 8, 8, 8): [0.5, 0.0, -0.5], (0, 8, 8, 8, 8, 0): [0.0, 0.0, 1.0]}
    act, _ = greedy_policy(table, EnvConfig())
    assert act((4, 0, 8, 8, 8, 8)) == 0 and act((0, 8, 8, 8, 8, 0)) == 2


def test_evaluate_empty_environment_vacuous():
    config = EnvConfig(lanes=3, occupancy_prob=0.0)
    run = evaluate(greedy_policy({}, config), config, steps=500, seed=0)
    assert run.collided == 0
    assert run.accuracy() is None  # no cars resolved: vacuously perfect


def test_qtable_roundtrip(tmp_path):
    table = {}
    rng = np.random.default_rng(8)
    for i in range(40):
        s = (int(rng.integers(0, 3)), *rng.integers(0, 9, 3))
        table[s] = list(rng.uniform(-2, 2, 3))  # numpy scalars, as a caller may build
    path = tmp_path / "qtable.txt"
    save_qtable(table, path)
    loaded = load_qtable(path)
    assert loaded == table
    assert all(type(q) is float for qs in loaded.values() for q in qs)


def test_saved_rows_are_the_keys_joined_in_sorted_order(tmp_path):
    config = EnvConfig(lanes=3)
    table, _ = train_tabular(config, TabularHyperparams(train_steps=2_000), seed=6)
    path = tmp_path / "qtable.txt"
    save_qtable(table, path)
    lines = path.read_text().splitlines()
    keys = sorted(table, key=lambda s: (s[0], s[1:]))  # ego lane first, then distances
    assert [line.split(" | ")[0] for line in lines] == [" ".join(map(str, s)) for s in keys]
    assert list(load_qtable(path)) == keys


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
    [dict(gamma=1.0), dict(alpha=0.0), dict(alpha=1.5), dict(epsilon=-0.1),
     dict(train_steps=2.5), dict(train_steps=-1)],
)
def test_hyperparam_bounds(kwargs):
    with pytest.raises(ValueError):
        TabularHyperparams(**kwargs)
