import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deepcars.env import EnvConfig, Episodes
from deepcars.metrics import (
    CsvParseError,
    RunMetrics,
    accuracy,
    plot_svg,
    read_csv,
    write_csv,
    write_lines,
)

from helpers import metrics_equal, naive_ledger


def test_accuracy_examples():
    assert accuracy(99, 1) == 99.0
    assert accuracy(0, 5) == 0.0
    assert accuracy(9914, 86) == pytest.approx(99.14)


def test_accuracy_undefined_is_signalled():
    assert accuracy(0, 0) is None


@given(passed=st.integers(0, 10**6), collided=st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_accuracy_bounds(passed, collided):
    acc = accuracy(passed, collided)
    if passed + collided == 0:
        assert acc is None
    else:
        assert 0.0 <= acc <= 100.0


def _seeded_play(config, steps, seed):
    """The outcomes of `steps` random-action steps of a stream."""
    stream = Episodes(config, lambda env: env.state, seed)
    rng = np.random.default_rng(seed)
    return [stream.step(lambda s: int(rng.integers(0, 3)))[2] for _ in range(steps)]


@pytest.mark.parametrize(
    "world", [{}, {"max_episode_steps": 3}, {"occupancy_prob": 0.0, "max_episode_steps": 4}],
    ids=["default", "three-step-episodes", "empty-road"],
)
def test_tally_counts_what_record_books(world):
    played = _seeded_play(EnvConfig(**world), 2_500, 8)
    booked, tallied = RunMetrics(), RunMetrics()
    for t, out in enumerate(played, start=1):
        booked.record(t, out, 0.25)
        tallied.tally(out)
    assert tallied.steps == []
    for name in ("passed", "collided", "episode", "windows", "episode_rewards"):
        assert getattr(tallied, name) == getattr(booked, name)
    # the per-episode sums and windows of a ledger written out step by step
    want = naive_ledger([(out, 0.25) for out in played])
    assert metrics_equal(booked, want)
    assert tallied.episode_rewards == want.episode_rewards
    assert tallied.episode == len(want.episode_rewards)
    if world.get("max_episode_steps") is not None:
        assert len(tallied.windows) >= 5  # at least 500 three- or four-step episodes


def _sample_metrics(with_none_accuracy=False):
    m = RunMetrics()
    rng = np.random.default_rng(12)
    episode = 0
    for step in range(1, 101):
        m.add_step(step, episode, float(rng.choice([1.0, -1.0])), float(rng.random()))
        if step % 17 == 0:
            episode += 1
    m.add_window(0, 123.456)
    m.add_window(1, -7.0)
    m.add_validation(50, 198.5, 97.25, True)
    m.add_validation(100, 150.0, None if with_none_accuracy else 99.0, False)
    m.passed = 321
    m.collided = 9
    return m


def test_csv_roundtrip_is_lossless(tmp_path):
    m = _sample_metrics()
    write_csv(m, tmp_path)
    assert metrics_equal(read_csv(tmp_path), m)


def test_csv_roundtrip_with_undefined_accuracy(tmp_path):
    m = _sample_metrics(with_none_accuracy=True)
    write_csv(m, tmp_path)
    back = read_csv(tmp_path)
    assert back.validations[1][2] is None
    assert metrics_equal(back, m)


def test_empty_metrics_writes_headers_only(tmp_path):
    write_csv(RunMetrics(), tmp_path)
    assert (tmp_path / "steps.csv").read_text() == "step,episode,reward,epsilon\n"
    assert (tmp_path / "windows.csv").read_text() == "window,mean_reward\n"
    assert (
        tmp_path / "validation.csv"
    ).read_text() == "step,mean_reward,accuracy,is_new_best\n"
    back = read_csv(tmp_path)
    assert metrics_equal(back, RunMetrics())


def test_wrong_column_count_names_line(tmp_path):
    write_csv(_sample_metrics(), tmp_path)
    path = tmp_path / "windows.csv"
    path.write_text("window,mean_reward\n0,1.5\n1,2.5,extra\n")
    with pytest.raises(CsvParseError, match=r"windows\.csv:3"):
        read_csv(tmp_path)


@pytest.mark.parametrize("cell", ["2", "-1"])
def test_bool_cell_other_than_0_or_1_names_line(tmp_path, cell):
    # write_csv writes a bool as 1 or 0; any other integer once read back as True
    write_csv(_sample_metrics(), tmp_path)
    path = tmp_path / "validation.csv"
    path.write_text("step,mean_reward,accuracy,is_new_best\n"
                    f"50,198.5,97.25,1\n100,150.0,99.0,{cell}\n")
    with pytest.raises(CsvParseError, match=rf"validation\.csv:3: bad bool '{cell}'"):
        read_csv(tmp_path)


def test_non_monotone_steps_rejected(tmp_path):
    write_csv(_sample_metrics(), tmp_path)
    path = tmp_path / "steps.csv"
    path.write_text("step,episode,reward,epsilon\n5,0,1.0,0.5\n3,0,1.0,0.5\n")
    with pytest.raises(CsvParseError, match="monotone"):
        read_csv(tmp_path)


def test_failed_csv_write_keeps_old_file(tmp_path):
    write_csv(_sample_metrics(), tmp_path)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    bad = RunMetrics()
    bad.add_step(1, 0, 1.0, 0.5)
    bad.steps.append((2, 0, "not a number", 0.5))
    with pytest.raises(ValueError):
        write_csv(bad, tmp_path)
    after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert after == before  # steps.csv keeps its old bytes, and no temp file is left


def test_numpy_cells_are_written_by_their_column_type(tmp_path):
    # the public lists may hold numpy scalars; each cell is written as its column's
    # type says (an np.int64 step was once written as 1.0, and np.True_ as 1.0),
    # so the file reads back, with the same bytes as Python-typed records
    m = RunMetrics(
        steps=[(np.int64(1), np.int64(0), np.float64(1.0), np.float64(0.5)), (2, 0, -1.0, 0.25)],
        windows=[(np.int64(0), np.float64(123.456))],
        validations=[(np.int64(300), 200.0, None, np.True_),
                     (400, np.float64(150.5), np.float64(97.25), np.False_)],
        passed=np.int64(321),
        collided=np.int64(9),
    )
    plain = RunMetrics(
        steps=[(1, 0, 1.0, 0.5), (2, 0, -1.0, 0.25)],
        windows=[(0, 123.456)],
        validations=[(300, 200.0, None, True), (400, 150.5, 97.25, False)],
        passed=321,
        collided=9,
    )
    write_csv(m, tmp_path / "numpy")
    write_csv(plain, tmp_path / "plain")
    for name in os.listdir(tmp_path / "plain"):
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert (tmp_path / "numpy" / "steps.csv").read_text().splitlines()[1] == "1,0,1.0,0.5"
    assert (tmp_path / "numpy" / "validation.csv").read_text().splitlines()[1] == "300,200.0,n/a,1"
    back = read_csv(tmp_path / "numpy")
    assert metrics_equal(back, plain)
    assert (back.steps, back.windows, back.validations) == (m.steps, m.windows, m.validations)


@pytest.mark.parametrize(
    "family,record,error",
    [
        ("steps", (1, 0, None, 0.5), TypeError),  # once written as n/a, which no reader took
        ("steps", (1.0, 0, 1.0, 0.5), TypeError),  # a float step is not an integer
        ("windows", (0, "not a number"), ValueError),
        ("validations", (1, None, 50.0, True), TypeError),  # n/a only under accuracy
        ("validations", (1, 1.0, 50.0, None), KeyError),
        ("steps", (1, 0, 1.0), ValueError),  # too few cells
        ("steps", (1, 0, 1.0, 0.5, 7), ValueError),  # too many cells
        # nan and inf were once written, and then refused by read_csv
        ("steps", (1, 0, float("nan"), 0.5), ValueError),
        ("steps", (1, 0, 1.0, float("inf")), ValueError),
        ("windows", (0, float("-inf")), ValueError),
        ("validations", (1, float("nan"), 50.0, True), ValueError),
        ("validations", (1, 1.0, float("inf"), False), ValueError),
        ("validations", (1, 1.0, np.float64("-inf"), False), ValueError),
    ],
)
def test_cell_its_column_cannot_hold_is_refused_at_write_time(tmp_path, family, record, error):
    write_csv(_sample_metrics(), tmp_path)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    bad = _sample_metrics()
    getattr(bad, family).append(record)
    with pytest.raises(error):
        write_csv(bad, tmp_path)
    after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert after == before  # every file keeps its old bytes, and no temp file is left


def test_write_lines_failing_iterator_keeps_old_file(tmp_path):
    path = tmp_path / "sub" / "artifact.txt"
    write_lines(path, ["old", "lines"])  # creates the missing directory

    def lines():
        yield "new"
        raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError, match="mid-write"):
        write_lines(path, lines())
    assert path.read_bytes() == b"old\nlines\n"
    assert os.listdir(path.parent) == ["artifact.txt"]


def test_plot_single_constant_series_horizontal(tmp_path):
    path = tmp_path / "chart.svg"
    plot_svg([([0, 1, 2], [5.0, 5.0, 5.0])], ["flat"], path)
    text = path.read_text()
    assert text.count("<polyline") == 1
    points = text.split('points="')[1].split('"')[0]
    ys = {pair.split(",")[1] for pair in points.split()}
    assert len(ys) == 1  # one shared y pixel: a horizontal line


def test_plot_two_series_legend_order(tmp_path):
    path = tmp_path / "chart.svg"
    plot_svg(
        [([0, 1], [0.0, 1.0]), ([0, 1], [1.0, 0.0])], ["first", "second"], path
    )
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert text.index(">first<") < text.index(">second<")


def test_plot_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    series = [([0, 1, 2, 3], [0.5, 2.5, 1.5, 3.0])]
    plot_svg(series, ["run"], a, title="t")
    plot_svg(series, ["run"], b, title="t")
    assert a.read_bytes() == b.read_bytes()


def test_plot_rejects_empty_series(tmp_path):
    with pytest.raises(ValueError):
        plot_svg([], [], tmp_path / "x.svg")
    with pytest.raises(ValueError):
        plot_svg([([], [])], ["empty"], tmp_path / "x.svg")
