import hashlib
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deepcars.env import EnvConfig, Episodes
from deepcars.net import init_params, load_model, save_model
from deepcars.metrics import (
    CsvParseError,
    RunMetrics,
    plot_svg,
    read_csv,
    read_series,
    write_csv,
    write_lines,
)
from deepcars.tabular import load_qtable, save_qtable

from helpers import metrics_equal, naive_ledger


def accuracy(passed, collided):
    return RunMetrics(passed=passed, collided=collided).accuracy()


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
    m.windows += [(0, 123.456), (1, -7.0)]
    m.validations += [(50, 198.5, 97.25, True),
                      (100, 150.0, None if with_none_accuracy else 99.0, False)]
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


@pytest.mark.parametrize("row, what, cell", [
    ("1_0,0,1.0,0.5", "integer", "1_0"),
    ("10, 0,1.0,0.5", "integer", " 0"),
    ("10,0,1,0.5", "number", "1"),
    ("10,0,1.0,+0.5", "number", "+0.5"),
])
def test_cell_other_than_its_written_text_names_line(tmp_path, row, what, cell):
    # int() and float() read each of these cells, though write_csv never writes them
    write_csv(_sample_metrics(), tmp_path)
    path = tmp_path / "steps.csv"
    path.write_text(f"step,episode,reward,epsilon\n5,0,1.0,0.5\n{row}\n")
    with pytest.raises(CsvParseError, match=re.escape(f"steps.csv:3: bad {what} '{cell}'")):
        read_csv(tmp_path)
    # a plot takes any CSV: its columns need only read as finite numbers
    assert read_series(path) == ([5.0, 10.0], [0.0, 0.0])


def test_non_monotone_steps_rejected(tmp_path):
    write_csv(_sample_metrics(), tmp_path)
    path = tmp_path / "steps.csv"
    path.write_text("step,episode,reward,epsilon\n5,0,1.0,0.5\n3,0,1.0,0.5\n")
    with pytest.raises(CsvParseError, match="monotone"):
        read_csv(tmp_path)


@pytest.mark.parametrize("rows", ["", "3,1\n4,0\n"], ids=["none", "two"])
def test_summary_other_than_one_row_is_refused(tmp_path, rows):
    write_csv(_sample_metrics(), tmp_path)
    (tmp_path / "summary.csv").write_text("passed,collided\n" + rows)
    with pytest.raises(CsvParseError, match="summary.csv: expected exactly one summary row"):
        read_csv(tmp_path)


def test_failed_csv_write_keeps_old_file(tmp_path):
    write_csv(_sample_metrics(), tmp_path)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    bad = RunMetrics()
    bad.add_step(1, 0, 1.0, 0.5)
    bad.add_step(2, 0, float("nan"), 0.5)  # booked, but refused by write_csv
    with pytest.raises(ValueError):
        write_csv(bad, tmp_path)
    after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert after == before  # steps.csv keeps its old bytes, and no temp file is left


def test_numpy_cells_are_written_by_their_column_type(tmp_path):
    # the public lists and add_step may take numpy scalars; each cell is written as
    # its column's type says (an np.int64 step was once written as 1.0, and np.True_
    # as 1.0), so the file reads back, with the same bytes as Python-typed records
    m = RunMetrics(
        windows=[(np.int64(0), np.float64(123.456))],
        validations=[(np.int64(300), 200.0, None, np.True_),
                     (400, np.float64(150.5), np.float64(97.25), np.False_)],
        passed=np.int64(321),
        collided=np.int64(9),
    )
    m.add_step(np.int64(1), np.int64(0), np.float64(1.0), np.float64(0.5))
    m.add_step(2, 0, -1.0, 0.25)
    plain = RunMetrics(
        windows=[(0, 123.456)],
        validations=[(300, 200.0, None, True), (400, 150.5, 97.25, False)],
        passed=321,
        collided=9,
    )
    plain.add_step(1, 0, 1.0, 0.5)
    plain.add_step(2, 0, -1.0, 0.25)
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
        # a windows or validations record of another width, which write_csv counts
        ("windows", (0, 1.0, 2.0), ValueError),
        ("validations", (1, 1.0, 50.0), ValueError),
    ],
)
def test_cell_its_column_cannot_hold_is_refused_at_write_time(tmp_path, family, record, error):
    write_csv(_sample_metrics(), tmp_path)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    bad = _sample_metrics()
    bad.add_step(101, 9, 1.0, 0.0)  # a row the old steps.csv lacks, so replacing it would show
    with pytest.raises(error):
        # a step row goes in through add_step, whose typed columns refuse a cell they
        # cannot hold, and a row of another width, before write_csv is reached
        if family == "steps":
            bad.add_step(*record)
        else:
            getattr(bad, family).append(record)
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


# a saved artifact of each kind: (file name, save to a path, load from it)
_ARTIFACTS = {
    "steps": ("steps.csv", lambda path: write_csv(_sample_metrics(), path.parent),
              lambda path: read_csv(path.parent)),
    "qtable": ("qtable.txt", lambda path: save_qtable({(1, 2, 3, 4): [0.5, 0.25, -0.125]}, path),
               load_qtable),
    "model": ("model.txt", lambda path: save_model(init_params([43, 4, 3], 0), path), load_model),
}


def _crlf(text):
    return text.replace(b"\n", b"\r\n")


def _unterminated(text):
    return text[:-1]


def _blank_first_line(text):
    return b"\n" + text


@pytest.mark.parametrize("kind, edit, message", [
    ("steps", _crlf, ":1: expected header"),
    ("steps", _unterminated, ":101: missing newline at end of file"),
    ("qtable", _crlf, ":1: malformed record"),
    ("qtable", _unterminated, ":1: missing newline at end of file"),
    ("qtable", _blank_first_line, ":1: missing '|' separator"),
    ("model", _crlf, r": unsupported model format 'deepcars-mlp-v1\\r'"),  # the format line
    ("model", _unterminated, ":7: missing newline at end of file"),
], ids=["steps-crlf", "steps-unterminated", "qtable-crlf",
        "qtable-unterminated", "qtable-leading-blank-line", "model-crlf", "model-unterminated"])
def test_artifact_is_read_only_as_written_lines(tmp_path, kind, edit, message):
    # every artifact file is read through read_lines, which takes "\n" as the only
    # line end and refuses text after the last one
    name, save, load = _ARTIFACTS[kind]
    path = tmp_path / name
    save(path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match="^" + re.escape(str(path)) + message):
        load(path)


def test_plot_reads_a_crlf_csv_without_a_final_newline(tmp_path):
    # read_series takes foreign files, which no run wrote through write_lines
    path = tmp_path / "foreign.csv"
    path.write_bytes(b"x,y\r\n1,2.5\r\n3,-4.0")
    assert read_series(path) == ([1.0, 3.0], [2.5, -4.0])


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


def test_plot_bytes_without_a_title_are_pinned(tmp_path):
    # no title, a y range that is one value (widened by 1 each way) and a label to
    # escape; the digest of plot/curves.svg in cli_digests.txt pins a titled chart
    path = tmp_path / "chart.svg"
    plot_svg([([0, 1, 2], [5.0, 5.0, 5.0]), ([0.5, 2], [5.0, 5.0])], ["a<b & c", "flat"], path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "540a4fbf5156828108a95cc0677767f8b5614280ccf6ea6288786f9c10fa9795"


@pytest.mark.parametrize("value", [1e17, -1e17, 2.0**60, 1e300, -1.5e308], ids=repr)
@pytest.mark.parametrize("axis", ["xs", "ys"])
def test_plot_widens_a_flat_range_where_1_is_lost_to_rounding(tmp_path, value, axis):
    # 1e17 +/- 1 rounds back to 1e17, so the widened span was 0: "float division by zero"
    flat, rising = [value, value], [0.0, 1.0]
    series = [(flat, rising) if axis == "xs" else (rising, flat)]
    path = tmp_path / "chart.svg"
    plot_svg(series, ["flat"], path)
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    points = text.split('points="')[1].split('"')[0].split()
    middle = "504.00" if axis == "xs" else "268.00"  # the flat value sits mid-axis
    assert {p.split(",")[0 if axis == "xs" else 1] for p in points} == {middle}


@pytest.mark.parametrize("values", [[-1e308, 1e308], [0.0, 1.7e308], [9e307, 1.7e308]],
                         ids=["span", "span-from-0", "ticks"])
@pytest.mark.parametrize("axis", ["xs", "ys"])
def test_plot_refuses_a_range_that_overflows_before_writing(tmp_path, values, axis):
    # hi - lo (or a tick, lo + span * i / 4) overflowed to inf, and the chart was
    # written with nan coordinates
    series = [(values, [0.0, 1.0]) if axis == "xs" else ([0.0, 1.0], values)]
    path = tmp_path / "chart.svg"
    with pytest.raises(ValueError, match="the range overflows"):
        plot_svg(series, ["wide"], path)
    assert not path.exists()


def _tick_labels_of(path, axis):
    """The five tick labels a chart in `path` writes on `axis`, "xs" or "ys", in order."""
    anchor = "middle" if axis == "xs" else "end"
    return re.findall(rf'text-anchor="{anchor}">([^<]*)</text>', path.read_text())


def _chart_on(tmp_path, axis, values):
    """Chart `values` on `axis` against 0, 1, ...; the path of the chart, which has no title."""
    other = [float(i) for i in range(len(values))]
    path = tmp_path / "chart.svg"
    plot_svg([(values, other) if axis == "xs" else (other, values)], ["run"], path)
    return path


@pytest.mark.parametrize("axis", ["xs", "ys"])
def test_plot_labels_a_range_narrow_against_its_magnitude_apart(tmp_path, axis):
    # at 6 digits every tick of 1e6 .. 1e6 + 0.5 read "1e+06"; 8 is the fewest that differ
    path = _chart_on(tmp_path, axis, [1000000.0, 1000000.5])
    assert _tick_labels_of(path, axis) == [
        "1000000", "1000000.1", "1000000.2", "1000000.4", "1000000.5"]


@pytest.mark.parametrize("value", [1e17, -1e17, 2.0**60], ids=repr)
@pytest.mark.parametrize("axis", ["xs", "ys"])
def test_plot_labels_a_flat_range_widened_past_2_53_apart(tmp_path, value, axis):
    # widened by two units in the last place each way, the ticks differ only in the
    # 17th digit; at 6 digits all five labels read the same
    labels = _tick_labels_of(_chart_on(tmp_path, axis, [value, value]), axis)
    assert len(set(labels)) == 5
    assert [float(label) for label in labels] == sorted(float(label) for label in labels)
    assert float(labels[2]) == value


@pytest.mark.parametrize("axis", ["xs", "ys"])
def test_plot_labels_ticks_that_are_not_distinct_with_17_digits(tmp_path, axis):
    # a span of one unit in the last place rounds the five ticks onto its two ends,
    # so no digit count tells the labels apart; 17 digits name each tick exactly
    top = math.nextafter(1.0, 2.0)
    labels = _tick_labels_of(_chart_on(tmp_path, axis, [1.0, top]), axis)
    assert [float(label) for label in labels] == [1.0, 1.0, 1.0, top, top]
    assert labels[-1] == "1.0000000000000002"


def test_plot_rejects_empty_series(tmp_path):
    with pytest.raises(ValueError):
        plot_svg([], [], tmp_path / "x.svg")
    with pytest.raises(ValueError):
        plot_svg([([], [])], ["empty"], tmp_path / "x.svg")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("axis", ["xs", "ys"])
def test_plot_refuses_a_non_finite_value_and_names_its_series(tmp_path, bad, axis):
    # once written as "nan" or "inf" coordinates, with only a RuntimeWarning
    values = [0.0, bad, 2.0]
    series = [([0, 1, 2], [0.0, 1.0, 2.0]),
              (values, [0.0, 1.0, 2.0]) if axis == "xs" else ([0, 1, 2], values)]
    path = tmp_path / "x.svg"
    with pytest.raises(ValueError, match=r"^series 1 \('second'\) holds a non-finite value"):
        plot_svg(series, ["first", "second"], path)
    assert not path.exists()


def test_steps_is_a_new_list_of_the_booked_rows():
    booked = [(1, 0, 1.0, 0.5), (2, 1, -1.0, 0.25)]
    m = RunMetrics()
    for row in booked:
        m.add_step(*row)
    rows = m.steps
    assert type(rows) is list and rows == booked and rows is not m.steps
    assert [[type(cell) for cell in row] for row in rows] == [[int, int, float, float]] * 2
    rows[0] = (9, 9, 9.0, 9.0)
    rows.append((3, 1, 1.0, 0.125))
    del rows[1]
    assert m.steps == booked  # a copy: changing it leaves the ledger as it was
    with pytest.raises(AttributeError):
        m.steps = []
    m.add_step(3, 1, 1.0, 0.125)
    assert m.steps == booked + [(3, 1, 1.0, 0.125)]  # built anew on each read


@pytest.mark.parametrize(
    "row,error",
    [
        ((1.0, 0, 1.0, 0.5), TypeError),  # a float step
        ((1, None, 1.0, 0.5), TypeError),
        ((1, 0, None, 0.5), TypeError),
        ((1, 0, 1.0, "0.5"), TypeError),
        ((1, 2**63, 1.0, 0.5), OverflowError),
        ((1, 0, 1.0), ValueError),
        ((1, 0, 1.0, 0.5, 7), ValueError),
    ],
)
def test_refused_step_row_leaves_no_part_of_itself(row, error):
    m = _sample_metrics()
    before = list(m.steps)
    with pytest.raises(error):
        m.add_step(*row)
    # a cell left behind in one column would pair the next row's cells with it
    m.add_step(101, 7, 1.0, 0.125)
    assert list(m.steps) == before + [(101, 7, 1.0, 0.125)]


def test_step_ledger_holds_at_most_40_bytes_a_step():
    # 136.5 B a step as a list of tuples; four typed columns hold 32 B and their slack
    steps = 50_000
    m = RunMetrics()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for t in range(1, steps + 1):
            m.add_step(t, t // 37, -1.0 if t % 37 == 0 else 1.0, 0.05 + 1.0 / t)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(m.steps) == steps and m.steps[-1] == (steps, steps // 37, 1.0, 0.05 + 1.0 / steps)
    assert held / steps <= 40, f"{held / steps:.1f} B a step"
