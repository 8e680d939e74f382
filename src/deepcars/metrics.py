"""Run statistics: accuracy metric, CSV persistence, standalone SVG charts,
`write_lines`, the atomic writer of every artifact file, and `read_lines`,
its reader.

A run directory holds one CSV per record family; `_FAMILIES` declares them.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass, field
from itertools import pairwise
from operator import index

import numpy as np


class CsvParseError(ValueError):
    """A metrics CSV file is malformed; the message names the offending line."""


WINDOW_EPISODES = 100

# The columns of steps.csv. RunMetrics keeps the step rows as one typed array per
# column, its typecode set by the column's type, so a step costs 8 bytes a cell.
_STEP_COLUMNS = (("step", int), ("episode", int), ("reward", float), ("epsilon", float))
_TYPECODES = {int: "q", float: "d"}


def _step_columns(cells=((),) * len(_STEP_COLUMNS)):
    """One typed array per steps.csv column, holding that column's `cells`."""
    return tuple(array(_TYPECODES[kind], column) for (_, kind), column in zip(_STEP_COLUMNS, cells))


@dataclass
class RunMetrics:
    # windows and validations are appended to directly; write_csv refuses a bad cell
    windows: list = field(default_factory=list)  # (window, mean_reward)
    validations: list = field(default_factory=list)  # (step, mean_rew, acc, is_best)
    passed: int = 0
    collided: int = 0
    episode: int = 0  # episodes finished so far
    episode_rewards: list = field(default_factory=list)  # one sum per finished episode
    _episode_reward: float = field(default=0.0, repr=False)
    _steps: tuple = field(default_factory=_step_columns, init=False, repr=False)

    @property
    def steps(self) -> list:
        """A new list of the booked (step, episode, reward, epsilon) rows; no run reads it."""
        return list(zip(*self._steps))

    def record(self, step, outcome, epsilon):
        """Book one environment step: its row, then its tally."""
        self.add_step(step, self.episode, outcome.reward, epsilon)
        self.tally(outcome)

    def tally(self, outcome):
        """Count one step's cars and reward, and the episode it ends; each
        100th finished episode closes a window with the mean of its block."""
        self.passed += outcome.cars_passed_this_step
        self.collided += outcome.cars_collided_this_step
        self._episode_reward += outcome.reward
        if outcome.terminal:
            self.episode_rewards.append(self._episode_reward)
            self.episode += 1
            self._episode_reward = 0.0
            if self.episode % WINDOW_EPISODES == 0:
                block = self.episode_rewards[-WINDOW_EPISODES:]
                self.windows.append((self.episode // WINDOW_EPISODES - 1, float(np.mean(block))))

    def add_step(self, *row):
        """Append one (step, episode, reward, epsilon) row. A row of another width
        raises ValueError, and a cell its column's array cannot hold (a float or
        None step, a None or text reward) TypeError; neither leaves a part of the row."""
        step, episode, reward, epsilon = row
        steps, episodes, rewards, epsilons = columns = self._steps
        try:
            steps.append(step)
            episodes.append(episode)
            rewards.append(reward)
            epsilons.append(epsilon)
        except (TypeError, OverflowError):
            for column in columns:
                del column[len(epsilons):]
            raise

    def accuracy(self):
        """Percentage of cars passed among all resolved cars; None when no car
        resolved, which is reported as n/a downstream, never as 0 or 100."""
        total = self.passed + self.collided
        if total < 1:
            return None
        return 100.0 * self.passed / total


# ---------------------------------------------------------------------------
# artifact files and CSV persistence


def write_lines(path, lines) -> None:
    """Write `lines` (strings without their newline) to `path` atomically.

    The lines stream into a temp file beside `path`, which replaces `path`
    only once all of them are written: a failure or a killed process leaves
    any old file intact. Every artifact of a run is written through here;
    the parent directory is created on demand.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_lines(path) -> list[str]:
    """The lines of `path` without their newline: the inverse of `write_lines`.

    Only "\n" ends a line, so a "\r" stays in its line's text, where each
    format's as-written check refuses it; text after the last newline is
    refused here. Every artifact file is read through here.
    """
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    if lines.pop():
        raise ValueError(f"{path}:{len(lines) + 1}: missing newline at end of file")
    return lines


# column type of `accuracy`: a float, or n/a (None) when no car resolved
_FLOAT_OR_NA = "float or n/a"

# One entry per CSV record family: its file, the RunMetrics attribute that holds
# it (None for the single summary row of passed and collided cars), and its
# (column, type) pairs. Both write_csv and read_csv are loops over this table;
# the steps family is held as columns, the others as lists of records.
_FAMILIES = (
    ("steps.csv", "steps", _STEP_COLUMNS),
    ("windows.csv", "windows", (("window", int), ("mean_reward", float))),
    ("validation.csv", "validations",
     (("step", int), ("mean_reward", float), ("accuracy", _FLOAT_OR_NA), ("is_new_best", bool))),
    ("summary.csv", None, (("passed", int), ("collided", int))),
)


def _finite(cells):
    """The cells as floats, checked one at a time (so a column is never held
    whole); nan and inf, which `_parse` refuses, raise ValueError."""
    for value in map(float, cells):
        if not math.isfinite(value):
            raise ValueError(f"a number cell must be finite, got {value!r}")
        yield value


# Writer of each column type, the inverse of `_parse`: a column's cells in, their text
# out. int takes integers only (numpy ones too), float finite numbers, bool True/False or 1/0.
_WRITERS = {
    int: lambda cells: map(str, map(index, cells)),
    float: lambda cells: map(repr, _finite(cells)),
    bool: lambda cells: map({True: "1", False: "0"}.__getitem__, cells),
    _FLOAT_OR_NA: lambda cells: ("n/a" if v is None else repr(*_finite([v])) for v in cells),
}


def _csv_lines(columns, cells):
    """The header of `columns`, then one line per row of `cells`, which holds one
    iterable per column; each goes straight to its column type's writer."""
    yield ",".join(name for name, _ in columns)
    yield from map(",".join, zip(*(_WRITERS[kind](column)
                                   for (_, kind), column in zip(columns, cells))))


def write_csv(metrics: RunMetrics, out_dir) -> list[str]:
    """Write one CSV per family and return their paths, in `_FAMILIES` order.
    A bad cell raises before any file is replaced: the small families are
    rendered first, and steps.csv, which streams from the ledger's own columns
    (no row is built), is written before the others."""
    files = []
    for name, attr, columns in _FAMILIES:
        path = os.path.join(out_dir, name)
        if attr == "steps":
            files.append((path, _csv_lines(columns, metrics._steps)))
            continue
        records = [(metrics.passed, metrics.collided)] if attr is None else getattr(metrics, attr)
        if any(len(rec) != len(columns) for rec in records):
            raise ValueError(f"{path}: every record must have {len(columns)} cells")
        files.append((path, list(_csv_lines(columns, list(zip(*records))))))
    for path, lines in files:
        write_lines(path, lines)
    return [path for path, _ in files]


def _read_rows(path, lines, header=None):
    """(lineno, cells) per data row of the `lines` of `path`, each as wide as the
    first line, which must read `header` unless that is None."""
    if not lines:
        raise CsvParseError(f"{path}:1: empty file")
    if header is None:
        header = lines[0].split(",")
    elif lines[0] != ",".join(header):
        raise CsvParseError(f"{path}:1: expected header {','.join(header)!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise CsvParseError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        rows.append((lineno, cells))
    return rows


# Reader of each column type: a cell's text in, its value out. `_parse` keeps the
# values only if the column's writer gives back the same text.
_READERS = {
    int: int,
    float: float,
    bool: lambda text: bool(int(text)),
    _FLOAT_OR_NA: lambda text: None if text == "n/a" else float(text),
}


def _parse(path, rows, k, kind, exact=True):
    """Column `k` of `rows` ((lineno, cells) pairs) as values of type `kind`: int,
    float, bool or _FLOAT_OR_NA. Each cell must be the text `_WRITERS[kind]` writes
    for its value, so `1_0` and ` 1` (int), `1` and `+0.5` (float) and `2` (bool)
    are refused, and so are nan and inf, which no writer takes; `exact=False`
    takes any text of a writable value."""
    read, write = _READERS[kind], _WRITERS[kind]
    values = []
    for lineno, cells in rows:
        try:
            values.append(read(cells[k]))
            good = next(write(values[-1:])) == cells[k] or not exact
        except ValueError:
            good = False
        if not good:
            what = {int: "integer", bool: "bool"}.get(kind, "number")
            raise CsvParseError(f"{path}:{lineno}: bad {what} {cells[k]!r}")
    return values


def read_csv(out_dir) -> RunMetrics:
    """Inverse of write_csv for what it writes: `steps`, `windows`, `validations`,
    `passed` and `collided`; every other RunMetrics field keeps its default."""
    metrics = RunMetrics()
    for name, attr, columns in _FAMILIES:
        path = os.path.join(out_dir, name)
        rows = _read_rows(path, read_lines(path), [column for column, _ in columns])
        cells = [_parse(path, rows, k, kind) for k, (_, kind) in enumerate(columns)]
        if attr is None:
            if len(rows) != 1:
                raise CsvParseError(f"{path}: expected exactly one summary row")
            metrics.passed, metrics.collided = (column[0] for column in cells)
        elif any(b < a for a, b in pairwise(cells[0])):
            raise CsvParseError(f"{path}: step indices are not monotone")
        elif attr == "steps":
            metrics._steps = _step_columns(cells)
        else:
            setattr(metrics, attr, list(zip(*cells)))
    return metrics


def read_series(path):
    """(xs, ys) from the first two columns of a CSV with any header, for plotting."""
    with open(path) as fh:  # a plot takes foreign files: any line ends, any last line
        rows = _read_rows(path, fh.read().splitlines())
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    if len(rows[0][1]) < 2:
        raise CsvParseError(f"{path}:1: need at least two columns")
    # a plot takes any CSV, so its cells need only read as finite numbers
    return _parse(path, rows, 0, float, exact=False), _parse(path, rows, 1, float, exact=False)


# ---------------------------------------------------------------------------
# SVG line chart (deterministic byte output)

SVG_WIDTH = 960
SVG_HEIGHT = 540
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 48
_MARGIN_BOTTOM = 52
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _axis(arrays, p0, p1):
    """One chart axis over the values in `arrays`: its five (tick value, label) pairs,
    and the map of a value to its pixel, which takes the data range onto `p0`..`p1`.
    A flat range widens by 1 each way, or by two units in the last place where
    rounding loses 1 (only beyond 2**53); a range whose span or ticks overflow a
    float raises ValueError."""
    lo = min(float(values.min()) for values in arrays)
    hi = max(float(values.max()) for values in arrays)
    if lo == hi:
        pad = 1.0 if lo - 1.0 != hi + 1.0 else 2 * math.ulp(lo)
        lo, hi = lo - pad, hi + pad
    span = hi - lo
    ticks = [lo + span * i / 4 for i in range(5)]
    if not all(map(math.isfinite, ticks)):  # an infinite span makes the first tick nan
        raise ValueError(f"cannot chart values from {lo!r} to {hi!r}: the range overflows")
    return list(zip(ticks, _tick_labels(ticks))), lambda v: p0 + (v - lo) / span * (p1 - p0)


def _tick_labels(ticks):
    """The labels of `ticks`, at the fewest significant digits from 6 up to 17 that
    tell them apart; at 17, which tells any two floats apart, when no fewer do."""
    for digits in range(6, 18):
        labels = [f"{tick:.{digits}g}" for tick in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def _line(x1, y1, x2, y2, stroke="black", width=""):
    """One chart `<line>`; each argument is written as it arrives."""
    width = f' stroke-width="{width}"' if width else ""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{width}/>'


def _text(x, y, body, size=12, anchor=""):
    """One chart `<text>`; `body` must be escaped already."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"{anchor}>'
            f'{body}</text>')


def plot_svg(series, labels, path, title: str = "") -> None:
    """Self-contained SVG 1.1 line chart; one polyline and legend entry per series.

    `series` is a list of (xs, ys) pairs of equal-length non-empty sequences.
    Fixed 960x540 canvas; identical input produces identical bytes.
    """
    # imported here: xml.sax.saxutils pulls in urllib.request, which would add
    # ~6 MB and ~40 ms to every command that imports this module
    from xml.sax.saxutils import escape

    if not series:
        raise ValueError("plot_svg needs at least one series")
    if len(labels) != len(series):
        raise ValueError(f"{len(series)} series but {len(labels)} labels")
    clean = []
    for i, (xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.size == 0 or xs.size != ys.size:
            raise ValueError(f"series {i} is empty or has mismatched lengths")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError(f"series {i} ({labels[i]!r}) holds a non-finite value")
        clean.append((xs, ys))

    px0, px1 = _MARGIN_LEFT, SVG_WIDTH - _MARGIN_RIGHT
    py0, py1 = SVG_HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP
    xticks, sx = _axis([xs for xs, _ in clean], px0, px1)
    yticks, sy = _axis([ys for _, ys in clean], py0, py1)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        _line(px0, py0, px1, py0),
        _line(px0, py0, px0, py1),
    ]
    if title:
        out.append(_text(SVG_WIDTH // 2, 28, escape(title), size=18, anchor="middle"))
    for x, label in xticks:
        out += [_line(f"{sx(x):.2f}", py0, f"{sx(x):.2f}", py0 + 5),
                _text(f"{sx(x):.2f}", py0 + 20, label, anchor="middle")]
    for y, label in yticks:
        out += [_line(px0 - 5, f"{sy(y):.2f}", px0, f"{sy(y):.2f}"),
                _text(px0 - 9, f"{sy(y) + 4:.2f}", label, anchor="end")]
    for i, (xs, ys) in enumerate(clean):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
    for i, label in enumerate(labels):
        color = _PALETTE[i % len(_PALETTE)]
        ly = py1 + 16 + 18 * i
        out += [_line(px1 - 150, ly - 4, px1 - 120, ly - 4, color, 1.5),
                _text(px1 - 112, ly, escape(label))]
    out.append("</svg>")
    write_lines(path, out)
