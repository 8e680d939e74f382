"""Run statistics: accuracy metric, CSV persistence, standalone SVG charts,
and `write_lines`, the atomic writer of every artifact file.

A run directory holds one CSV per record family; `_FAMILIES` declares them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import islice
from operator import index, itemgetter

import numpy as np


class CsvParseError(ValueError):
    """A metrics CSV file is malformed; the message names the offending line."""


WINDOW_EPISODES = 100


@dataclass
class RunMetrics:
    steps: list = field(default_factory=list)  # (step, episode, reward, epsilon)
    windows: list = field(default_factory=list)  # (window, mean_reward)
    validations: list = field(default_factory=list)  # (step, mean_rew, acc, is_best)
    passed: int = 0
    collided: int = 0
    episode: int = 0  # episodes finished so far
    episode_rewards: list = field(default_factory=list)  # one sum per finished episode
    _episode_reward: float = field(default=0.0, repr=False)

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
                self.add_window(self.episode // WINDOW_EPISODES - 1, float(np.mean(block)))

    # add_* append as given; write_csv refuses a cell its column's type cannot hold
    def add_step(self, step, episode, reward, epsilon):
        self.steps.append((step, episode, reward, epsilon))

    def add_window(self, window, mean_reward):
        self.windows.append((window, mean_reward))

    def add_validation(self, step, mean_reward, accuracy_pct, is_new_best):
        self.validations.append((step, mean_reward, accuracy_pct, is_new_best))

    def accuracy(self):
        return accuracy(self.passed, self.collided)


def accuracy(passed: int, collided: int):
    """Percentage of cars passed among all resolved cars; None when no car resolved.

    The undefined case is reported as n/a downstream, never as 0 or 100.
    """
    total = passed + collided
    if total < 1:
        return None
    return 100.0 * passed / total


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


# column type of `accuracy`: a float, or n/a (None) when no car resolved
_FLOAT_OR_NA = "float or n/a"

# One entry per CSV record family: its file, the RunMetrics list it holds
# (None for the single summary row of passed and collided cars), and its
# (column, type) pairs. Both write_csv and read_csv are loops over this table.
_FAMILIES = (
    ("steps.csv", "steps",
     (("step", int), ("episode", int), ("reward", float), ("epsilon", float))),
    ("windows.csv", "windows", (("window", int), ("mean_reward", float))),
    ("validation.csv", "validations",
     (("step", int), ("mean_reward", float), ("accuracy", _FLOAT_OR_NA), ("is_new_best", bool))),
    ("summary.csv", None, (("passed", int), ("collided", int))),
)


def _finite(cells):
    """The cells as floats, checked a block at a time (so a column is never held
    whole); nan and inf, which `_parse` refuses, raise ValueError."""
    cells = map(float, cells)
    for block in iter(lambda: list(islice(cells, 4096)), []):
        if not np.isfinite(block).all():
            bad = next(v for v in block if not math.isfinite(v))
            raise ValueError(f"a number cell must be finite, got {bad!r}")
        yield from block


# Writer of each column type, the inverse of `_parse`: a column's cells in, their text
# out. int takes integers only (numpy ones too), float finite numbers, bool True/False or 1/0.
_WRITERS = {
    int: lambda cells: map(str, map(index, cells)),
    float: lambda cells: map(repr, _finite(cells)),
    bool: lambda cells: map({True: "1", False: "0"}.__getitem__, cells),
    _FLOAT_OR_NA: lambda cells: ("n/a" if v is None else repr(*_finite([v])) for v in cells),
}


def _csv_lines(path, columns, records):
    if any(len(rec) != len(columns) for rec in records):
        raise ValueError(f"{path}: every record must have {len(columns)} cells")
    yield ",".join(name for name, _ in columns)
    cells = [_WRITERS[kind](map(itemgetter(k), records)) for k, (_, kind) in enumerate(columns)]
    yield from map(",".join, zip(*cells))


def write_csv(metrics: RunMetrics, out_dir) -> None:
    for name, attr, columns in _FAMILIES:
        path = os.path.join(out_dir, name)
        records = [(metrics.passed, metrics.collided)] if attr is None else getattr(metrics, attr)
        write_lines(path, _csv_lines(path, columns, records))


def _read_rows(path, header=None):
    """(lineno, cells) per data row, each as wide as the first line, which must
    read `header` unless that is None."""
    with open(path) as fh:
        lines = fh.read().splitlines()
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


def _parse(path, lineno, kind, text):
    """One cell of a column of type `kind`: int, float, bool or _FLOAT_OR_NA."""
    if kind is _FLOAT_OR_NA and text == "n/a":
        return None
    if kind is bool:  # write_csv writes a bool as 1 or 0, nothing else
        if text not in ("0", "1"):
            raise CsvParseError(f"{path}:{lineno}: bad bool {text!r}")
        return text == "1"
    try:
        value = int(text) if kind is int else float(text)
        finite = kind is int or math.isfinite(value)  # no artifact holds nan or inf
    except ValueError:
        finite = False
    if not finite:
        what = "integer" if kind is int else "number"
        raise CsvParseError(f"{path}:{lineno}: bad {what} {text!r}")
    return value


def read_csv(out_dir) -> RunMetrics:
    """Inverse of write_csv for what it writes: `steps`, `windows`, `validations`,
    `passed` and `collided`; every other RunMetrics field keeps its default."""
    metrics = RunMetrics()
    for name, attr, columns in _FAMILIES:
        path = os.path.join(out_dir, name)
        records = [
            tuple(_parse(path, lineno, kind, cell) for (_, kind), cell in zip(columns, cells))
            for lineno, cells in _read_rows(path, [column for column, _ in columns])
        ]
        if attr is None:
            if len(records) != 1:
                raise CsvParseError(f"{path}: expected exactly one summary row")
            metrics.passed, metrics.collided = records[0]
            continue
        for a, b in zip(records, records[1:]):
            if b[0] < a[0]:
                raise CsvParseError(f"{path}: step indices are not monotone")
        setattr(metrics, attr, records)
    return metrics


def read_series(path):
    """(xs, ys) from the first two columns of a CSV with any header, for plotting."""
    rows = _read_rows(path)
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    if len(rows[0][1]) < 2:
        raise CsvParseError(f"{path}:1: need at least two columns")
    xs, ys = [], []
    for lineno, cells in rows:
        xs.append(_parse(path, lineno, float, cells[0]))
        ys.append(_parse(path, lineno, float, cells[1]))
    return xs, ys


# ---------------------------------------------------------------------------
# SVG line chart (deterministic byte output)

SVG_WIDTH = 960
SVG_HEIGHT = 540
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 48
_MARGIN_BOTTOM = 52
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _ticks(lo, hi, n=5):
    if lo == hi:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


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
        clean.append((xs, ys))

    xmin = min(float(xs.min()) for xs, _ in clean)
    xmax = max(float(xs.max()) for xs, _ in clean)
    ymin = min(float(ys.min()) for _, ys in clean)
    ymax = max(float(ys.max()) for _, ys in clean)
    if xmin == xmax:
        xmin, xmax = xmin - 1.0, xmax + 1.0
    if ymin == ymax:
        ymin, ymax = ymin - 1.0, ymax + 1.0

    px0, px1 = _MARGIN_LEFT, SVG_WIDTH - _MARGIN_RIGHT
    py0, py1 = SVG_HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP

    def sx(x):
        return px0 + (x - xmin) / (xmax - xmin) * (px1 - px0)

    def sy(y):
        return py0 + (y - ymin) / (ymax - ymin) * (py1 - py0)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="black"/>',
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="black"/>',
    ]
    if title:
        out.append(
            f'<text x="{SVG_WIDTH // 2}" y="28" font-family="sans-serif" '
            f'font-size="18" text-anchor="middle">{escape(title)}</text>'
        )
    for x in _ticks(xmin, xmax):
        out.append(
            f'<line x1="{sx(x):.2f}" y1="{py0}" x2="{sx(x):.2f}" y2="{py0 + 5}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{sx(x):.2f}" y="{py0 + 20}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{x:.6g}</text>'
        )
    for y in _ticks(ymin, ymax):
        out.append(
            f'<line x1="{px0 - 5}" y1="{sy(y):.2f}" x2="{px0}" y2="{sy(y):.2f}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{px0 - 9}" y="{sy(y) + 4:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end">{y:.6g}</text>'
        )
    for i, (xs, ys) in enumerate(clean):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
    for i, label in enumerate(labels):
        color = _PALETTE[i % len(_PALETTE)]
        ly = py1 + 16 + 18 * i
        out.append(
            f'<line x1="{px1 - 150}" y1="{ly - 4}" x2="{px1 - 120}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{px1 - 112}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{escape(label)}</text>'
        )
    out.append("</svg>")
    write_lines(path, out)
