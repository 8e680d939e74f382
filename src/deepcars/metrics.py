"""Run statistics: accuracy metric, CSV persistence, standalone SVG charts.

CSV layout (one file per record family, written into a directory):
    steps.csv       step,episode,reward,epsilon
    windows.csv     window,mean_reward
    validation.csv  step,mean_reward,accuracy,is_new_best
    summary.csv     passed,collided
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

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
    _episode_reward: float = field(default=0.0, repr=False)
    _window: list = field(default_factory=list, repr=False)  # finished episodes' rewards

    def record(self, step, outcome, epsilon):
        """Book one environment step: its row, its cars, and the episode it ends."""
        self.add_step(step, self.episode, outcome.reward, epsilon)
        self.passed += outcome.cars_passed_this_step
        if outcome.terminal and outcome.reward < 0:
            # a collision ends the episode, so the episode counter is the delta
            self.collided += outcome.next_state.collided_count
        self._episode_reward += outcome.reward
        if outcome.terminal:
            self._window.append(self._episode_reward)
            if len(self._window) == WINDOW_EPISODES:
                self.add_window(self.episode // WINDOW_EPISODES, float(np.mean(self._window)))
                self._window = []
            self.episode += 1
            self._episode_reward = 0.0

    def add_step(self, step, episode, reward, epsilon):
        self.steps.append((int(step), int(episode), float(reward), float(epsilon)))

    def add_window(self, window, mean_reward):
        self.windows.append((int(window), float(mean_reward)))

    def add_validation(self, step, mean_reward, accuracy_pct, is_new_best):
        self.validations.append(
            (
                int(step),
                float(mean_reward),
                None if accuracy_pct is None else float(accuracy_pct),
                bool(is_new_best),
            )
        )

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
# CSV persistence


def _write_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_csv(metrics: RunMetrics, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_rows(
        os.path.join(out_dir, "steps.csv"),
        ("step", "episode", "reward", "epsilon"),
        ([_fmt(v) for v in rec] for rec in metrics.steps),
    )
    _write_rows(
        os.path.join(out_dir, "windows.csv"),
        ("window", "mean_reward"),
        ([_fmt(v) for v in rec] for rec in metrics.windows),
    )
    _write_rows(
        os.path.join(out_dir, "validation.csv"),
        ("step", "mean_reward", "accuracy", "is_new_best"),
        ([_fmt(v) for v in rec] for rec in metrics.validations),
    )
    _write_rows(
        os.path.join(out_dir, "summary.csv"),
        ("passed", "collided"),
        [[str(metrics.passed), str(metrics.collided)]],
    )


def _read_rows(path, header):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(header):
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


def _parse_float(path, lineno, text):
    try:
        return float(text)
    except ValueError:
        raise CsvParseError(f"{path}:{lineno}: bad number {text!r}") from None


def _parse_int(path, lineno, text):
    try:
        return int(text)
    except ValueError:
        raise CsvParseError(f"{path}:{lineno}: bad integer {text!r}") from None


def _check_monotone(path, values):
    for a, b in zip(values, values[1:]):
        if b < a:
            raise CsvParseError(f"{path}: step indices are not monotone")


def read_csv(out_dir) -> RunMetrics:
    """Exact inverse of write_csv."""
    metrics = RunMetrics()
    path = os.path.join(out_dir, "steps.csv")
    for lineno, (step, episode, reward, epsilon) in _read_rows(
        path, ("step", "episode", "reward", "epsilon")
    ):
        metrics.steps.append(
            (
                _parse_int(path, lineno, step),
                _parse_int(path, lineno, episode),
                _parse_float(path, lineno, reward),
                _parse_float(path, lineno, epsilon),
            )
        )
    _check_monotone(path, [rec[0] for rec in metrics.steps])

    path = os.path.join(out_dir, "windows.csv")
    for lineno, (window, mean_reward) in _read_rows(path, ("window", "mean_reward")):
        metrics.windows.append(
            (_parse_int(path, lineno, window), _parse_float(path, lineno, mean_reward))
        )
    _check_monotone(path, [rec[0] for rec in metrics.windows])

    path = os.path.join(out_dir, "validation.csv")
    for lineno, (step, mean_reward, acc, best) in _read_rows(
        path, ("step", "mean_reward", "accuracy", "is_new_best")
    ):
        metrics.validations.append(
            (
                _parse_int(path, lineno, step),
                _parse_float(path, lineno, mean_reward),
                None if acc == "n/a" else _parse_float(path, lineno, acc),
                bool(_parse_int(path, lineno, best)),
            )
        )
    _check_monotone(path, [rec[0] for rec in metrics.validations])

    path = os.path.join(out_dir, "summary.csv")
    rows = _read_rows(path, ("passed", "collided"))
    if len(rows) != 1:
        raise CsvParseError(f"{path}: expected exactly one summary row")
    lineno, (passed, collided) = rows[0]
    metrics.passed = _parse_int(path, lineno, passed)
    metrics.collided = _parse_int(path, lineno, collided)
    return metrics


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
            f'font-size="18" text-anchor="middle">{title}</text>'
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
            f'font-size="12">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
