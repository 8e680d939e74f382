"""Command-line entry point: training, evaluation, ASCII demos, and plotting.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Precedence for every
setting is CLI flag > config file > built-in default, and each run drops a
resolved key=value snapshot into its output directory.

Settings are the fields of `EnvConfig`, `TabularHyperparams` and
`DqnHyperparams`: a field's name is its config-file key (and its line in the
snapshot), the type of its default picks the value parser, and its flag is
`--` plus the name with dashes, or the spelling in `FLAG_NAMES`.
"""

from __future__ import annotations

import argparse
import os
import sys
import dataclasses

from . import dqn, metrics as metrics_mod, net, tabular
from .env import Action, EnvConfig, Episodes, evaluate, render_ascii
from .tabular import TabularHyperparams

ARCH_PRESETS = {
    "shallow": (32,),
    "medium": (32, 64, 32),
    "deep": (64, 128, 128, 64),
    "ddqn16": (16,),
    "ddqn16x16": (16, 16),
}


class CliUsageError(ValueError):
    """Bad invocation: unknown key, invalid value, or missing input file."""


def _parse_hidden(text: str):
    try:  # int() refuses an empty or blank part
        sizes = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hidden layer list {text!r}") from None
    return sizes  # DqnHyperparams refuses a size below 1, from a flag or a file alike


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {text!r}")
    return value in ("1", "true", "yes")


# the only fields whose flag is not `--` plus the field name with dashes
FLAG_NAMES = {
    "train_steps": "--steps",
    "target_sync_period": "--target-sync",
    "fast_validation_period": "--fast-val-period",
    "fast_validation_episodes": "--fast-val-episodes",
    "deep_validation_period": "--deep-val-period",
    "deep_validation_episodes": "--deep-val-episodes",
    "hidden_layers": "--hidden",
}


def _value_parser(field):
    """Parser of a flag or config-file value, chosen by the type of the field's default."""
    kind = type(field.default)
    return {bool: _parse_bool, tuple: _parse_hidden}.get(kind, kind)


def _add_fields(parser, cls, groups=None):
    """One flag per field of `cls`, stored under the field name; a flag that is
    a key of `groups` goes into that argument group instead of `parser`."""
    for field in dataclasses.fields(cls):
        flag = FLAG_NAMES.get(field.name, "--" + field.name.replace("_", "-"))
        target = (groups or {}).get(flag, parser)
        if isinstance(field.default, bool):
            target.add_argument(flag, dest=field.name, action="store_true", default=None)
        else:
            target.add_argument(flag, dest=field.name, type=_value_parser(field))


def parse_kv_file(path) -> dict:
    if not os.path.exists(path):
        raise CliUsageError(f"config file not found: {path}")
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise CliUsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key = key.strip()
            if key in values:
                raise CliUsageError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value.strip()
    return values


def _resolve(cls, file_values: dict, args):
    """Build `cls` from its defaults < config-file values < flags set in `args`."""
    resolved = {}
    for field in dataclasses.fields(cls):
        if field.name in file_values:
            raw = file_values[field.name]
            try:
                resolved[field.name] = _value_parser(field)(raw)
            except (ValueError, argparse.ArgumentTypeError):
                raise CliUsageError(f"invalid value for {field.name!r}: {raw!r}") from None
        if getattr(args, field.name) is not None:
            resolved[field.name] = getattr(args, field.name)
    return cls(**resolved)


def _settings(args, *classes):
    """One instance per class in `classes`, resolved from flags and `--config`;
    a config-file key that is a field of none of them is a usage error."""
    file_values = parse_kv_file(args.config) if args.config else {}
    known = {field.name for cls in classes for field in dataclasses.fields(cls)}
    for key in file_values:
        if key not in known:
            raise CliUsageError(f"unknown config key {key!r}")
    return [_resolve(cls, file_values, args) for cls in classes]


def _kv_lines(obj) -> list[str]:
    """`key=value` lines for a dataclass's fields, sorted; tuples comma-joined."""
    lines = []
    for key, value in sorted(dataclasses.asdict(obj).items()):
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}")
    return lines


def _write_snapshot(out_dir, *settings) -> str:
    path = os.path.join(out_dir, "config.txt")
    metrics_mod.write_lines(path, [line for obj in settings for line in _kv_lines(obj)])
    return path


def _print_accuracy(label, run: metrics_mod.RunMetrics):
    acc = run.accuracy()
    if acc is None:
        print(f"{label} accuracy: n/a (no cars encountered)")
    else:
        print(
            f"{label} accuracy: {acc:.2f}% "
            f"(passed {run.passed}, collided {run.collided})"
        )


# ---------------------------------------------------------------------------
# subcommands


def _finish_training(args, run, config, hp, *model_lines) -> int:
    """Write a training run's CSVs and config snapshot, then print its summary,
    with `model_lines` naming the saved model between accuracy and metrics."""
    metrics_mod.write_csv(run, args.out)
    snapshot = _write_snapshot(args.out, config, hp)
    _print_accuracy("training", run)
    for line in model_lines:
        print(line)
    print(f"metrics: {args.out}/steps.csv {args.out}/windows.csv {args.out}/validation.csv")
    print(f"config snapshot: {snapshot}")
    return 0


def cmd_train_tabular(args) -> int:
    config, hp = _settings(args, EnvConfig, TabularHyperparams)
    table, run = tabular.train_tabular(config, hp, config.seed)
    qtable_path = os.path.join(args.out, "qtable.txt")
    tabular.save_qtable(table, qtable_path)
    return _finish_training(args, run, config, hp, f"q-table: {qtable_path}")


def cmd_train_dqn(args) -> int:
    if args.arch:
        args.hidden_layers = ARCH_PRESETS[args.arch]
        # presets named ddqn* also switch the trainer to Double DQN
        if args.arch.startswith("ddqn"):
            args.double_q = True
    config, hp = _settings(args, EnvConfig, dqn.DqnHyperparams)
    best, final, run = dqn.train_dqn(config, hp, config.seed)
    final_path = os.path.join(args.out, "final.model")
    best_path = os.path.join(args.out, "best.model")
    net.save_model(final, final_path, hp.optimizer)
    net.save_model(best.params, best_path, hp.optimizer)
    meta_path = best_path + ".meta"
    metrics_mod.write_lines(meta_path, [
        f"training_step={best.training_step}",
        f"mean_validation_reward={best.mean_validation_reward!r}",
        *_kv_lines(hp),
    ])
    return _finish_training(
        args, run, config, hp,
        f"best checkpoint: step {best.training_step}, "
        f"mean validation reward {best.mean_validation_reward:.2f}",
        f"models: {best_path} (+ {meta_path}), {final_path}",
    )


def _load_model(path, config: EnvConfig):
    """The greedy `(act, encode)` pair of the model in `path` (an MLP or a q-table, told
    apart by the file header) on `config`; its `greedy_policy` refuses a misfit."""
    if not os.path.exists(path):
        raise CliUsageError(f"model file not found: {path}")
    with open(path) as fh:
        first = fh.readline()
    if first.startswith("format "):
        return dqn.greedy_policy(net.load_model(path)[0], config)
    try:
        table = tabular.load_qtable(path)
    except ValueError as exc:
        raise CliUsageError(f"unrecognized model file: {exc}") from None
    return tabular.greedy_policy(table, config)


def cmd_evaluate(args) -> int:
    (config,) = _settings(args, EnvConfig)
    run = evaluate(_load_model(args.model, config), config, args.steps, config.seed)
    _print_accuracy("evaluation", run)
    summary = os.path.join(args.out, "evaluation.txt")
    acc = run.accuracy()
    metrics_mod.write_lines(summary, [
        f"steps={args.steps}",
        f"passed={run.passed}",
        f"collided={run.collided}",
        f"accuracy={'n/a' if acc is None else repr(acc)}",
    ])
    snapshot = _write_snapshot(args.out, config)
    print(f"summary: {summary}")
    print(f"config snapshot: {snapshot}")
    return 0


def cmd_demo(args) -> int:
    (config,) = _settings(args, EnvConfig)
    if args.episodes < 1:
        raise CliUsageError(f"--episodes must be >= 1, got {args.episodes}")
    act, encode = _load_model(args.model, config)
    # the stream hands over state snapshots, which the transcript prints
    stream = Episodes(config, lambda env: env.state, config.seed)
    run = metrics_mod.RunMetrics()
    while run.episode < args.episodes:
        state, a, out, state_next = stream.step(lambda state: act(encode(state)))
        if state.step_count == 0:
            print(f"episode {run.episode}")
            print(render_ascii(state))
        print(f"step {state_next.step_count}: action={Action(a).name} reward={out.reward:+.0f}")
        print(render_ascii(state_next))
        run.tally(out)
        if out.terminal:
            print(f"episode {run.episode - 1} reward: {run.episode_rewards[-1]:.0f}")
    return 0


def cmd_plot(args) -> int:
    series = []
    for path in args.csv:
        if not os.path.exists(path):
            raise CliUsageError(f"csv file not found: {path}")
        series.append(metrics_mod.read_series(path))
    labels = [os.path.splitext(os.path.basename(path))[0] for path in args.csv]
    if args.labels:
        labels = args.labels.split(",")
        if len(labels) != len(series):
            raise CliUsageError(f"{len(series)} series but {len(labels)} labels given")
    metrics_mod.plot_svg(series, labels, args.out_file, title=args.title)
    print(f"chart: {args.out_file}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_env_flags(p):
    p.add_argument("--config", help="key=value config file")
    _add_fields(p, EnvConfig)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepcars",
        description="Highway gridworld with tabular Q-learning, DQN, and DDQN agents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-tabular", help="train the tabular Q-learning agent")
    _add_env_flags(p)
    _add_fields(p, TabularHyperparams)
    p.add_argument("--out", default="runs/train-tabular")
    p.set_defaults(func=cmd_train_tabular)

    p = sub.add_parser("train-dqn", help="train a DQN or Double-DQN agent")
    _add_env_flags(p)
    arch = p.add_mutually_exclusive_group()
    arch.add_argument(
        "--arch",
        choices=sorted(ARCH_PRESETS),
        help="named preset for --hidden (ddqn presets also enable --double-q)",
    )
    _add_fields(p, dqn.DqnHyperparams, groups={"--hidden": arch})
    p.add_argument("--out", default="runs/train-dqn")
    p.set_defaults(func=cmd_train_dqn)

    p = sub.add_parser("evaluate", help="greedy evaluation of a saved model")
    _add_env_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--out", default="runs/evaluate")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("demo", help="print greedy ASCII rollouts of a saved model")
    _add_env_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--episodes", type=int, default=1)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("plot", help="render CSV series to a standalone SVG chart")
    p.add_argument("csv", nargs="+", help="CSV files; first two columns are plotted")
    p.add_argument("-o", "--out", dest="out_file", required=True)
    p.add_argument("--labels", help="comma-separated legend labels")
    p.add_argument("--title", default="")
    p.set_defaults(func=cmd_plot)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except net.NumericError as exc:  # diverged training and friends
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # CliUsageError, ConfigError, ModelFormatError and friends
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
