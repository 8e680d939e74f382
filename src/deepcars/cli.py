"""Command-line entry point: training, evaluation, ASCII demos, and plotting.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Precedence for every
setting is CLI flag > config file > built-in default, and each run drops a
resolved key=value snapshot into its output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import dataclasses

from . import dqn, metrics as metrics_mod, net, tabular
from .encoders import dqn_state_size
from .env import Action, ConfigError, EnvConfig, evaluate, greedy_steps, render_ascii
from .net import ModelFormatError
from .tabular import TabularHyperparams

ARCH_PRESETS = {
    "shallow": (32,),
    "medium": (32, 64, 32),
    "deep": (64, 128, 128, 64),
    "ddqn16": (16,),
    "ddqn16x16": (16, 16),
}
# presets named ddqn* also switch the trainer to Double DQN
DOUBLE_Q_PRESETS = ("ddqn16", "ddqn16x16")


class CliUsageError(Exception):
    """Bad invocation: unknown key, invalid value, or missing input file."""


def _parse_hidden(text: str):
    parts = text.split(",")
    if any(p.strip() == "" for p in parts):
        raise argparse.ArgumentTypeError(f"bad hidden layer list {text!r}")
    try:
        sizes = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hidden layer list {text!r}") from None
    if any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"hidden layer sizes must be positive: {text!r}")
    return sizes


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {text!r}")
    return value in ("1", "true", "yes")


ENV_KEYS = {
    "lanes": int,
    "rows": int,
    "spawn_interval": int,
    "occupancy_prob": float,
    "max_episode_steps": int,
    "seed": int,
}
TABULAR_KEYS = {"gamma": float, "alpha": float, "epsilon": float, "train_steps": int}
DQN_KEYS = {
    "gamma": float,
    "epsilon_start": float,
    "epsilon_end": float,
    "epsilon_decay_steps": int,
    "batch_size": int,
    "replay_capacity": int,
    "target_sync_period": int,
    "train_steps": int,
    "learn_start": int,
    "double_q": _parse_bool,
    "hidden_layers": lambda v: tuple(int(p) for p in v.split(",")),
    "learning_rate": float,
    "optimizer": str,
    "fast_validation_period": int,
    "fast_validation_episodes": int,
    "deep_validation_period": int,
    "deep_validation_episodes": int,
}


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
            values[key.strip()] = value.strip()
    return values


def _resolve(defaults: dict, converters: dict, file_values: dict, flag_values: dict):
    """Apply defaults < config file < CLI flags; file keys must be in `converters`."""
    resolved = dict(defaults)
    for key, raw in file_values.items():
        try:
            resolved[key] = converters[key](raw)
        except (ValueError, TypeError):
            raise CliUsageError(f"invalid value for {key!r}: {raw!r}") from None
    for key, value in flag_values.items():
        if value is not None:
            resolved[key] = value
    return resolved


def _split_file_values(file_values: dict, converters: dict) -> dict:
    return {k: v for k, v in file_values.items() if k in converters}


def _check_known(file_values: dict, *converter_maps):
    known = set()
    for m in converter_maps:
        known |= set(m)
    for key in file_values:
        if key not in known:
            raise CliUsageError(f"unknown config key {key!r}")


def _env_flag_values(args) -> dict:
    return {
        "lanes": args.lanes,
        "rows": args.rows,
        "spawn_interval": args.spawn_interval,
        "occupancy_prob": args.occupancy_prob,
        "max_episode_steps": args.max_episode_steps,
        "seed": args.seed,
    }


def _build_env_config(args, file_values) -> EnvConfig:
    defaults = {f.name: f.default for f in dataclasses.fields(EnvConfig)}
    resolved = _resolve(
        defaults, ENV_KEYS, _split_file_values(file_values, ENV_KEYS), _env_flag_values(args)
    )
    return EnvConfig(**resolved)


def _kv_lines(obj) -> list[str]:
    """`key=value` lines for a dataclass's fields, sorted; tuples comma-joined."""
    lines = []
    for key, value in sorted(dataclasses.asdict(obj).items()):
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}")
    return lines


def _write_snapshot(out_dir, sections: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.txt")
    lines = [line for obj in sections.values() for line in _kv_lines(obj)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
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


def cmd_train_tabular(args) -> int:
    file_values = parse_kv_file(args.config) if args.config else {}
    _check_known(file_values, ENV_KEYS, TABULAR_KEYS)
    config = _build_env_config(args, file_values)
    defaults = {f.name: f.default for f in dataclasses.fields(TabularHyperparams)}
    flag_values = {
        "gamma": args.gamma,
        "alpha": args.alpha,
        "epsilon": args.epsilon,
        "train_steps": args.steps,
    }
    hp = TabularHyperparams(
        **_resolve(defaults, TABULAR_KEYS, _split_file_values(file_values, TABULAR_KEYS), flag_values)
    )
    table, run = tabular.train_tabular(config, hp, config.seed)
    os.makedirs(args.out, exist_ok=True)
    qtable_path = os.path.join(args.out, "qtable.txt")
    tabular.save_qtable(table, qtable_path)
    metrics_mod.write_csv(run, args.out)
    snapshot = _write_snapshot(args.out, {"env": config, "hyperparams": hp})
    _print_accuracy("training", run)
    print(f"q-table: {qtable_path}")
    print(f"metrics: {args.out}/steps.csv {args.out}/windows.csv {args.out}/validation.csv")
    print(f"config snapshot: {snapshot}")
    return 0


def cmd_train_dqn(args) -> int:
    file_values = parse_kv_file(args.config) if args.config else {}
    _check_known(file_values, ENV_KEYS, DQN_KEYS)
    config = _build_env_config(args, file_values)
    defaults = {f.name: f.default for f in dataclasses.fields(dqn.DqnHyperparams)}
    hidden = args.hidden
    double_q = True if args.double_q else None
    if args.arch:
        hidden = ARCH_PRESETS[args.arch]
        if args.arch in DOUBLE_Q_PRESETS:
            double_q = True
    flag_values = {
        "gamma": args.gamma,
        "epsilon_start": args.epsilon_start,
        "epsilon_end": args.epsilon_end,
        "epsilon_decay_steps": args.epsilon_decay_steps,
        "batch_size": args.batch_size,
        "replay_capacity": args.replay_capacity,
        "target_sync_period": args.target_sync,
        "train_steps": args.steps,
        "learn_start": args.learn_start,
        "double_q": double_q,
        "hidden_layers": hidden,
        "learning_rate": args.learning_rate,
        "optimizer": args.optimizer,
        "fast_validation_period": args.fast_val_period,
        "fast_validation_episodes": args.fast_val_episodes,
        "deep_validation_period": args.deep_val_period,
        "deep_validation_episodes": args.deep_val_episodes,
    }
    hp = dqn.DqnHyperparams(
        **_resolve(defaults, DQN_KEYS, _split_file_values(file_values, DQN_KEYS), flag_values)
    )
    best, final, run = dqn.train_dqn(config, hp, config.seed)
    os.makedirs(args.out, exist_ok=True)
    final_path = os.path.join(args.out, "final.model")
    best_path = os.path.join(args.out, "best.model")
    net.save_model(final, final_path, hp.optimizer)
    net.save_model(best.params, best_path, hp.optimizer)
    meta_path = best_path + ".meta"
    lines = [
        f"training_step={best.training_step}",
        f"mean_validation_reward={best.mean_validation_reward!r}",
        *_kv_lines(hp),
    ]
    with open(meta_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    metrics_mod.write_csv(run, args.out)
    snapshot = _write_snapshot(args.out, {"env": config, "hyperparams": hp})
    _print_accuracy("training", run)
    print(
        f"best checkpoint: step {best.training_step}, "
        f"mean validation reward {best.mean_validation_reward:.2f}"
    )
    print(f"models: {best_path} (+ {meta_path}), {final_path}")
    print(f"metrics: {args.out}/steps.csv {args.out}/windows.csv {args.out}/validation.csv")
    print(f"config snapshot: {snapshot}")
    return 0


def _load_model(path, config: EnvConfig):
    """Return the greedy `act(state)` of the model in `path` (an MLP or a
    q-table, told apart by the file header), refusing a model whose shape
    does not fit the world `config` describes."""
    if not os.path.exists(path):
        raise CliUsageError(f"model file not found: {path}")
    with open(path) as fh:
        first = fh.readline()
    if first.startswith("format "):
        params, _ = net.load_model(path)
        expected = dqn_state_size(config)
        if int(params.layer_dims[0]) != expected:
            raise CliUsageError(
                f"model expects input size {int(params.layer_dims[0])}, "
                f"environment produces {expected}; adjust --lanes/--rows"
            )
        outputs = int(params.layer_dims[-1])
        if outputs != len(Action):
            raise CliUsageError(f"model has {outputs} outputs, one per action needs {len(Action)}")
        return dqn.greedy_policy(params)
    try:
        table = tabular.load_qtable(path)
    except ValueError as exc:
        raise CliUsageError(f"unrecognized model file: {exc}") from None
    for state in table.entries:
        if len(state.distances) != config.lanes:
            raise CliUsageError(
                f"q-table holds states for {len(state.distances)} lanes, "
                f"environment has {config.lanes}; adjust --lanes"
            )
        if max(state.distances) > config.rows:
            raise CliUsageError(
                f"q-table holds distance {max(state.distances)}, "
                f"environment has {config.rows} rows; adjust --rows"
            )
    return tabular.greedy_policy(table)


def cmd_evaluate(args) -> int:
    file_values = parse_kv_file(args.config) if args.config else {}
    _check_known(file_values, ENV_KEYS)
    config = _build_env_config(args, file_values)
    run = evaluate(_load_model(args.model, config), config, args.steps, config.seed)
    _print_accuracy("evaluation", run)
    os.makedirs(args.out, exist_ok=True)
    summary = os.path.join(args.out, "evaluation.txt")
    with open(summary, "w") as fh:
        acc = run.accuracy()
        fh.write(f"steps={args.steps}\n")
        fh.write(f"passed={run.passed}\ncollided={run.collided}\n")
        fh.write(f"accuracy={'n/a' if acc is None else repr(acc)}\n")
    snapshot = _write_snapshot(args.out, {"env": config})
    print(f"summary: {summary}")
    print(f"config snapshot: {snapshot}")
    return 0


def cmd_demo(args) -> int:
    file_values = parse_kv_file(args.config) if args.config else {}
    _check_known(file_values, ENV_KEYS)
    config = _build_env_config(args, file_values)
    if args.episodes < 1:
        raise CliUsageError(f"--episodes must be >= 1, got {args.episodes}")
    act = _load_model(args.model, config)
    episode = 0
    total = 0.0
    for state, a, out in greedy_steps(act, config, config.seed):
        if state.step_count == 0:
            print(f"episode {episode}")
            print(render_ascii(state))
        total += out.reward
        print(f"step {out.next_state.step_count}: "
              f"action={Action(a).name} reward={out.reward:+.0f}")
        print(render_ascii(out.next_state))
        if out.terminal:
            print(f"episode {episode} reward: {total:.0f}")
            episode += 1
            total = 0.0
            if episode == args.episodes:
                return 0


def cmd_plot(args) -> int:
    series = []
    labels = []
    for path in args.csv:
        if not os.path.exists(path):
            raise CliUsageError(f"csv file not found: {path}")
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise CliUsageError(f"{path}: empty file")
        header = lines[0].split(",")
        if len(header) < 2:
            raise CliUsageError(f"{path}: need at least two columns")
        xs, ys = [], []
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != len(header):
                raise CliUsageError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}"
                )
            try:
                xs.append(float(cells[0]))
                ys.append(float(cells[1]))
            except ValueError:
                raise CliUsageError(f"{path}:{lineno}: non-numeric cell") from None
        if not xs:
            raise CliUsageError(f"{path}: no data rows")
        series.append((xs, ys))
        labels.append(os.path.splitext(os.path.basename(path))[0])
    if args.labels:
        labels = args.labels.split(",")
        if len(labels) != len(series):
            raise CliUsageError(
                f"{len(series)} series but {len(labels)} labels given"
            )
    metrics_mod.plot_svg(series, labels, args.out_file, title=args.title)
    print(f"chart: {args.out_file}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_env_flags(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--lanes", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--spawn-interval", dest="spawn_interval", type=int)
    p.add_argument("--occupancy-prob", dest="occupancy_prob", type=float)
    p.add_argument("--max-episode-steps", dest="max_episode_steps", type=int)
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepcars",
        description="Highway gridworld with tabular Q-learning, DQN, and DDQN agents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-tabular", help="train the tabular Q-learning agent")
    _add_env_flags(p)
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--out", default="runs/train-tabular")
    p.set_defaults(func=cmd_train_tabular)

    p = sub.add_parser("train-dqn", help="train a DQN or Double-DQN agent")
    _add_env_flags(p)
    p.add_argument("--hidden", type=_parse_hidden, help="comma-separated layer sizes")
    p.add_argument(
        "--arch",
        choices=sorted(ARCH_PRESETS),
        help="named preset for --hidden (ddqn presets also enable --double-q)",
    )
    p.add_argument("--double-q", dest="double_q", action="store_true", default=None)
    p.add_argument("--gamma", type=float)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--replay-capacity", dest="replay_capacity", type=int)
    p.add_argument("--target-sync", dest="target_sync", type=int)
    p.add_argument("--epsilon-start", dest="epsilon_start", type=float)
    p.add_argument("--epsilon-end", dest="epsilon_end", type=float)
    p.add_argument("--epsilon-decay-steps", dest="epsilon_decay_steps", type=int)
    p.add_argument("--learn-start", dest="learn_start", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--fast-val-period", dest="fast_val_period", type=int)
    p.add_argument("--fast-val-episodes", dest="fast_val_episodes", type=int)
    p.add_argument("--deep-val-period", dest="deep_val_period", type=int)
    p.add_argument("--deep-val-episodes", dest="deep_val_episodes", type=int)
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
    except (CliUsageError, ConfigError, ModelFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
