import argparse
import os
import subprocess
import sys
from xml.dom import minidom

import numpy as np
import pytest

import deepcars
from deepcars import net, tabular
from deepcars.cli import ARCH_PRESETS, build_parser, run
from deepcars.encoders import TabularState
from deepcars.metrics import read_csv


def test_train_tabular_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(
        [
            "train-tabular",
            "--lanes", "3",
            "--steps", "2000",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    for name in ("qtable.txt", "steps.csv", "windows.csv", "validation.csv", "config.txt"):
        assert (out / name).exists()
    text = capsys.readouterr().out
    assert "accuracy" in text
    snapshot = (out / "config.txt").read_text()
    assert "lanes=3" in snapshot
    assert "train_steps=2000" in snapshot


def test_train_dqn_writes_checkpoint_and_metrics(tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "train-dqn",
            "--double-q",
            "--hidden", "8",
            "--steps", "1200",
            "--learn-start", "100",
            "--fast-val-period", "400",
            "--fast-val-episodes", "2",
            "--deep-val-period", "1000",
            "--deep-val-episodes", "2",
            "--epsilon-decay-steps", "600",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    for name in ("best.model", "best.model.meta", "final.model", "steps.csv",
                 "windows.csv", "validation.csv", "config.txt"):
        assert (out / name).exists()
    meta = (out / "best.model.meta").read_text()
    assert "training_step=" in meta and "double_q=True" in meta
    metrics = read_csv(out)
    assert len(metrics.steps) == 1200


def test_flag_precedence_flag_beats_file_beats_default(tmp_path):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("lanes=4\nrows=6\noccupancy_prob=0.2\n")
    out = tmp_path / "run"
    code = run(
        [
            "train-tabular",
            "--config", str(cfg),
            "--lanes", "3",  # flag beats file
            "--steps", "50",
            "--out", str(out),
        ]
    )
    assert code == 0
    snapshot = (out / "config.txt").read_text()
    assert "lanes=3" in snapshot  # flag won
    assert "rows=6" in snapshot  # file won over default 8
    assert "occupancy_prob=0.2" in snapshot
    assert "spawn_interval=3" in snapshot  # untouched default


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("lanez=4\n")
    code = run(["train-tabular", "--config", str(cfg), "--steps", "10"])
    assert code == 2
    assert "lanez" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw,expected",
    [("TRUE", "double_q=True"), ("No", "double_q=False"), ("ture", None), ("", None)],
)
def test_double_q_config_value(tmp_path, capsys, raw, expected):
    cfg = tmp_path / "dqn.cfg"
    cfg.write_text(f"double_q={raw}\n")
    out = tmp_path / "run"
    code = run(["train-dqn", "--config", str(cfg), "--hidden", "4", "--steps", "20",
                "--learn-start", "10", "--out", str(out)])
    if expected is None:
        assert code == 2
        assert "double_q" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == 0
        assert expected in (out / "config.txt").read_text()


def test_duplicate_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("lanes=3\n# a comment\nlanes=4\n")
    out = tmp_path / "run"
    code = run(["train-tabular", "--config", str(cfg), "--steps", "10", "--out", str(out)])
    assert code == 2
    assert f"{cfg}:3: duplicate key 'lanes'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "file"])
def test_unknown_optimizer_is_usage_error(tmp_path, capsys, where):
    cfg = tmp_path / "dqn.cfg"
    cfg.write_text("optimizer=foo\n")
    out = tmp_path / "run"
    argv = ["train-dqn", "--hidden", "4", "--steps", "20", "--learn-start", "10",
            "--out", str(out)]
    argv += ["--optimizer", "foo"] if where == "flag" else ["--config", str(cfg)]
    assert run(argv) == 2
    assert "foo" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "file"])
@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_non_finite_learning_rate_is_usage_error(tmp_path, capsys, where, rate):
    cfg = tmp_path / "dqn.cfg"
    cfg.write_text(f"learning_rate={rate}\n")
    out = tmp_path / "run"
    argv = ["train-dqn", "--hidden", "4", "--steps", "20", "--learn-start", "10",
            "--out", str(out)]
    argv += ["--learning-rate", rate] if where == "flag" else ["--config", str(cfg)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "learning_rate" in captured.err and captured.out == ""
    assert not out.exists()


def _python_m_cli(args, **env):
    """`python -m deepcars.cli <args>` in a fresh interpreter, with the
    package's source directory on PYTHONPATH and `env` added."""
    src = os.path.dirname(os.path.dirname(deepcars.__file__))
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "deepcars.cli", *args],
                          env=env, capture_output=True, text=True)


def test_python_m_cli_runs_the_entry_point(tmp_path):
    usage = _python_m_cli(["--help"])
    assert usage.returncode == 0
    assert usage.stdout.startswith("usage: deepcars")
    missing = _python_m_cli(["evaluate", "--model", str(tmp_path / "missing.model"),
                             "--out", str(tmp_path / "eval")])
    assert missing.returncode == 2
    assert "model file not found" in missing.stderr


def test_training_is_identical_across_blas_thread_counts(tmp_path):
    # a deep net, so the batch-32 products are large enough for OpenBLAS to
    # split them over threads; 1000 gradient steps and three validations
    artifacts = ("best.model", "final.model", "steps.csv", "validation.csv")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        done = _python_m_cli(
            ["train-dqn", "--arch", "deep", "--steps", "1500", "--learn-start", "500",
             "--fast-val-period", "500", "--seed", "4", "--out", str(out)],
            OPENBLAS_NUM_THREADS=threads,
        )
        assert done.returncode == 0, done.stderr
        runs.append({name: (out / name).read_bytes() for name in artifacts})
    assert len(read_csv(tmp_path / "threads-1").validations) == 3
    assert runs[0] == runs[1]


# Each subcommand's option strings. README and bench/run.py pass these, and the
# flags derived from the settings dataclasses must spell them exactly so.
OPTION_STRINGS = {
    "train-tabular": [
        "--alpha", "--config", "--epsilon", "--gamma", "--help", "--lanes",
        "--max-episode-steps", "--occupancy-prob", "--out", "--rows", "--seed",
        "--spawn-interval", "--steps", "-h",
    ],
    "train-dqn": [
        "--arch", "--batch-size", "--config", "--deep-val-episodes", "--deep-val-period",
        "--double-q", "--epsilon-decay-steps", "--epsilon-end", "--epsilon-start",
        "--fast-val-episodes", "--fast-val-period", "--gamma", "--help", "--hidden",
        "--lanes", "--learn-start", "--learning-rate", "--max-episode-steps",
        "--occupancy-prob", "--optimizer", "--out", "--replay-capacity", "--rows",
        "--seed", "--spawn-interval", "--steps", "--target-sync", "-h",
    ],
    "evaluate": [
        "--config", "--help", "--lanes", "--max-episode-steps", "--model",
        "--occupancy-prob", "--out", "--rows", "--seed", "--spawn-interval", "--steps", "-h",
    ],
    "demo": [
        "--config", "--episodes", "--help", "--lanes", "--max-episode-steps", "--model",
        "--occupancy-prob", "--rows", "--seed", "--spawn-interval", "-h",
    ],
    "plot": ["--help", "--labels", "--out", "--title", "-h", "-o"],
}


def test_option_strings_are_pinned():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: sorted(opt for action in p._actions for opt in action.option_strings)
        for name, p in sub.choices.items()
    }
    assert found == OPTION_STRINGS


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize(
    "argv",
    [
        ["train-tabular", "--lanes", "3", "--rows", "6", "--alpha", "0.3", "--epsilon", "0.1",
         "--steps", "1500", "--seed", "4"],
        ["train-dqn", "--arch", "ddqn16", "--optimizer", "sgd", "--learning-rate", "0.01",
         "--batch-size", "8", "--target-sync", "50", "--steps", "400", "--learn-start", "50",
         "--fast-val-period", "100", "--fast-val-episodes", "2", "--deep-val-period", "300",
         "--deep-val-episodes", "2", "--epsilon-decay-steps", "200", "--seed", "6"],
    ],
    ids=["tabular", "dqn"],
)
def test_config_snapshot_reproduces_its_run(tmp_path, argv):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(argv + ["--out", str(first)]) == 0
    assert run([argv[0], "--config", str(first / "config.txt"), "--out", str(again)]) == 0
    assert _tree_bytes(again) == _tree_bytes(first)


def test_arch_and_hidden_are_exclusive(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["train-dqn", "--arch", "ddqn16", "--hidden", "64,64", "--steps", "20",
                "--out", str(out)])
    assert code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


def test_bad_hidden_list_is_usage_error(capsys):
    code = run(["train-dqn", "--hidden", "16,,16", "--steps", "10"])
    assert code == 2


def test_invalid_config_value_is_usage_error(tmp_path, capsys):
    code = run(["train-tabular", "--lanes", "1", "--steps", "10",
                "--out", str(tmp_path / "x")])
    assert code == 2
    assert "lanes" in capsys.readouterr().err


def test_missing_model_is_usage_error(tmp_path, capsys):
    code = run(["evaluate", "--model", str(tmp_path / "nope.model"), "--steps", "10"])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_evaluate_prints_accuracy(tmp_path, capsys):
    params = net.init_params([43, 4, 3], 0)
    model = tmp_path / "m.model"
    net.save_model(params, model)
    code = run(
        ["evaluate", "--model", str(model), "--steps", "500", "--seed", "3",
         "--out", str(tmp_path / "eval")]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "accuracy" in text and "%" in text
    assert (tmp_path / "eval" / "evaluation.txt").exists()


def test_evaluate_qtable_model(tmp_path, capsys):
    out = tmp_path / "train"
    assert run(["train-tabular", "--lanes", "3", "--steps", "3000", "--seed", "1",
                "--out", str(out)]) == 0
    capsys.readouterr()
    code = run(["evaluate", "--model", str(out / "qtable.txt"), "--lanes", "3",
                "--steps", "400", "--seed", "2", "--out", str(tmp_path / "eval")])
    assert code == 0
    assert "accuracy" in capsys.readouterr().out
    code = run(["evaluate", "--model", str(out / "qtable.txt"), "--lanes", "3",
                "--steps", "0", "--out", str(tmp_path / "eval0")])
    assert code == 2
    assert "steps" in capsys.readouterr().err


def test_demo_qtable_model(tmp_path, capsys):
    out = tmp_path / "train"
    assert run(["train-tabular", "--lanes", "3", "--steps", "1000", "--seed", "1",
                "--out", str(out)]) == 0
    capsys.readouterr()
    code = run(["demo", "--model", str(out / "qtable.txt"), "--lanes", "3",
                "--episodes", "1", "--seed", "6"])
    assert code == 0
    text = capsys.readouterr().out
    assert "episode 0 reward:" in text
    code = run(["demo", "--model", str(out / "qtable.txt"), "--lanes", "3",
                "--episodes", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--episodes" in captured.err and captured.out == ""


def _qtable_for(distances):
    table = tabular.QTable()
    table.entries[TabularState(0, distances)] = np.array([0.5, 0.0, -0.5])
    return table


@pytest.mark.parametrize("command", ["evaluate", "demo"])
@pytest.mark.parametrize(
    "kind,message",
    [
        ("mlp", "input size"),  # a 10-input net on the default 8x5 world
        ("mlp-outputs", "2 outputs"),  # a net that can never steer right
        ("qtable-lanes", "for 3 lanes"),  # a 3-lane q-table on 5 lanes
        ("qtable-rows", "distance 8"),  # an 8-row q-table on 5 rows
    ],
    ids=["mlp", "mlp-outputs", "qtable-lanes", "qtable-rows"],
)
def test_evaluate_dimension_mismatch_is_usage_error(tmp_path, capsys, command, kind, message):
    model = tmp_path / "m.model"
    argv = [command, "--model", str(model)]
    if kind == "mlp":
        net.save_model(net.init_params([10, 4, 3], 0), model)
    elif kind == "mlp-outputs":
        net.save_model(net.init_params([43, 4, 2], 0), model)
    elif kind == "qtable-lanes":
        tabular.save_qtable(_qtable_for((1, 3, 8)), model)
    else:
        tabular.save_qtable(_qtable_for((8, 2, 8, 8, 1)), model)
        argv += ["--rows", "5"]
    if command == "evaluate":
        argv += ["--steps", "50", "--out", str(tmp_path / "eval")]
    code = run(argv)
    assert code == 2
    assert message in capsys.readouterr().err


def test_demo_transcript_is_deterministic(tmp_path, capsys):
    params = net.init_params([43, 4, 3], 1)
    model = tmp_path / "m.model"
    net.save_model(params, model)
    args = ["demo", "--model", str(model), "--episodes", "1", "--seed", "5"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "episode 0 reward:" in first
    assert "action=" in first


def test_demo_corrupt_model_names_version(tmp_path, capsys):
    model = tmp_path / "m.model"
    params = net.init_params([43, 4, 3], 1)
    net.save_model(params, model)
    model.write_text(model.read_text().replace("mlp-v1", "mlp-v0"))
    code = run(["demo", "--model", str(model)])
    assert code == 2
    assert "mlp-v0" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["mlp", "qtable"])
def test_evaluate_non_finite_model_is_usage_error(tmp_path, capsys, kind):
    # argmax over NaN always picks LEFT, so such a model would score silently
    model = tmp_path / "m.model"
    if kind == "mlp":
        net.save_model(net.init_params([43, 16, 16, 3], 0), model)
        lines = model.read_text().splitlines()
        model.write_text("\n".join(lines[:-1] + ["b2 nan nan nan"]) + "\n")
    else:
        model.write_text("2 8 8 8 8 8 | nan 0.0 0.0\n")
    out = tmp_path / "eval"
    code = run(["evaluate", "--model", str(model), "--steps", "200", "--out", str(out)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_plot_command_renders_svg(tmp_path):
    csv = tmp_path / "windows.csv"
    csv.write_text("window,mean_reward\n0,10.5\n1,12.0\n2,14.5\n")
    out = tmp_path / "chart.svg"
    code = run(["plot", str(csv), "-o", str(out), "--labels", "run-a"])
    assert code == 0
    text = out.read_text()
    assert "<svg" in text and "run-a" in text


def test_plot_missing_file_usage_error(tmp_path, capsys):
    code = run(["plot", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "x.svg")])
    assert code == 2


@pytest.mark.parametrize(
    "text,message",
    [
        ("", ":1: empty file"),
        ("window\n0\n", ":1: need at least two columns"),
        ("window,mean_reward\n", ": no data rows"),
        ("window,mean_reward\n0,1.5\n1,2.5,3\n", ":3: expected 2 columns, got 3"),
        ("window,mean_reward\n0,1.5\n1,oops\n", ":3: bad number 'oops'"),
        ("x,y\n0,1\n1,nan\n2,3\n", ":3: bad number 'nan'"),
        ("x,y\n0,1\ninf,2\n2,3\n", ":3: bad number 'inf'"),
    ],
    ids=["empty", "one-column", "header-only", "ragged", "non-numeric", "nan", "inf"],
)
def test_plot_malformed_csv_names_line(tmp_path, capsys, text, message):
    csv = tmp_path / "w.csv"
    csv.write_text(text)
    out = tmp_path / "x.svg"
    assert run(["plot", str(csv), "-o", str(out)]) == 2
    assert f"{csv}{message}" in capsys.readouterr().err
    assert not out.exists()


def test_plot_escapes_title_and_labels(tmp_path):
    csv = tmp_path / "windows.csv"
    csv.write_text("window,mean_reward\n0,10.5\n1,12.0\n")
    out = tmp_path / "chart.svg"
    assert run(["plot", str(csv), "-o", str(out), "--title", "A<B & C",
                "--labels", "x>y&z"]) == 0
    texts = [node.firstChild.data for node in
             minidom.parse(str(out)).getElementsByTagName("text")]
    assert "A<B & C" in texts and "x>y&z" in texts


def test_arch_presets_cover_paper_architectures():
    assert ARCH_PRESETS["shallow"] == (32,)
    assert ARCH_PRESETS["medium"] == (32, 64, 32)
    assert ARCH_PRESETS["deep"] == (64, 128, 128, 64)
    assert ARCH_PRESETS["ddqn16"] == (16,)
    assert ARCH_PRESETS["ddqn16x16"] == (16, 16)


def test_arch_preset_sets_hidden_layers(tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "train-dqn",
            "--arch", "ddqn16",
            "--steps", "60",
            "--learn-start", "10",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    snapshot = (out / "config.txt").read_text()
    assert "hidden_layers=16" in snapshot
    assert "double_q=True" in snapshot


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
