import argparse
import contextlib
import io
import os
import shutil
import subprocess
import sys
from xml.dom import minidom

import pytest

import deepcars
from deepcars import cli, net, tabular
from deepcars.cli import ARCH_PRESETS, CliUsageError, build_parser, run
from deepcars.metrics import _FAMILIES, read_csv


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
    for name in ("best.model", "final.model", "steps.csv",
                 "windows.csv", "validation.csv", "config.txt"):
        assert (out / name).exists()
    assert "double_q=True" in (out / "config.txt").read_text()
    metrics = read_csv(out)
    assert len(metrics.steps) == 1200
    best_steps = [step for step, _, _, is_best in metrics.validations if is_best]
    assert best_steps and 0 < best_steps[-1] <= 1200


# Runs that the tests below share, each trained once on first use.
TRAINED = {
    "tabular": ["train-tabular", "--lanes", "3", "--steps", "2000", "--seed", "4"],
    # validations at steps 200, 400 and 600
    "dqn": ["train-dqn", "--arch", "ddqn16", "--steps", "600", "--learn-start", "200",
            "--fast-val-period", "200", "--fast-val-episodes", "2", "--seed", "4"],
    # shorter than --fast-val-period: the one validation is the run's closing one
    "dqn-short": ["train-dqn", "--arch", "ddqn16", "--steps", "500", "--learn-start", "200",
                  "--fast-val-period", "1000", "--fast-val-episodes", "3", "--seed", "4"],
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """`trained(name)` is the (out dir, stdout) of the `TRAINED[name]` run."""
    runs = {}

    def get(name):
        if name not in runs:
            out, stdout = tmp_path_factory.mktemp(name), io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert run([*TRAINED[name], "--out", str(out)]) == 0
            runs[name] = out, stdout.getvalue()
        return runs[name]
    return get


@pytest.mark.parametrize("name", ["dqn", "dqn-short"])
def test_train_dqn_writes_models_config_and_csvs_only(trained, name):
    out, _ = trained(name)
    csvs = [csv for csv, _, _ in _FAMILIES]
    assert sorted(os.listdir(out)) == sorted(["best.model", "final.model", "config.txt", *csvs])


@pytest.mark.parametrize("name,validations", [("dqn", 3), ("dqn-short", 1)])
def test_best_checkpoint_line_is_the_last_new_best_validation_row(trained, name, validations):
    out, stdout = trained(name)
    rows = read_csv(out).validations
    assert len(rows) == validations
    step, reward, _, _ = [row for row in rows if row[3]][-1]
    assert f"best checkpoint: step {step}, mean validation reward {reward:.2f}\n" in stdout


@pytest.mark.parametrize("name", ["tabular", "dqn"])
def test_metrics_line_names_the_csvs_in_family_order(trained, name):
    out, stdout = trained(name)
    csvs = [os.path.join(out, csv) for csv, _, _ in _FAMILIES]
    assert all(os.path.isfile(csv) for csv in csvs)
    assert f"metrics: {' '.join(csvs)}\n" in stdout


@pytest.mark.parametrize("name,model", [("tabular", "qtable.txt"), ("dqn", "best.model")])
def test_evaluate_refuses_to_write_into_a_training_run(trained, tmp_path, capsys, name, model):
    out = tmp_path / "run"
    shutil.copytree(trained(name)[0], out)
    before = _tree_bytes(out)
    argv = ["evaluate", "--model", str(out / model), "--steps", "300", "--seed", "1",
            "--out", str(out)]
    if name == "tabular":
        argv += ["--lanes", "3"]
    assert run(argv) == 2
    assert f"--out {out} holds a training run" in capsys.readouterr().err
    assert _tree_bytes(out) == before


# a short run of each command that writes a run directory; {model} is a 3-lane q-table
OUT_RUNS = {
    "train-tabular": ["train-tabular", "--lanes", "3", "--steps", "100", "--seed", "1"],
    "train-dqn": ["train-dqn", "--arch", "ddqn16", "--steps", "300", "--learn-start", "200",
                  "--fast-val-period", "1000", "--fast-val-episodes", "1", "--seed", "1"],
    "evaluate": ["evaluate", "--model", "{model}", "--lanes", "3", "--steps", "100",
                 "--seed", "1"],
}
# the files that mark a directory as each command's run
OWN_FILES = {"train-tabular": ["qtable.txt"], "train-dqn": ["best.model", "final.model"],
             "evaluate": ["evaluation.txt"]}


def _out_run(command, out, trained):
    model = str(trained("tabular")[0] / "qtable.txt")
    return [arg.format(model=model) for arg in OUT_RUNS[command]] + ["--out", str(out)]


@pytest.mark.parametrize("held,command", [
    (held, command) for held in OUT_RUNS for command in OUT_RUNS if held != command])
def test_out_holding_another_commands_run_is_refused(trained, tmp_path, capsys, held, command):
    # a train-dqn run, then a train-tabular run, into one --out once left 5-lane
    # models beside a config.txt that said lanes=3
    out = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(_out_run(held, out, trained)) == 0
    before = _tree_bytes(out)
    assert run(_out_run(command, out, trained)) == 2
    assert f"--out {out} holds " in (err := capsys.readouterr().err)
    assert f"({held}'s {OWN_FILES[held][0]})" in err
    assert _tree_bytes(out) == before


@pytest.mark.parametrize("command", OUT_RUNS)
def test_out_holding_its_own_commands_run_is_rewritten(trained, tmp_path, command):
    out = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(_out_run(command, out, trained)) == 0
        assert run(_out_run(command, out, trained)) == 0
    assert all((out / name).is_file() for name in OWN_FILES[command])
    others = {name for kind, names in OWN_FILES.items() if kind != command for name in names}
    assert not others & set(os.listdir(out))


@pytest.mark.parametrize("command", OUT_RUNS)
@pytest.mark.parametrize("kind", ["file", "dangling-symlink"])
def test_out_naming_a_file_is_refused_before_any_work(trained, tmp_path, capsys, kind, command):
    # the whole run once went ahead, then failed to write with "[Errno 17] File exists"
    # (exit 1); evaluate printed its accuracy first
    out = tmp_path / "F"
    if kind == "file":
        out.write_bytes(b"not a run\n")
    else:
        out.symlink_to(tmp_path / "nowhere")
    argv = _out_run(command, out, trained)
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out} is not a directory; give {command} another --out\n"
    assert sorted(os.listdir(tmp_path)) == ["F"]
    if kind == "file":
        assert out.read_bytes() == b"not a run\n"
    else:
        assert os.readlink(out) == str(tmp_path / "nowhere")


@pytest.mark.parametrize("command", OUT_RUNS)
@pytest.mark.parametrize("below", ["sub", "a/b"])
def test_out_below_a_file_is_refused_before_any_work(trained, tmp_path, capsys, below, command):
    # the whole run once went ahead, then failed with "[Errno 20] Not a directory" (exit 1)
    parent = tmp_path / "G"
    parent.write_bytes(b"not a run\n")
    out = parent / below
    argv = _out_run(command, out, trained)
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --out {out} is below {parent}, which is not a directory; "
                            f"give {command} another --out\n")
    assert sorted(os.listdir(tmp_path)) == ["G"]
    assert parent.read_bytes() == b"not a run\n"


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


def test_config_line_without_an_equals_sign_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("lanes=3\nrows 8\n")
    out = tmp_path / "run"
    code = run(["train-tabular", "--config", str(cfg), "--steps", "10", "--out", str(out)])
    assert code == 2
    assert f"{cfg}:2: expected key=value, got 'rows 8'" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_config_value_is_refused_even_when_its_flag_is_given(tmp_path, capsys):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("rows=8\nlanes=three\n")
    out = tmp_path / "run"
    code = run(["train-tabular", "--config", str(cfg), "--lanes", "3", "--steps", "10",
                "--out", str(out)])
    assert code == 2
    assert "invalid value for 'lanes': 'three'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_is_reported_before_an_invalid_value(tmp_path, capsys):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("lanes=three\nlanez=4\n")
    out = tmp_path / "run"
    code = run(["train-tabular", "--config", str(cfg), "--steps", "10", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown config key 'lanez'" in err and "invalid value" not in err
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


@pytest.mark.parametrize("where", ["flag", "file"])
def test_learn_start_past_replay_capacity_is_usage_error(tmp_path, capsys, where):
    # the buffer never holds more than its capacity, so this run could never learn
    cfg = tmp_path / "dqn.cfg"
    cfg.write_text("learn_start=200\nreplay_capacity=100\n")
    out = tmp_path / "run"
    argv = ["train-dqn", "--steps", "400", "--fast-val-period", "200",
            "--fast-val-episodes", "2", "--seed", "1", "--out", str(out)]
    argv += (["--learn-start", "200", "--replay-capacity", "100"] if where == "flag"
             else ["--config", str(cfg)])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "learn_start 200" in captured.err and "replay_capacity 100" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "file"])
@pytest.mark.parametrize("sizes", ["0", "16,0"])
def test_non_positive_hidden_size_is_usage_error(tmp_path, capsys, where, sizes):
    # DqnHyperparams refuses the size, whether it came from the flag or the file
    cfg = tmp_path / "dqn.cfg"
    cfg.write_text(f"hidden_layers={sizes}\n")
    out = tmp_path / "run"
    argv = ["train-dqn", "--steps", "20", "--learn-start", "10", "--out", str(out)]
    argv += ["--hidden", sizes] if where == "flag" else ["--config", str(cfg)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "hidden_layers" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "file"])
def test_run_that_could_never_learn_is_usage_error(tmp_path, capsys, where):
    # 400 steps never reach learn_start 1000: both saved models would be untrained
    cfg = tmp_path / "dqn.cfg"
    cfg.write_text("train_steps=400\nlearn_start=1000\n")
    out = tmp_path / "run"
    argv = ["train-dqn", "--fast-val-period", "200", "--fast-val-episodes", "2", "--seed", "1",
            "--out", str(out)]
    argv += (["--steps", "400", "--learn-start", "1000"] if where == "flag"
             else ["--config", str(cfg)])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "train_steps 400" in captured.err and "learn_start 1000" in captured.err
    assert captured.out == ""
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
    # an empty or blank part is refused by int() itself, with the list named
    for text in ("16,,16", "16,", ",16", " "):
        code = run(["train-dqn", "--hidden", text, "--steps", "10"])
        assert code == 2
        assert f"bad hidden layer list {text!r}" in capsys.readouterr().err


def test_invalid_config_value_is_usage_error(tmp_path, capsys):
    code = run(["train-tabular", "--lanes", "1", "--steps", "10",
                "--out", str(tmp_path / "x")])
    assert code == 2
    assert "lanes" in capsys.readouterr().err


def test_missing_model_is_usage_error(tmp_path, capsys):
    code = run(["evaluate", "--model", str(tmp_path / "nope.model"), "--steps", "10"])
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command,kind", [
    (["evaluate", "--steps", "10", "--model"], "model"),
    (["train-tabular", "--steps", "10", "--config"], "config"),
    (["plot", "-o", "{out}/x.svg"], "csv"),
])
def test_directory_as_input_file_is_usage_error(tmp_path, capsys, command, kind):
    # a directory once got past the existence check and failed to open, exit 1
    given = tmp_path / "given"
    given.mkdir()
    out = tmp_path / "out"
    argv = [arg.format(out=out) for arg in command] + [str(given)]
    if command[0] == "train-tabular":
        argv += ["--out", str(out)]
    assert run(argv) == 2
    assert f"{kind} file not found: {given}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error,code", [
    (CliUsageError("bad flag"), 2),
    (ValueError("bad value"), 2),
    (net.NumericError("diverged"), 1),
    (OSError("disk full"), 1),
    (RuntimeError("broken"), 1),
])
def test_a_usage_error_exits_2_and_any_other_failure_1(monkeypatch, capsys, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_plot", fail)
    assert run(["plot", "x.csv", "-o", "x.svg"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


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
    assert "--episodes must be an integer >= 1" in captured.err and captured.out == ""


def _qtable_for(distances, ego=0):
    return {(ego, *distances): [0.5, 0.0, -0.5]}


@pytest.mark.parametrize("command", ["evaluate", "demo"])
@pytest.mark.parametrize(
    "kind,message",
    [
        ("mlp", "input size"),  # a 10-input net on the default 8x5 world
        ("mlp-outputs", "2 outputs"),  # a net that can never steer right
        ("qtable-lanes", "for 3 lanes"),  # a 3-lane q-table on 5 lanes
        ("qtable-rows", "distance 8"),  # an 8-row q-table on 5 rows
        ("qtable-ego", "ego lane 4"),  # a 3-lane q-table whose ego sits in lane 4
    ],
    ids=["mlp", "mlp-outputs", "qtable-lanes", "qtable-rows", "qtable-ego"],
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
    elif kind == "qtable-ego":
        tabular.save_qtable(_qtable_for((3, 8, 8), ego=4), model)
        argv += ["--lanes", "3"]
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


@pytest.mark.parametrize("below", ["x.svg", "sub/x.svg"])
def test_plot_out_below_a_file_is_refused_before_rendering(tmp_path, capsys, below):
    # the chart was once rendered, then failed with "[Errno 20] Not a directory" (exit 1)
    csv = tmp_path / "s.csv"
    csv.write_text("window,mean_reward\n0,10.5\n1,12.0\n")
    parent = tmp_path / "G"
    parent.write_bytes(b"not a directory\n")
    out = parent / below
    assert run(["plot", str(csv), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: -o {out} is below {parent}, which is not a directory; "
                            "give plot another -o\n")
    assert sorted(os.listdir(tmp_path)) == ["G", "s.csv"]
    assert parent.read_bytes() == b"not a directory\n"


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


@pytest.mark.parametrize("labels", ["x,y,z", "x"])
def test_plot_refuses_a_label_count_other_than_the_series_count(tmp_path, capsys, labels):
    csvs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for csv in csvs:
        csv.write_text("window,mean_reward\n0,10.5\n1,12.0\n")
    out = tmp_path / "chart.svg"
    assert run(["plot", *map(str, csvs), "-o", str(out), "--labels", labels]) == 2
    assert f"2 series but {len(labels.split(','))} labels" in capsys.readouterr().err
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
