import numpy as np
import pytest

from deepcars import net, tabular
from deepcars.cli import ARCH_PRESETS, run
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
