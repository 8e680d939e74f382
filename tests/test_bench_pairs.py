"""The source size that `tools/bench_pairs.py` records next to its digest, and its rule
for comparing the two sides of a batch of pairs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_the_py_files_the_digest_covers(tmp_path):
    tool = _tool()
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("\n\n\nz = 3")  # no last newline
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "top.py").write_text("outside = src\n")
    assert tool.src_lines(tmp_path) == 5
    digest = tool.src_digest(tmp_path)
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("more\n")
    assert tool.src_digest(tmp_path) == digest and tool.src_lines(tmp_path) == 5
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\nw = 4\n")
    assert tool.src_digest(tmp_path) != digest and tool.src_lines(tmp_path) == 6
    assert tool.src_lines(ROOT) == sum(
        path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py"))


def _compare(base, head, better="higher", bound=0.1):
    """`compare` on one metric `m` over pairs of the given base and head values."""
    pairs = [{"base": {"metrics": {"m": b}}, "head": {"metrics": {"m": h}}}
             for b, h in zip(base, head)]
    return _tool().compare(pairs, {"name": "m", "unit": "1/s", "better": better, "bound": bound})


BASE = list(range(100, 110))  # median 104.5, quartiles 102.25 and 106.75: an IQR of 4.5


def test_a_claim_needs_nine_of_ten_pairs_won_and_a_median_gain_past_the_base_iqr():
    wide = _compare(BASE, [b + 10 for b in BASE])
    assert (wide["head_wins"], wide["median_gain"], wide["base"]["iqr"]) == (10, 10, 4.5)
    assert wide["gain_exceeds_base_iqr"] and wide["claim_holds"]
    narrow = _compare(BASE, [b + 1 for b in BASE])  # every pair won, inside the spread
    assert narrow["head_wins"] == 10 and not narrow["gain_exceeds_base_iqr"]
    assert not narrow["claim_holds"]
    for lost, holds in ((1, True), (2, False)):  # the last pairs lost, the median gain kept
        result = _compare(BASE, [b + 10 for b in BASE[:-lost]] + [b - 1 for b in BASE[-lost:]])
        assert (result["head_wins"], result["base_wins"]) == (10 - lost, lost)
        assert result["gain_exceeds_base_iqr"] and result["claim_holds"] is holds


def test_a_tie_counts_for_neither_side():
    result = _compare(BASE, BASE[:2] + [b + 10 for b in BASE[2:]])
    assert (result["head_wins"], result["base_wins"]) == (8, 0)
    assert not result["claim_holds"]
    same = _compare(BASE, BASE)
    assert (same["head_wins"], same["base_wins"], same["median_gain"]) == (0, 0, 0)
    assert not same["claim_holds"] and not same["worse_than_bound"]


def test_worse_than_bound_is_relative_to_the_base_median():
    assert _compare([100] * 10, [89] * 10)["worse_than_bound"]  # 11% lost, bound 10%
    assert not _compare([100] * 10, [91] * 10)["worse_than_bound"]  # 9% lost
    assert not _compare([1000] * 10, [989] * 10)["worse_than_bound"]  # the same 11, 1.1%
    assert not _compare([100] * 10, [89] * 10, bound=0.2)["worse_than_bound"]


def test_a_lower_is_better_metric_flips_the_sign():
    faster = _compare([100] * 10, [80] * 10, better="lower")
    assert (faster["median_gain"], faster["head_wins"], faster["base_wins"]) == (20, 10, 0)
    assert faster["median_gain_pct"] == 20.0
    assert faster["claim_holds"] and not faster["worse_than_bound"]
    slower = _compare([100] * 10, [120] * 10, better="lower")
    assert (slower["median_gain"], slower["head_wins"], slower["base_wins"]) == (-20, 0, 10)
    assert slower["worse_than_bound"] and not slower["claim_holds"]


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                   cwd=cwd, check=True, capture_output=True)


def _refused(tmp_path, capsys, side):
    """`main`'s exit code and stderr when `--head side` is checked out."""
    argv = ["--base", str(side), "--head", str(side), "--batch", "tabular-3lane:1",
            "--seconds", "1", "--out", str(tmp_path / "record.json"),
            "--workdir", str(tmp_path / "work")]
    with pytest.raises(SystemExit) as exit_:
        _tool().main(argv)
    return exit_.value.code, capsys.readouterr().err


def test_a_plain_directory_side_is_refused_by_name(tmp_path, capsys, monkeypatch):
    # it once crashed with a CalledProcessError traceback from `git rev-parse HEAD`
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    plain = tmp_path / "plain"
    (plain / "src").mkdir(parents=True)
    code, err = _refused(tmp_path, capsys, plain)
    assert code == 2
    assert f"--base: {plain} is a directory but not the top of a git work tree" in err
    assert not (tmp_path / "record.json").exists() and not (tmp_path / "work").exists()


def test_a_directory_nested_in_a_repository_is_refused_and_its_top_recorded(
        tmp_path, capsys, monkeypatch):
    # a nested side once recorded the outer repository's commit beside its own digest
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    repo = tmp_path / "repo"
    (repo / "inner" / "src").mkdir(parents=True)
    (repo / "inner" / "src" / "a.py").write_text("x = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "first")
    code, err = _refused(tmp_path, capsys, repo / "inner")
    assert code == 2
    assert f"--base: {repo / 'inner'} is a directory but not the top of a git work tree" in err
    path, record = _tool().checkout(str(repo), str(tmp_path / "unused"))
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert path == str(repo) and record["commit"] == head and not record["dirty"]
