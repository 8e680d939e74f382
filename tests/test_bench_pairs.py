"""The source size that `tools/bench_pairs.py` records next to its digest."""

import importlib.util
from pathlib import Path

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
