"""The seeded artifacts against their golden digests.

`tests/cli_digests.txt` holds what `tools/cli_digests.py` printed for its
command list; this test runs the same list through `cli.run` in-process and
compares every line. The digests hold per numpy/BLAS build, so on another
build the test fails and names both.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from deepcars import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "cli_digests.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "tools" / "cli_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_in_process(args):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.run(args)
    if rc != 0:
        raise RuntimeError(f"deepcars {' '.join(args)} exited {rc}")
    return stdout.getvalue().encode()


def test_seeded_artifacts_match_the_golden_digests(tmp_path, monkeypatch):
    tool = _tool()
    header, *golden = GOLDEN.read_text().splitlines()
    build = tool.build()
    if header != build:
        pytest.fail(f"{GOLDEN.name} was taken on {header[2:]}, this is {build[2:]}; "
                    "seeded results hold per numpy/BLAS build")
    monkeypatch.chdir(tmp_path)
    got = list(tool.digest_lines(str(tmp_path), _run_in_process))
    assert [line.split()[1] for line in got] == [line.split()[1] for line in golden]
    moved = [want.split()[1] for line, want in zip(got, golden) if line != want]
    assert not moved, f"seeded artifacts differ from {GOLDEN.name}: {', '.join(moved)}"
