"""Digest every artifact and stdout of a fixed, seeded set of CLI commands.

Run from the root of a checkout; the commands use that checkout's `src/`:

    python3 tools/cli_digests.py OUT

OUT must be empty or absent. Each command runs with OUT as its working
directory and relative paths, so its stdout names the same files in any
checkout. The first line names the numpy version and BLAS build, on which
seeded results depend; then one `sha256  path` line is printed per command's
stdout (`<name>/stdout`) and per file the commands wrote, in a fixed order.
Diffing the output of two checkouts shows whether a change moved any seeded
result.

`tests/cli_digests.txt` is this output at the current commit, and
`tests/test_cli_digests.py` checks it on every test run, through
`deepcars.cli.run` in-process. A change that means to move a seeded result
rewrites it with

    python3 tools/cli_digests.py "$(mktemp -d)" > tests/cli_digests.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np

# (name, argv); a command writes its artifacts under its own name
COMMANDS = (
    ("tab", ["train-tabular", "--lanes", "3", "--steps", "20000", "--seed", "1", "--out", "tab"]),
    # the same run read back from tab's snapshot: every setting comes from the config file
    ("tab-config", ["train-tabular", "--config", "tab/config.txt", "--out", "tab-config"]),
    # 5-lane keys, the greedy branch that draws nothing, and alpha = 1
    ("tab5", ["train-tabular", "--lanes", "5", "--epsilon", "0", "--alpha", "1", "--steps", "5000",
              "--seed", "4", "--out", "tab5"]),
    # the narrowest world, where spawns with one lane kept free often need the repair
    ("tab2", ["train-tabular", "--lanes", "2", "--rows", "3", "--spawn-interval", "1",
              "--occupancy-prob", "0.9", "--steps", "5000", "--seed", "8", "--out", "tab2"]),
    ("ddqn", ["train-dqn", "--arch", "ddqn16x16", "--steps", "6000", "--seed", "7",
              "--fast-val-period", "1000", "--fast-val-episodes", "5",
              "--deep-val-period", "3000", "--deep-val-episodes", "10", "--out", "ddqn"]),
    # a deep validation of 100 episodes, so validate's tally closes a window
    ("ddqn-deepval", ["train-dqn", "--arch", "ddqn16", "--steps", "2000", "--learn-start", "500",
                      "--fast-val-period", "1000", "--fast-val-episodes", "5",
                      "--deep-val-period", "2000", "--deep-val-episodes", "100", "--seed", "6",
                      "--out", "ddqn-deepval"]),
    # the plain SGD update
    ("dqn-sgd", ["train-dqn", "--arch", "ddqn16", "--optimizer", "sgd", "--learning-rate", "0.01",
                 "--steps", "2000", "--learn-start", "500", "--fast-val-period", "1000",
                 "--fast-val-episodes", "5", "--seed", "11", "--out", "dqn-sgd"]),
    # an empty road: validations resolve no car, so their accuracy is n/a, the summary
    # row is 0,0 and stdout has the "n/a (no cars encountered)" line
    ("dqn-emptyroad", ["train-dqn", "--arch", "ddqn16", "--occupancy-prob", "0", "--steps", "600",
                       "--learn-start", "200", "--fast-val-period", "300",
                       "--fast-val-episodes", "2", "--seed", "12", "--out", "dqn-emptyroad"]),
    ("dqn", ["train-dqn", "--hidden", "16,16", "--steps", "4000", "--seed", "5",
             "--fast-val-period", "1000", "--fast-val-episodes", "5", "--out", "dqn"]),
    # a ring of 1000 that wraps twice, so the oldest transitions are overwritten
    ("ddqn-ring", ["train-dqn", "--arch", "ddqn16x16", "--replay-capacity", "1000",
                   "--learn-start", "500", "--steps", "3000", "--fast-val-period", "1000",
                   "--fast-val-episodes", "5", "--seed", "13", "--out", "ddqn-ring"]),
    ("medium", ["train-dqn", "--arch", "medium", "--steps", "3000", "--seed", "3",
                "--fast-val-period", "1000", "--fast-val-episodes", "5", "--out", "medium"]),
    # the two wider paper architectures, 32-64-32 and 64-128-128-64
    ("shallow", ["train-dqn", "--arch", "shallow", "--steps", "2000", "--learn-start", "500",
                 "--fast-val-period", "1000", "--fast-val-episodes", "5", "--seed", "14",
                 "--out", "shallow"]),
    ("deep", ["train-dqn", "--arch", "deep", "--steps", "1200", "--learn-start", "400",
              "--fast-val-period", "600", "--fast-val-episodes", "3", "--seed", "15",
              "--out", "deep"]),
    ("eval-tab", ["evaluate", "--model", "tab/qtable.txt", "--lanes", "3", "--steps", "20000",
                  "--seed", "2", "--out", "eval-tab"]),
    ("eval-tab2", ["evaluate", "--model", "tab2/qtable.txt", "--lanes", "2", "--rows", "3",
                   "--spawn-interval", "1", "--occupancy-prob", "0.9", "--steps", "5000",
                   "--seed", "2", "--out", "eval-tab2"]),
    ("eval-mlp", ["evaluate", "--model", "ddqn/best.model", "--steps", "20000", "--seed", "9",
                  "--out", "eval-mlp"]),
    # 3000 steps of episodes capped at 12: a reset, then an encode of the fresh world, every
    # 12 steps or sooner, while cars still reach the ego
    ("eval-short", ["evaluate", "--model", "ddqn/best.model", "--max-episode-steps", "12",
                    "--steps", "3000", "--seed", "5", "--out", "eval-short"]),
    ("eval-deep", ["evaluate", "--model", "deep/best.model", "--steps", "3000", "--seed", "16",
                   "--out", "eval-deep"]),
    ("demo-tab", ["demo", "--model", "tab/qtable.txt", "--lanes", "3", "--episodes", "2",
                  "--seed", "3"]),
    ("demo-mlp", ["demo", "--model", "ddqn/best.model", "--episodes", "2", "--seed", "3"]),
    # three 4-step episodes: a reset, then a snapshot of the fresh world, every 4 steps
    ("demo-short", ["demo", "--model", "ddqn/best.model", "--episodes", "3",
                    "--max-episode-steps", "4", "--seed", "4"]),
    ("plot", ["plot", "ddqn/windows.csv", "dqn/windows.csv", "-o", "plot/curves.svg",
              "--labels", "ddqn,dqn", "--title", "windows"]),
    # one (0, 0) point: a range that is flat on both axes
    ("plot-flat", ["plot", "dqn-emptyroad/summary.csv", "-o", "plot-flat/flat.svg"]),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build() -> str:
    """The header line: the numpy version and BLAS build the digests hold for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def digest_lines(out, run):
    """The digest lines of COMMANDS, run in order by `run(args)` with the
    directory `out` as working directory; `run` returns the command's stdout
    bytes and raises if it fails."""
    for name, args in COMMANDS:
        yield f"{sha256(run(args))}  {name}/stdout"
        for root, dirs, files in os.walk(os.path.join(out, name)):
            dirs.sort()
            for file in sorted(files):
                path = os.path.join(root, file)
                with open(path, "rb") as fh:
                    yield f"{sha256(fh.read())}  {os.path.relpath(path, out)}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "deepcars", "cli.py")):
        print("error: run from the repository root; src/deepcars/cli.py not found",
              file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "deepcars.cli", *args], cwd=out, env=env,
                              capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"deepcars {' '.join(args)} exited {proc.returncode}: "
                               f"{proc.stderr.decode().strip()}")
        return proc.stdout

    print(build())
    try:
        for line in digest_lines(out, run):
            print(line, flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
