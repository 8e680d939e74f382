"""Alternating pairs of benchmark runs on two checkouts, as one JSON record.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --base HEAD~1 --head . --seconds 10 \
        --batch tabular-3lane:101-110 --batch ddqn16x16:101-110 \
        --batch tabular-3lane:201-210 --out BENCH_label.json

A side is a directory (used as it is) or a git revision, which is exported
with `git archive` into a fresh directory under `--workdir`, so the
repository's own worktrees and index are left alone. Each batch runs one pair
per seed of `WORKLOAD:FIRST-LAST`:

    python3 bench/run.py --workload W --seed S --seconds N --trace 0

once in each checkout, the base first on even pairs and the head first on odd
ones. The record holds every run's end-to-end metrics; per batch and metric,
each side's median and quartiles, the head's wins (ties count for neither),
the median difference, whether it exceeds the base's interquartile range, and
whether a gain may be claimed (9 of 10 pairs won and that margin); both
commits, with a digest and the line count of the sources that ran; and the
machine record of the first run. The metrics, their better direction and their
bounds come from the head's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import time


def _git(cwd, *args) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _src_files(root):
    """(relative path, bytes) of each .py file under src/, in a fixed order."""
    for dirpath, dirnames, files in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                yield os.path.relpath(path, root), fh.read()


def src_digest(root) -> str:
    """sha256 over the relative paths and bytes of the .py files under src/."""
    h = hashlib.sha256()
    for rel, data in _src_files(root):
        h.update(rel.encode() + b"\0")
        h.update(data)
    return h.hexdigest()


def src_lines(root) -> int:
    """Total line count of the .py files under src/, as `wc -l` counts them."""
    return sum(data.count(b"\n") for _, data in _src_files(root))


def checkout(side: str, where: str) -> tuple[str, dict]:
    """(directory, record) of `side`, a directory or a git revision. A commit with
    uncommitted changes is marked dirty; the source digest names what ran. A directory
    that is not the top of a git work tree is refused (ValueError): it has no commit of
    its own, and one nested in a repository would be recorded with the outer one's."""
    if os.path.isdir(side):
        path = os.path.abspath(side)
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=path,
                             capture_output=True, text=True).stdout.strip()
        if not top or not os.path.samefile(top, path):
            raise ValueError(f"{side} is a directory but not the top of a git work tree")
        commit = _git(path, "rev-parse", "HEAD")
        dirty = bool(_git(path, "status", "--porcelain", "--untracked-files=no"))
    else:
        commit, dirty = _git(".", "rev-parse", "--verify", f"{side}^{{commit}}"), False
        path = os.path.abspath(where)
        os.makedirs(path)
        tar = subprocess.run(["git", "archive", commit], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(path, filter="data")
    return path, {"commit": commit, "dirty": dirty, "src_sha256": src_digest(path),
                  "src_lines": src_lines(path)}


def run_bench(root, workload, seed, seconds) -> dict:
    """One untraced benchmark run: its last stdout line, with the machine record."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(root, ".bench_out", "results",
                           f"{workload}-seed{seed}-trace0.json")) as fh:
        machine = json.load(fh)["machine"]
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "machine": machine,
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(pairs, metric) -> dict:
    """Head against base on one metric over the batch's pairs."""
    name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
    base = [p["base"]["metrics"][name] for p in pairs]
    head = [p["head"]["metrics"][name] for p in pairs]
    b, h = spread(base), spread(head)
    gain = sign * (h["median"] - b["median"])  # > 0: the head's median is better
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))
    return {
        "unit": metric["unit"], "better": metric["better"], "base": b, "head": h,
        "head_wins": wins,
        "base_wins": sum(sign * (y - x) < 0 for x, y in zip(base, head)),
        "median_gain": gain,
        "median_gain_pct": 100.0 * gain / abs(b["median"]) if b["median"] else None,
        "gain_exceeds_base_iqr": gain > b["iqr"],
        # a gain may be claimed: the head wins 9 of 10 pairs and beats the base's spread
        "claim_holds": wins >= 0.9 * len(pairs) and gain > b["iqr"],
        # worse than the base by more than the benchmark's relative bound
        "worse_than_bound": -gain > metric["bound"] * abs(b["median"]),
    }


def _seed_range(text: str) -> tuple[str, range]:
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    return workload, range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="directory or git revision")
    parser.add_argument("--head", required=True, help="directory or git revision")
    parser.add_argument("--batch", action="append", required=True, type=_seed_range,
                        help="WORKLOAD:FIRST-LAST, one pair per seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="JSON record to write")
    parser.add_argument("--workdir", default=os.path.join(".bench_out", "pairs"),
                        help="where revisions are exported")
    args = parser.parse_args(argv)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    sides = {}
    for side in ("base", "head"):
        try:
            sides[side] = checkout(getattr(args, side),
                                   os.path.join(args.workdir, f"{stamp}-{os.getpid()}-{side}"))
        except ValueError as exc:
            parser.error(f"--{side}: {exc}")
    with open(os.path.join(sides["head"][0], "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    batches, machine = [], None
    for workload, seeds in args.batch:
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(sides[side][0], workload, seed, args.seconds)
                machine = machine or pair[side]["machine"]
                del pair[side]["machine"]
                print(f"{workload} seed {seed} {side}: "
                      + json.dumps(pair[side]["metrics"]), file=sys.stderr, flush=True)
            pairs.append(pair)
        batches.append({
            "workload": workload, "seeds": [seeds.start, seeds.stop - 1], "pairs": pairs,
            "all_correct": all(p[s]["correct"] for p in pairs for s in ("base", "head")),
            "compare": {m["name"]: compare(pairs, m) for m in metrics},
        })

    record = {
        "command": "python3 bench/run.py --workload W --seed S --seconds N --trace 0",
        "seconds": args.seconds,
        "base": sides["base"][1], "head": sides["head"][1],
        "machine": machine,
        "batches": batches,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
