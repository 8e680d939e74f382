"""One benchmark worker: a fresh interpreter that runs one job and exits.

run.py starts it as `python worker.py '<json spec>'` with `src/` on
PYTHONPATH and writes nothing else into its environment. The spec's `mode`
selects the job:

    run    run one `deepcars.cli.run(argv)` command, optionally traced
    probe  report which deepcars, numpy, BLAS and backend the program uses
    check  load artifacts back through the package's own readers

Every job writes one JSON object to `spec["result"]`. Nothing may be imported
before `deepcars.cli`, so set-up time is what a user pays and the program
alone decides its numpy/BLAS configuration.
"""

import json
import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _program_info() -> dict:
    from deepcars import kernels

    return {
        "have_numba": kernels.HAVE_NUMBA,
        "numba_enabled": kernels.NUMBA_ENABLED,
        "deepcars_numba_env": os.environ.get("DEEPCARS_NUMBA"),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _probe(cli, spec) -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    return {
        "deepcars_file": cli.__file__,
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas", {}),
        **_program_info(),
    }


def _reference_s() -> float:
    """Seconds for a fixed pure-Python loop: a probe of the host's current speed."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(100_000):
        total += i * i
        table[i & 255] = total
    return time.perf_counter() - start


def _run(cli, spec) -> dict:
    import resource

    run = cli.run
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.span("cli.run", cli.run)
    # probed before the command, so nothing the program starts can affect it
    reference_s = _reference_s()
    start = time.perf_counter()
    rc = run(spec["argv"])
    run_s = time.perf_counter() - start
    return {
        "rc": rc,
        "run_s": run_s,
        "reference_s": reference_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "program": _program_info(),
        "trace": tracer.report() if tracer else None,
    }


def _read_kv(path) -> dict:
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _check_one(item) -> dict:
    """Load one command's artifacts; raise on anything a correct run cannot give."""
    from deepcars import metrics, net, tabular

    out, role, steps = item["out"], item["role"], item["steps"]
    info = {}
    if role == "train":
        run = metrics.read_csv(out)
        if len(run.steps) != steps:
            raise ValueError(f"{out}: steps.csv has {len(run.steps)} rows, expected {steps}")
        if item["agent"] == "tabular":
            info["qtable_states"] = len(tabular.load_qtable(os.path.join(out, "qtable.txt")))
        else:
            if not run.validations:
                raise ValueError(f"{out}: no validation rows")
            for name in ("best.model", "final.model"):
                params, _ = net.load_model(os.path.join(out, name))
                if [int(d) for d in params.layer_dims] != item["dims"]:
                    raise ValueError(f"{out}/{name}: dims {list(params.layer_dims)}")
    else:
        summary = _read_kv(os.path.join(out, "evaluation.txt"))
        if int(summary["steps"]) != steps:
            raise ValueError(f"{out}: evaluated {summary['steps']} steps, expected {steps}")
        passed, collided = int(summary["passed"]), int(summary["collided"])
        accuracy = float(summary["accuracy"])
        if passed + collided < 1 or abs(accuracy - 100.0 * passed / (passed + collided)) > 1e-9:
            raise ValueError(f"{out}: accuracy {accuracy} disagrees with counts")
        info["accuracy"] = accuracy
    return info


def _check(cli, spec) -> dict:
    results = {}
    for item in spec["items"]:
        try:
            results[item["out"]] = {"ok": True, **_check_one(item)}
        except (OSError, ValueError, KeyError) as exc:
            results[item["out"]] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"items": results}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import deepcars.cli as cli

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"deepcars imported from {cli.__file__}, expected {src}", file=sys.stderr)
        return 3
    job = {"run": _run, "probe": _probe, "check": _check}[spec["mode"]]
    result = job(cli, spec)
    result["setup_s"] = imported - spec["spawn"]
    # spawn to job done; interpreter teardown after this point is not counted
    result["wall_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawn"]
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
