"""Outside-in span tracer for the deepcars package.

The benchmark never edits the package. Instead, a traced worker replaces the
module or class attributes that callers look up at call time (for example
`deepcars.dqn.encode_dqn`, which `DqnTrainer` reads as a module global) with
timing wrappers. Each wrapper opens a span; a span's self time is its
duration minus the time covered by the spans it encloses. Spans are
aggregated in memory per name (calls, inclusive seconds, self seconds) and
handed back when the worker ends.
"""

from __future__ import annotations

import functools
import importlib
import time

# (metric name, "module:Class" or "module", attribute). Each entry names the
# attribute its caller looks up, so the wrapper sees every call made through
# the package's own code paths.
WRAPS = (
    ("env.step", "deepcars.env:DeepCarsEnv", "step"),
    ("env.reset", "deepcars.env:DeepCarsEnv", "reset"),
    ("env.spawn_row", "deepcars.env", "spawn_row"),
    ("kernels.advance", "deepcars.kernels", "advance"),
    ("encoders.encode_tabular", "deepcars.tabular", "encode_tabular"),
    ("encoders.encode_dqn", "deepcars.dqn", "encode_dqn"),
    ("tabular.select_action", "deepcars.tabular", "select_action"),
    ("tabular.q_update", "deepcars.tabular", "q_update"),
    ("tabular.save_qtable", "deepcars.tabular", "save_qtable"),
    ("tabular.load_qtable", "deepcars.tabular", "load_qtable"),
    ("net.forward", "deepcars.net", "forward"),
    ("net.backward", "deepcars.net", "backward"),
    ("net.gradient_step", "deepcars.net", "gradient_step"),
    ("net.clone_into", "deepcars.net", "clone_into"),
    ("net.save_model", "deepcars.net", "save_model"),
    ("net.load_model", "deepcars.net", "load_model"),
    ("kernels.mlp_forward", "deepcars.kernels", "mlp_forward"),
    ("kernels.mlp_backward", "deepcars.kernels", "mlp_backward"),
    ("kernels.adam_update", "deepcars.kernels", "adam_update"),
    ("replay.push", "deepcars.replay:ReplayBuffer", "push"),
    ("replay.sample", "deepcars.replay:ReplayBuffer", "sample"),
    ("dqn.train_step", "deepcars.dqn:DqnTrainer", "train_step"),
    ("dqn.td_targets", "deepcars.dqn", "td_targets"),
    ("dqn.greedy_action", "deepcars.dqn", "greedy_action"),
    ("dqn.validate", "deepcars.dqn", "validate"),
    ("metrics.add_step", "deepcars.metrics:RunMetrics", "add_step"),
    ("metrics.write_csv", "deepcars.metrics", "write_csv"),
)

# net.forward is reported as two spans: one input vector (greedy acting) and
# a batch (learner targets and the TD error).
FORWARD_SPLIT = ("net.forward.b1", "net.forward.batch")

# every span name a traced worker reports, cli.run (the worker's own call) first
SPAN_NAMES = ("cli.run",) + tuple(
    n for name, _, _ in WRAPS for n in (FORWARD_SPLIT if name == "net.forward" else (name,))
)

# env.step calls made inside validate() are counted apart, so the harness can
# split environment steps into training, evaluation and validation steps
SCOPE = "dqn.validate"


class Stat:
    __slots__ = ("calls", "incl", "self_s", "in_scope", "units")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.in_scope = 0
        self.units = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        # child time accumulated by each open span; index 0 is the root
        self._child = [0.0]
        self._scope_depth = 0

    def span(self, name, fn, units=None, scope=False):
        """Wrap `fn` so each call is one span named `name`.

        `units(args)` adds a per-call work count (e.g. episodes) to the stat;
        `scope=True` marks spans whose descendants are counted in `in_scope`.
        """
        stat = self.stats.setdefault(name, Stat())
        child = self._child
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if self._scope_depth:
                stat.in_scope += 1
            if units is not None:
                stat.units += units(args)
            if scope:
                self._scope_depth += 1
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                covered = child.pop()
                child[-1] += dur
                stat.incl += dur
                stat.self_s += dur - covered
                if scope:
                    self._scope_depth -= 1

        return wrapper

    def install(self) -> None:
        """Replace every attribute in WRAPS with a traced wrapper."""
        for name, where, attr in WRAPS:
            module_name, _, cls_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            if name == "net.forward":
                wrapped = self._split_forward(original)
            elif name == SCOPE:
                # validate(params, config, episodes, seed)
                wrapped = self.span(name, original, units=lambda a: a[2], scope=True)
            else:
                wrapped = self.span(name, original)
            setattr(owner, attr, wrapped)

    def _split_forward(self, forward):
        b1 = self.span(FORWARD_SPLIT[0], forward)
        batch = self.span(FORWARD_SPLIT[1], forward)

        @functools.wraps(forward)
        def dispatch(params, x):
            return b1(params, x) if x.ndim == 1 else batch(params, x)

        return dispatch

    def report(self) -> dict:
        return {name: stat.as_dict() for name, stat in self.stats.items()}
