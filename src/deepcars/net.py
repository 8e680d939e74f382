"""Dense feed-forward value network with hand-rolled backprop.

Parameters live in one flat float64 vector so the numpy kernels, the
optimizer state, and serialization all share a single layout. Hidden layers
are rectified-linear, the output layer is linear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .metrics import read_lines, write_lines


class ShapeError(ValueError):
    """Array dimensions do not match the declared layer dims."""


class NumericError(ValueError):
    """A non-finite value reached a numeric operation."""


class ModelFormatError(ValueError):
    """A model file carries an unknown version tag or is malformed."""


MODEL_FORMAT_TAG = "deepcars-mlp-v1"
OPTIMIZERS = ("adam", "sgd")


def _theta_size(dims) -> int:
    """Length of `theta` for layer dims [n_in, h1, ..., n_out]."""
    if len(dims) < 2 or min(dims) < 1:
        raise ShapeError(f"layer dims must be >= 2 positive sizes, got {list(dims)}")
    return sum(n_out * (n_in + 1) for n_in, n_out in zip(dims, dims[1:]))


@dataclass(eq=False)
class MlpParams:
    """Flat parameters of one MLP plus per-layer views into them.

    This is the one declaration of the layout: for each layer in turn,
    `theta` holds a row-major (out x in) weight block, then its bias block.
    `theta` is mutated in place and never rebound: `layers`, one (W.T, b)
    pair of views into `theta` per layer, is built once at construction and
    would go stale if `theta` were replaced by another array.
    """

    layer_dims: tuple  # Python ints, [n_in, h1, ..., n_out]
    theta: np.ndarray  # flat float64, C-contiguous
    layers: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_dims = dims = tuple(int(d) for d in self.layer_dims)
        if self.theta.shape != (_theta_size(dims),):
            raise ShapeError(f"theta of shape {self.theta.shape} does not fit dims {list(dims)}")
        if not self.theta.flags.c_contiguous:
            raise ShapeError("theta must be C-contiguous so layer views alias it")
        layers = []
        pos = 0
        for n_in, n_out in zip(dims, dims[1:]):
            bias_at = pos + n_out * n_in
            weight = self.theta[pos:bias_at].reshape(n_out, n_in)
            layers.append((weight.T, self.theta[bias_at : bias_at + n_out]))
            pos = bias_at + n_out
        self.layers = tuple(layers)

    def __reduce__(self):
        # a copy or an unpickled object rebuilds its views over its own theta
        return MlpParams, (self.layer_dims, self.theta)

    def weight(self, k: int) -> np.ndarray:
        """Row-major (out x in) weight matrix of layer k, as a view."""
        return self.layers[k][0].T

    def bias(self, k: int) -> np.ndarray:
        return self.layers[k][1]

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def init_params(layer_dims, seed: int) -> MlpParams:
    """Fan-in-scaled uniform weights, zero biases, deterministic in `seed`."""
    params = MlpParams(layer_dims, np.zeros(_theta_size(layer_dims)))
    rng = np.random.default_rng(seed)
    for k in range(params.n_layers):
        weight = params.weight(k)
        scale = 1.0 / np.sqrt(weight.shape[1])
        weight[...] = rng.uniform(-scale, scale, weight.size).reshape(weight.shape)
    return params


def _as_input(x, width, what):
    """`x` as a C-contiguous float64 vector or batch of rows `width` wide."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim > 2 or x.shape[-1] != width:
        raise ShapeError(f"{what} must have width {width}, got shape {x.shape}")
    return x


def forward(params: MlpParams, x) -> np.ndarray:
    """Q-values for one input vector or a batch of them (a vector gives the
    same bits as the row of a one-row batch)."""
    return kernels.mlp_forward(params.layers, _as_input(x, params.layer_dims[0], "input"))


def backward(params: MlpParams, x, output_gradient) -> np.ndarray:
    """Gradient of the forward map contracted with `output_gradient`.

    Returns a flat vector in the same layout as `params.theta`; batched inputs
    contribute their per-sample gradients summed.
    """
    single = np.ndim(x) == 1
    xb = np.atleast_2d(_as_input(x, params.layer_dims[0], "input"))
    gb = np.atleast_2d(_as_input(output_gradient, params.layer_dims[-1], "output gradient"))
    if single != (np.ndim(output_gradient) == 1) or xb.shape[0] != gb.shape[0]:
        raise ShapeError(
            f"input batch {xb.shape[0]} does not match gradient batch {gb.shape[0]}"
        )
    return kernels.mlp_backward(params.layers, xb, gb)


def clone(params: MlpParams) -> MlpParams:
    return MlpParams(params.layer_dims, params.theta.copy())


def clone_into(source: MlpParams, target: MlpParams) -> None:
    """Copy source parameters into target storage, bit-exactly."""
    if source.layer_dims != target.layer_dims:
        raise ShapeError(
            f"cannot clone dims {list(source.layer_dims)} into {list(target.layer_dims)}"
        )
    target.theta[:] = source.theta


@dataclass(eq=False)
class OptimizerState:
    algorithm: str  # "adam" | "sgd"
    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0


def make_optimizer(
    params: MlpParams, algorithm: str = "adam", learning_rate: float = 1e-3
) -> OptimizerState:
    if algorithm not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {algorithm!r}")
    if not 0 < learning_rate < np.inf:  # false for nan too
        raise ValueError(f"learning_rate must be finite and positive, got {learning_rate}")
    return OptimizerState(
        algorithm=algorithm,
        learning_rate=learning_rate,
        m=np.zeros_like(params.theta),
        v=np.zeros_like(params.theta),
    )


def gradient_step(params: MlpParams, grad: np.ndarray, opt: OptimizerState) -> None:
    """One in-place descent update; rejects non-finite gradients."""
    if grad.shape != params.theta.shape:
        raise ShapeError(
            f"gradient shape {grad.shape} does not match parameters {params.theta.shape}"
        )
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient; training aborted")
    opt.step_count += 1
    if opt.algorithm == "adam":
        kernels.adam_update(params.theta, grad, opt.m, opt.v, opt.step_count, opt.learning_rate)
    else:
        params.theta -= opt.learning_rate * grad


def _blocks(params: MlpParams):
    """(label, view) of each parameter block in model-file order: w0, b0, w1, ..."""
    return [(f"{kind}{k}", view) for k in range(params.n_layers)
            for kind, view in (("w", params.weight(k)), ("b", params.bias(k)))]


def _model_lines(params: MlpParams, optimizer: str) -> list[str]:
    """Versioned text format: dims, optimizer tag, then per-layer w/b blocks."""
    return [
        f"format {MODEL_FORMAT_TAG}",
        "dims " + ",".join(map(str, params.layer_dims)),
        f"optimizer {optimizer}",
        *(f"{label} " + " ".join(map(repr, view.ravel().tolist()))
          for label, view in _blocks(params)),
    ]


def save_model(params: MlpParams, path, optimizer: str = "adam") -> None:
    """Write `params`; a non-finite value, which `load_model` refuses, raises
    NumericError before any file is written."""
    if not np.isfinite(params.theta).all():
        raise NumericError(f"{path}: model holds a non-finite value")
    write_lines(path, _model_lines(params, optimizer))


def load_model(path) -> tuple[MlpParams, str]:
    """Inverse of save_model; refuses any other format version, and any text
    save_model would not write for the values read, such as "0_3" or "+0.5"."""
    lines = read_lines(path)
    if not lines or not lines[0].startswith("format "):
        raise ModelFormatError(f"{path}: missing format header")
    tag = lines[0].split(" ", 1)[1]
    if tag != MODEL_FORMAT_TAG:
        raise ModelFormatError(
            f"{path}: unsupported model format {tag!r}, expected {MODEL_FORMAT_TAG!r}"
        )
    if len(lines) < 3 or not lines[1].startswith("dims ") or not lines[2].startswith("optimizer "):
        raise ModelFormatError(f"{path}: malformed header")
    dims_text = lines[1][5:]
    try:
        dims = tuple(int(d) for d in dims_text.split(","))
        params = MlpParams(dims, np.zeros(_theta_size(dims)))
    except ValueError as exc:  # ShapeError included
        raise ModelFormatError(f"{path}: bad dims {dims_text!r}: {exc}") from None
    optimizer = lines[2].split(" ", 1)[1]
    if optimizer not in OPTIMIZERS:
        raise ModelFormatError(f"{path}: block 'optimizer': unknown optimizer {optimizer!r}")
    # each line is read as the block whose place it holds, so an inserted or blank
    # line fails at that block; lines missing or left over fail the line count
    blocks = _blocks(params)
    for line, (label, view) in zip(lines[3:], blocks):
        try:
            values = np.array([float(v) for v in line.partition(" ")[2].split()])
        except ValueError as exc:
            raise ModelFormatError(f"{path}: block {label!r}: {exc}") from None
        if values.size != view.size:
            raise ModelFormatError(
                f"{path}: block {label!r} has {values.size} values, expected {view.size}"
            )
        if not np.isfinite(values).all():
            raise ModelFormatError(f"{path}: block {label!r} holds a non-finite value")
        view[...] = values.reshape(view.shape)
    for line, text in zip(lines, _model_lines(params, optimizer)):
        if line != text:
            raise ModelFormatError(f"{path}: block {line.split()[0]!r} is not as saved")
    if len(lines) - 3 != len(blocks):
        raise ModelFormatError(
            f"{path}: expected {len(blocks)} parameter lines, found {len(lines) - 3}"
        )
    return params, optimizer
