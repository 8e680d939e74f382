"""Dense feed-forward value network with hand-rolled backprop.

Parameters live in one flat float64 vector so the numpy kernels, the
optimizer state, and serialization all share a single layout. Hidden layers
are rectified-linear, the output layer is linear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .metrics import write_lines


class ShapeError(ValueError):
    """Array dimensions do not match the declared layer dims."""


class NumericError(ValueError):
    """A non-finite value reached a numeric operation."""


class ModelFormatError(ValueError):
    """A model file carries an unknown version tag or is malformed."""


MODEL_FORMAT_TAG = "deepcars-mlp-v1"


@dataclass(eq=False)
class MlpParams:
    """Flat parameters of one MLP plus per-layer views into them.

    `theta` is mutated in place and never rebound: `layers`, one (W.T, b)
    pair of views into `theta` per layer, is built once at construction and
    would go stale if `theta` were replaced by another array.
    """

    layer_dims: np.ndarray  # int64, [n_in, h1, ..., n_out]
    theta: np.ndarray  # flat float64, C-contiguous
    layers: tuple = field(init=False, repr=False)

    def __post_init__(self):
        dims = [int(d) for d in self.layer_dims]
        if len(dims) < 2 or min(dims) < 1:
            raise ShapeError(f"layer dims must be >= 2 positive sizes, got {dims}")
        if self.theta.shape != (kernels.total_params(dims),):
            raise ShapeError(f"theta of shape {self.theta.shape} does not fit dims {dims}")
        if not self.theta.flags.c_contiguous:
            raise ShapeError("theta must be C-contiguous so layer views alias it")
        self.layers = tuple(
            (self.theta[w0:b0].reshape(dims[k + 1], dims[k]).T, self.theta[b0:end])
            for k, (w0, b0, end) in enumerate(kernels.layer_offsets(dims))
        )

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
    dims = np.asarray(layer_dims, dtype=np.int64)
    if len(dims) < 2 or np.any(dims < 1):
        raise ShapeError(f"layer dims must be >= 2 positive sizes, got {list(dims)}")
    theta = np.zeros(kernels.total_params(dims))
    rng = np.random.default_rng(seed)
    for k, (w0, b0, _) in enumerate(kernels.layer_offsets(dims)):
        fan_in = int(dims[k])
        scale = 1.0 / np.sqrt(fan_in)
        theta[w0:b0] = rng.uniform(-scale, scale, b0 - w0)
    return MlpParams(layer_dims=dims, theta=theta)


def _as_batch(x, width, what):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(f"{what} must have width {width}, got shape {x.shape}")
    return x


def forward(params: MlpParams, x) -> np.ndarray:
    """Q-values for one input vector or a batch of them."""
    single = np.ndim(x) == 1
    xb = _as_batch(x, params.layers[0][0].shape[0], "input")
    out = kernels.mlp_forward(params.layers, xb)
    return out[0] if single else out


def backward(params: MlpParams, x, output_gradient) -> np.ndarray:
    """Gradient of the forward map contracted with `output_gradient`.

    Returns a flat vector in the same layout as `params.theta`; batched inputs
    contribute their per-sample gradients summed.
    """
    single = np.ndim(x) == 1
    xb = _as_batch(x, params.layers[0][0].shape[0], "input")
    gb = _as_batch(output_gradient, params.layers[-1][1].shape[0], "output gradient")
    if single != (np.ndim(output_gradient) == 1) or xb.shape[0] != gb.shape[0]:
        raise ShapeError(
            f"input batch {xb.shape[0]} does not match gradient batch {gb.shape[0]}"
        )
    return kernels.mlp_backward(params.layers, xb, gb)


def clone(params: MlpParams) -> MlpParams:
    return MlpParams(layer_dims=params.layer_dims.copy(), theta=params.theta.copy())


def clone_into(source: MlpParams, target: MlpParams) -> None:
    """Copy source parameters into target storage, bit-exactly."""
    if not np.array_equal(source.layer_dims, target.layer_dims):
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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def make_optimizer(
    params: MlpParams, algorithm: str = "adam", learning_rate: float = 1e-3
) -> OptimizerState:
    if algorithm not in ("adam", "sgd"):
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
        kernels.adam_update(
            params.theta,
            grad,
            opt.m,
            opt.v,
            opt.step_count,
            opt.learning_rate,
            ADAM_BETA1,
            ADAM_BETA2,
            ADAM_EPS,
        )
    else:
        kernels.sgd_update(params.theta, grad, opt.learning_rate)


def _fmt(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def save_model(params: MlpParams, path, optimizer: str = "adam") -> None:
    """Versioned text format: dims, optimizer tag, then per-layer w/b blocks."""
    lines = [
        f"format {MODEL_FORMAT_TAG}",
        "dims " + ",".join(str(int(d)) for d in params.layer_dims),
        f"optimizer {optimizer}",
    ]
    for k in range(params.n_layers):
        lines.append(f"w{k} " + _fmt(params.weight(k).ravel()))
        lines.append(f"b{k} " + _fmt(params.bias(k)))
    write_lines(path, lines)


def load_model(path) -> tuple[MlpParams, str]:
    """Inverse of save_model; fails loudly on any other format version."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("format "):
        raise ModelFormatError(f"{path}: missing format header")
    tag = lines[0].split(" ", 1)[1]
    if tag != MODEL_FORMAT_TAG:
        raise ModelFormatError(
            f"{path}: unsupported model format {tag!r}, expected {MODEL_FORMAT_TAG!r}"
        )
    if len(lines) < 3 or not lines[1].startswith("dims ") or not lines[2].startswith("optimizer "):
        raise ModelFormatError(f"{path}: malformed header")
    dims = np.array([int(d) for d in lines[1][5:].split(",")], dtype=np.int64)
    optimizer = lines[2].split(" ", 1)[1]
    params = MlpParams(layer_dims=dims, theta=np.zeros(kernels.total_params(dims)))
    blocks = [
        (f"{kind}{k}", view)
        for k in range(params.n_layers)
        for kind, view in (("w", params.weight(k)), ("b", params.bias(k)))
    ]
    body = lines[3:]
    if len(body) != len(blocks):
        raise ModelFormatError(
            f"{path}: expected {len(blocks)} parameter lines, found {len(body)}"
        )
    for line, (label, view) in zip(body, blocks):
        key, _, payload = line.partition(" ")
        if key != label:
            raise ModelFormatError(f"{path}: expected block {label!r}, found {key!r}")
        values = np.array([float(v) for v in payload.split()], dtype=np.float64)
        if values.size != view.size:
            raise ModelFormatError(
                f"{path}: block {label!r} has {values.size} values, expected {view.size}"
            )
        if not np.isfinite(values).all():
            raise ModelFormatError(f"{path}: block {label!r} holds a non-finite value")
        view[...] = values.reshape(view.shape)
    return params, optimizer
