"""Hot numeric kernels: dense-net passes, optimizer updates, grid advance.

There is one backend: every kernel is plain numpy.

Network parameters travel as one flat float64 vector `theta` plus an int64
`dims` array [n_in, h1, ..., n_out]; layer k occupies a row-major (out x in)
weight block followed by its bias block.
"""

import numpy as np

# bench/worker.py reads these for its machine record; no numba backend exists.
HAVE_NUMBA = NUMBA_ENABLED = False


def total_params(dims) -> int:
    """Length of the flat parameter vector for the given layer dims."""
    dims = np.asarray(dims, dtype=np.int64)
    return int(sum(dims[k + 1] * (dims[k] + 1) for k in range(len(dims) - 1)))


def layer_offsets(dims):
    """Per-layer (weight_start, bias_start, end) offsets into the flat vector."""
    offs = []
    pos = 0
    dims = np.asarray(dims, dtype=np.int64)
    for k in range(len(dims) - 1):
        n_in, n_out = int(dims[k]), int(dims[k + 1])
        offs.append((pos, pos + n_out * n_in, pos + n_out * (n_in + 1)))
        pos += n_out * (n_in + 1)
    return offs


def mlp_forward(theta, dims, x):
    a = x
    n_layers = len(dims) - 1
    pos = 0
    for k in range(n_layers):
        n_in, n_out = dims[k], dims[k + 1]
        w = theta[pos : pos + n_out * n_in].reshape(n_out, n_in)
        b = theta[pos + n_out * n_in : pos + n_out * (n_in + 1)]
        a = a @ w.T + b
        if k != n_layers - 1:
            a = np.maximum(a, 0.0)
        pos += n_out * (n_in + 1)
    return a


def mlp_backward(theta, dims, x, dout):
    n_layers = len(dims) - 1
    # hidden activations (post-relu); the output layer itself is not needed
    hidden = []
    a = x
    pos = 0
    for k in range(n_layers - 1):
        n_in, n_out = dims[k], dims[k + 1]
        w = theta[pos : pos + n_out * n_in].reshape(n_out, n_in)
        b = theta[pos + n_out * n_in : pos + n_out * (n_in + 1)]
        a = np.maximum(a @ w.T + b, 0.0)
        hidden.append(a)
        pos += n_out * (n_in + 1)

    grad = np.zeros_like(theta)
    offs = layer_offsets(dims)
    delta = dout
    for k in range(n_layers - 1, -1, -1):
        w0, b0, _ = offs[k]
        n_in, n_out = dims[k], dims[k + 1]
        a_prev = x if k == 0 else hidden[k - 1]
        grad[w0:b0] = (delta.T @ a_prev).ravel()
        grad[b0 : b0 + n_out] = delta.sum(axis=0)
        if k > 0:
            w = theta[w0:b0].reshape(n_out, n_in)
            delta = (delta @ w) * (hidden[k - 1] > 0.0)
    return grad


def adam_update(theta, grad, m, v, step, lr, beta1, beta2, eps):
    m[:] = beta1 * m + (1.0 - beta1) * grad
    v[:] = beta2 * v + (1.0 - beta2) * grad * grad
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    theta -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def sgd_update(theta, grad, lr):
    theta -= lr * grad


def advance(grid, ego_lane):
    """Shift traffic one row toward the ego; returns (passed, collided) car counts.

    Called after the ego's lateral move. A car leaving the grid from the ego's
    own cell is a collision (the ego slid into it), any other leaving car has
    been passed, and a car arriving on the ego cell is a collision.
    """
    leaving = grid[-1].copy()
    passed = int(leaving.sum())
    collided = 0
    if leaving[ego_lane]:
        passed -= 1
        collided += 1
    grid[1:] = grid[:-1].copy()
    grid[0] = 0
    if grid[-1, ego_lane]:
        collided += 1
    return passed, collided
