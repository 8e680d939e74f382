"""Hot numeric kernels: dense-net passes, optimizer updates, grid advance.

There is one backend: every kernel is plain numpy.

Network parameters live in one flat float64 vector `theta` laid out by an
int64 `dims` array [n_in, h1, ..., n_out]; layer k occupies a row-major
(out x in) weight block followed by its bias block. The dense passes take
`layers`, one (W.T, b) pair of views into `theta` per layer, built once per
parameter set (`net.MlpParams.layers`).
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


def mlp_forward(layers, x):
    """Dense pass over `layers`, one (W.T, b) pair per layer; relu on hidden layers.

    ndarray.dot reaches the same BLAS products as `@` (bit-identical results)
    at a fraction of its dispatch cost, which dominates at these sizes.
    """
    a = x
    last = len(layers) - 1
    for k, (wt, b) in enumerate(layers):
        a = a.dot(wt) + b
        if k != last:
            a = np.maximum(a, 0.0)
    return a


def mlp_backward(layers, x, dout):
    # inputs of every layer: x, then the hidden activations (post-relu)
    acts = [x]
    for wt, b in layers[:-1]:
        acts.append(np.maximum(acts[-1].dot(wt) + b, 0.0))

    # per-layer blocks collected output first, bias before weight, then reversed
    blocks = []
    delta = dout
    for k in range(len(layers) - 1, -1, -1):
        blocks.append(delta.sum(axis=0))
        blocks.append(delta.T.dot(acts[k]).ravel())
        if k > 0:
            delta = delta.dot(layers[k][0].T) * (acts[k] > 0.0)
    blocks.reverse()
    return np.concatenate(blocks)


def adam_update(theta, grad, m, v, step, lr, beta1, beta2, eps):
    # same operation order as theta -= lr * (m / c1) / (sqrt(v / c2) + eps)
    tmp = (1.0 - beta1) * grad
    m *= beta1
    m += tmp
    np.multiply(grad, 1.0 - beta2, out=tmp)
    tmp *= grad
    v *= beta2
    v += tmp
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    upd = m / c1
    upd *= lr
    upd /= tmp
    theta -= upd


def sgd_update(theta, grad, lr):
    theta -= lr * grad


def advance(grid, ego_lane):
    """Shift traffic one row toward the ego; returns (passed, collided) car counts.

    Called after the ego's lateral move. A car leaving the grid from the ego's
    own cell is a collision (the ego slid into it), any other leaving car has
    been passed, and a car arriving on the ego cell is a collision.
    """
    leaving = grid[-1].tolist()
    passed = sum(leaving)
    collided = 0
    if leaving[ego_lane]:
        passed -= 1
        collided += 1
    grid[1:] = grid[:-1]  # numpy copies an overlapping source before assigning
    grid[0] = 0
    if grid[-1, ego_lane]:
        collided += 1
    return passed, collided
