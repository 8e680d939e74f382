"""Hot numeric kernels: dense-net passes, the Adam update, the step's car count.

There is one backend: every kernel is plain numpy.

The dense passes take `layers`, one (W.T, b) pair per layer. These are views
into a flat parameter vector whose layout `net.MlpParams` declares, and
`mlp_backward` returns its gradient in that same layout.
"""

import numpy as np

# bench/worker.py reads these for its machine record; no numba backend exists.
HAVE_NUMBA = NUMBA_ENABLED = False


def _layer_inputs(layers, x):
    """The input of every layer: `x`, then each hidden layer's relu output."""
    acts = [x]
    for wt, b in layers[:-1]:
        acts.append(np.maximum(acts[-1].dot(wt) + b, 0.0))
    return acts


def mlp_forward(layers, x):
    """Dense pass over `layers`, one (W.T, b) pair per layer; relu on hidden layers.

    ndarray.dot reaches the same BLAS products as `@` (bit-identical results)
    at a fraction of its dispatch cost, which dominates at these sizes.
    """
    wt, b = layers[-1]
    return _layer_inputs(layers, x)[-1].dot(wt) + b


def mlp_backward(layers, x, dout):
    acts = _layer_inputs(layers, x)
    grad = []
    delta = dout
    for k in range(len(layers) - 1, -1, -1):
        grad[:0] = (delta.T.dot(acts[k]).ravel(), delta.sum(axis=0))
        if k > 0:
            delta = delta.dot(layers[k][0].T) * (acts[k] > 0.0)
    return np.concatenate(grad)


# Adam's decay rates of the gradient's first and second moments, and its denominator's floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_update(theta, grad, m, v, step, lr):
    # same operation order as theta -= lr * (m / c1) / (sqrt(v / c2) + ADAM_EPS)
    tmp = (1.0 - ADAM_BETA1) * grad
    m *= ADAM_BETA1
    m += tmp
    np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= grad
    v *= ADAM_BETA2
    v += tmp
    c1 = 1.0 - ADAM_BETA1**step
    c2 = 1.0 - ADAM_BETA2**step
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    upd = m / c1
    upd *= lr
    upd /= tmp
    theta -= upd


def advance(tape, top, size, lanes, ego_lane):
    """Count the cars one step resolves; returns (passed, collided). No byte moves.

    The grid is the window `tape[top : top + size]` of `lanes`-wide rows, which
    the step moves one row up the tape. Called after the ego's lateral move. A
    car leaving the window's bottom row from the ego's own cell is a collision
    (the ego slid into it), any other leaving car has been passed, and a car
    arriving on the ego cell from the row above is a collision.
    """
    last_row = top + size - lanes
    passed = tape.count(1, last_row, last_row + lanes)
    collided = 0
    if tape[last_row + ego_lane]:
        passed -= 1
        collided += 1
    if tape[last_row - lanes + ego_lane]:
        collided += 1
    return passed, collided
