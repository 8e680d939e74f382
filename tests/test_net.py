import math

import numpy as np
import pytest

from deepcars import net
from deepcars.kernels import layer_offsets
from deepcars.net import (
    ModelFormatError,
    NumericError,
    ShapeError,
)

from helpers import (
    finite_diff_grad,
    kink_free_input,
    max_relative_error,
    naive_forward,
)


def _zero_params(dims):
    p = net.init_params(dims, 0)
    p.theta[:] = 0.0
    return p


def test_forward_all_zero_parameters():
    p = _zero_params([43, 16, 3])
    out = net.forward(p, np.ones(43))
    assert np.array_equal(out, np.zeros(3))


def test_forward_hidden_rectification():
    p = _zero_params([1, 1, 1])
    p.weight(0)[:] = 1.0
    p.weight(1)[:] = 1.0
    assert net.forward(p, np.array([-2.0]))[0] == 0.0
    assert net.forward(p, np.array([3.0]))[0] == 3.0


def test_forward_matches_hand_rolled_oracle():
    rng = np.random.default_rng(2)
    for dims in ([4, 3], [5, 7, 3], [6, 4, 4, 2]):
        p = net.init_params(dims, int(rng.integers(1 << 30)))
        weights = [p.weight(k).tolist() for k in range(p.n_layers)]
        biases = [p.bias(k).tolist() for k in range(p.n_layers)]
        for _ in range(10):
            x = rng.uniform(-2, 2, dims[0])
            expect = naive_forward(weights, biases, x)
            assert np.max(np.abs(net.forward(p, x) - expect)) < 1e-12
        xb = rng.uniform(-2, 2, (8, dims[0]))
        out = net.forward(p, xb)
        for i in range(8):
            expect = naive_forward(weights, biases, xb[i])
            assert np.max(np.abs(out[i] - expect)) < 1e-12


def test_forward_shape_mismatch():
    p = _zero_params([4, 3])
    with pytest.raises(ShapeError):
        net.forward(p, np.ones(5))


def test_backward_zero_output_gradient():
    p = net.init_params([6, 4, 3], 3)
    g = net.backward(p, np.ones(6), np.zeros(3))
    assert np.array_equal(g, np.zeros_like(p.theta))


def test_backward_single_linear_neuron():
    p = _zero_params([3, 1])
    p.weight(0)[:] = [[0.5, -1.0, 2.0]]
    x = np.array([1.0, 2.0, 3.0])
    g = net.backward(p, x, np.array([2.0]))
    assert np.allclose(g[:3], 2.0 * x)  # dL/dw = g * x
    assert g[3] == 2.0  # dL/db = g


def test_backward_matches_finite_differences_small():
    rng = np.random.default_rng(5)
    for dims in ([4, 5, 3], [3, 6, 6, 2]):
        p = net.init_params(dims, int(rng.integers(1 << 30)))
        x = kink_free_input(p, rng)
        dout = rng.uniform(-1, 1, dims[-1])
        analytic = net.backward(p, x, dout)
        numeric = finite_diff_grad(p, x, dout)
        assert max_relative_error(analytic, numeric) < 1e-6


def test_backward_batch_is_sum_of_samples():
    rng = np.random.default_rng(9)
    p = net.init_params([5, 4, 3], 11)
    xb = rng.uniform(-1, 1, (6, 5))
    gb = rng.uniform(-1, 1, (6, 3))
    whole = net.backward(p, xb, gb)
    parts = sum(net.backward(p, xb[i], gb[i]) for i in range(6))
    assert np.allclose(whole, parts, atol=1e-12)


def test_sgd_step_examples():
    p = _zero_params([1, 1])
    p.theta[0] = 1.0
    opt = net.make_optimizer(p, "sgd", learning_rate=0.1)
    net.gradient_step(p, np.array([0.5, 0.0]), opt)
    assert np.isclose(p.theta[0], 0.95)
    before = p.theta.copy()
    net.gradient_step(p, np.zeros(2), opt)
    assert np.array_equal(p.theta, before)


def test_adam_step_examples():
    # Adam (Kingma & Ba) with beta1=0.9, beta2=0.999, eps=1e-8, worked out by hand
    p = _zero_params([1, 1])
    p.theta[:] = [1.0, -0.5]
    opt = net.make_optimizer(p, "adam", learning_rate=0.1)
    theta, m, v = [1.0, -0.5], [0.0, 0.0], [0.0, 0.0]
    for t, grad in enumerate([[0.5, -2.0], [-1.5, 0.25]], start=1):
        net.gradient_step(p, np.array(grad), opt)
        for i, g in enumerate(grad):
            m[i] = 0.9 * m[i] + 0.1 * g
            v[i] = 0.999 * v[i] + 0.001 * g * g
            m_hat = m[i] / (1.0 - 0.9**t)
            v_hat = v[i] / (1.0 - 0.999**t)
            theta[i] -= 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert opt.step_count == t
        assert list(p.theta) == pytest.approx(theta, rel=1e-12, abs=0.0)
        assert list(opt.m) == pytest.approx(m, rel=1e-12, abs=0.0)
        assert list(opt.v) == pytest.approx(v, rel=1e-12, abs=0.0)
        if t == 1:
            # bias correction makes the first step lr against the gradient's sign
            assert list(p.theta) == pytest.approx([0.9, -0.4], abs=1e-8)


@pytest.mark.parametrize("algorithm,lr,steps", [("sgd", 0.2, 200), ("adam", 0.05, 2000)])
def test_optimizer_reaches_quadratic_minimum(algorithm, lr, steps):
    # minimize (w - 3)^2 in the single parameter of a [1,1] net
    p = _zero_params([1, 1])
    opt = net.make_optimizer(p, algorithm, learning_rate=lr)
    for _ in range(steps):
        grad = np.array([2.0 * (p.theta[0] - 3.0), 0.0])
        net.gradient_step(p, grad, opt)
    assert abs(p.theta[0] - 3.0) < 1e-6


def test_gradient_step_rejects_nonfinite():
    p = _zero_params([2, 1])
    opt = net.make_optimizer(p, "sgd", 0.1)
    with pytest.raises(NumericError):
        net.gradient_step(p, np.array([np.nan, 0.0, 0.0]), opt)


def test_init_deterministic_and_shaped():
    a = net.init_params([43, 16, 3], 77)
    b = net.init_params([43, 16, 3], 77)
    assert np.array_equal(a.theta, b.theta)
    assert a.weight(0).shape == (16, 43)
    assert a.weight(1).shape == (3, 16)
    assert np.all(a.bias(0) == 0.0) and np.all(a.bias(1) == 0.0)
    c = net.init_params([43, 16, 3], 78)
    assert not np.array_equal(a.theta, c.theta)


def test_init_variance_matches_uniform_scale():
    # uniform(-s, s) has variance s^2/3; check within 10% over 1e5 draws
    p = net.init_params([500, 200, 3], 13)
    w = p.weight(0).ravel()
    assert w.size == 100_000
    scale = 1.0 / np.sqrt(500)
    expected = scale**2 / 3.0
    assert abs(float(w.var()) - expected) / expected < 0.10
    assert float(np.abs(w).max()) <= scale


def test_clone_into_is_bit_exact_and_detached():
    src = net.init_params([6, 5, 3], 1)
    dst = net.init_params([6, 5, 3], 2)
    net.clone_into(src, dst)
    assert np.array_equal(src.theta, dst.theta)
    x = np.linspace(-1, 1, 6)
    assert np.array_equal(net.forward(src, x), net.forward(dst, x))
    src.theta[0] += 1.0
    assert dst.theta[0] != src.theta[0]


def test_clone_into_shape_mismatch():
    src = net.init_params([6, 5, 3], 1)
    dst = net.init_params([6, 4, 3], 1)
    with pytest.raises(ShapeError):
        net.clone_into(src, dst)


def _adam_step(p, tmp_path):
    net.gradient_step(p, np.linspace(-1.0, 1.0, p.theta.size), net.make_optimizer(p, "adam"))
    return p


def _sgd_step(p, tmp_path):
    net.gradient_step(p, np.linspace(-1.0, 1.0, p.theta.size), net.make_optimizer(p, "sgd", 0.5))
    return p


def _clone_into(p, tmp_path):
    net.clone_into(net.init_params(p.layer_dims, 99), p)
    return p


def _load_model(p, tmp_path):
    net.save_model(net.init_params(p.layer_dims, 98), tmp_path / "m.txt")
    return net.load_model(tmp_path / "m.txt")[0]


def _assign_theta(p, tmp_path):
    p.theta[:] = np.random.default_rng(97).uniform(-1.0, 1.0, p.theta.size)
    return p


@pytest.mark.parametrize(
    "mutate", [_adam_step, _sgd_step, _clone_into, _load_model, _assign_theta]
)
def test_layer_views_follow_theta(mutate, tmp_path):
    # the cached per-layer views must see every in-place update of theta
    p = net.init_params([6, 5, 4, 3], 1)
    x = np.linspace(-1.0, 1.0, 6)
    net.forward(p, x)
    p = mutate(p, tmp_path)
    dims = [int(d) for d in p.layer_dims]
    weights, biases = [], []
    for k, (w0, b0, end) in enumerate(layer_offsets(dims)):
        weights.append(p.theta[w0:b0].reshape(dims[k + 1], dims[k]).tolist())
        biases.append(p.theta[b0:end].tolist())
    assert np.max(np.abs(net.forward(p, x) - naive_forward(weights, biases, x))) < 1e-12
    for k in range(p.n_layers):
        assert np.shares_memory(p.weight(k), p.theta)
        assert np.shares_memory(p.bias(k), p.theta)


def test_params_reject_dims_and_theta_that_cannot_be_viewed(tmp_path):
    with pytest.raises(ShapeError):
        net.MlpParams(layer_dims=np.array([2, 1]), theta=np.zeros(4))
    with pytest.raises(ShapeError):
        net.MlpParams(layer_dims=np.array([2, 1]), theta=np.zeros(6)[::2])
    path = tmp_path / "one-layer.model"
    path.write_text("format deepcars-mlp-v1\ndims 43\noptimizer adam\n")
    with pytest.raises(ShapeError):
        net.load_model(path)


def test_model_save_load_roundtrip(tmp_path):
    p = net.init_params([7, 5, 3], 123)
    path = tmp_path / "model.txt"
    net.save_model(p, path, optimizer="adam")
    loaded, opt = net.load_model(path)
    assert opt == "adam"
    assert np.array_equal(loaded.layer_dims, p.layer_dims)
    assert np.array_equal(loaded.theta, p.theta)


def test_model_version_mismatch_fails_loudly(tmp_path):
    p = net.init_params([4, 3], 0)
    path = tmp_path / "model.txt"
    net.save_model(p, path)
    text = path.read_text().replace("deepcars-mlp-v1", "deepcars-mlp-v9")
    path.write_text(text)
    with pytest.raises(ModelFormatError, match="deepcars-mlp-v9"):
        net.load_model(path)
