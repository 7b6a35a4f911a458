import numpy as np
import pytest

from predgrad.errors import (ConfigError, DimensionError, LabelError, StaleCache)
from predgrad.network import (ACTIVATIONS, NetworkConfig, backward, cheap_forward,
                              forward, init_network, loss_and_residual)
from predgrad.rng import substream

LOSS_KINDS = ("squared_scalar", "squared_vector", "cross_entropy")


def small_cfg(seed=0, activation="tanh"):
    return NetworkConfig(input_dim=4, hidden_widths=(8,), output_dim=3,
                         activation=activation, seed=seed)


def independent_forward(net, x):
    """Separate layer-by-layer evaluation used as the forward oracle."""
    widths = (net.config.input_dim,) + net.config.hidden_widths
    a = np.asarray(x, dtype=np.float64)
    off = 0
    for k in range(len(net.config.hidden_widths)):
        out_w, in_w = widths[k + 1], widths[k]
        w = net.trunk_params[off:off + out_w * in_w].reshape(out_w, in_w)
        off += out_w * in_w
        b = net.trunk_params[off:off + out_w]
        off += out_w
        z = w @ a + b
        if net.config.activation == "tanh":
            a = np.tanh(z)
        elif net.config.activation == "relu":
            a = np.maximum(z, 0.0)
        else:
            a = z
    return a, net.head_weight @ a + net.head_bias


def test_init_deterministic():
    n1 = init_network(small_cfg(seed=5))
    n2 = init_network(small_cfg(seed=5))
    assert np.array_equal(n1.trunk_params, n2.trunk_params)
    assert np.array_equal(n1.head_weight, n2.head_weight)


def test_init_seed_sensitivity():
    n1 = init_network(small_cfg(seed=5))
    n2 = init_network(small_cfg(seed=6))
    assert not np.array_equal(n1.trunk_params, n2.trunk_params)


def test_parameter_counts():
    net = init_network(small_cfg())
    assert net.head_size == 3 * 8 + 3 == 27
    assert net.trunk_size == 8 * 4 + 8
    assert net.n_params == net.trunk_size + net.head_size


def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(4, (), 3)
    with pytest.raises(ConfigError):
        NetworkConfig(4, (0,), 3)
    with pytest.raises(ConfigError):
        NetworkConfig(4, (8,), 3, activation="gelu")


def test_zero_parameters_give_bias_output():
    net = init_network(small_cfg())
    net.set_flat_params(np.zeros(net.n_params))
    llh, output, _ = forward(net, np.array([1.0, -2.0, 0.5, 3.0]))
    assert np.array_equal(llh, np.zeros(8))
    assert np.array_equal(output, net.head_bias)


def test_identity_activation_is_affine():
    net = init_network(small_cfg(activation="identity"))
    rng = substream(7, "affine")
    x1, x2 = rng.standard_normal((2, 4))
    f0 = forward(net, np.zeros(4))[1]
    f1 = forward(net, x1)[1]
    f2 = forward(net, x2)[1]
    f12 = forward(net, x1 + x2)[1]
    assert np.allclose(f12 - f0, (f1 - f0) + (f2 - f0), atol=1e-12)


def test_forward_matches_independent_oracle():
    rng = substream(8, "fwd")
    for seed in range(5):
        cfg = NetworkConfig(3, (6, 5), 2, activation="tanh", seed=seed)
        net = init_network(cfg)
        x = rng.standard_normal(3)
        llh, output, _ = forward(net, x)
        llh_o, out_o = independent_forward(net, x)
        assert np.max(np.abs(llh - llh_o)) <= 1e-12
        assert np.max(np.abs(output - out_o)) <= 1e-12


def test_forward_dimension_mismatch():
    net = init_network(small_cfg())
    with pytest.raises(DimensionError):
        forward(net, np.zeros(5))


def test_cheap_forward_matches_forward_bitwise():
    net = init_network(small_cfg(seed=3))
    rng = substream(9, "cheap")
    for _ in range(10):
        x = rng.standard_normal(4)
        llh, output, _ = forward(net, x)
        llh_c, out_c = cheap_forward(net, x)
        assert np.array_equal(llh, llh_c) and np.array_equal(output, out_c)


def test_cheap_forward_zero_everything():
    net = init_network(small_cfg())
    net.set_flat_params(np.zeros(net.n_params))
    _, output = cheap_forward(net, np.zeros(4))
    assert np.array_equal(output, net.head_bias)


def test_squared_loss_perfect_fit():
    loss, residual = loss_and_residual(np.array([1.0, -2.0]), np.array([1.0, -2.0]),
                                       "squared_vector")
    assert loss == 0.0 and np.array_equal(residual, np.zeros(2))


def test_cross_entropy_one_hot_probability():
    # logit gap large enough that softmax is exactly one-hot in float64
    output = np.array([800.0] + [0.0] * 9)
    loss, residual = loss_and_residual(output, 0, "cross_entropy")
    assert loss == 0.0
    assert np.array_equal(residual, np.zeros(10))


def test_cross_entropy_smoothed_target():
    # smoothing 0.05 with 10 classes: 0.955 on the true class, 0.005 elsewhere
    output = np.zeros(10)  # uniform probabilities 0.1
    _, residual = loss_and_residual(output, 4, "cross_entropy", smoothing=0.05)
    target = 0.1 - residual
    assert np.allclose(target[4], 0.955, atol=1e-12)
    off = np.delete(target, 4)
    assert np.allclose(off, 0.005, atol=1e-12)


def test_cross_entropy_residual_sums_to_zero():
    rng = substream(11, "ce")
    for _ in range(20):
        output = rng.standard_normal(6) * 3
        _, residual = loss_and_residual(output, int(rng.integers(6)),
                                        "cross_entropy", smoothing=0.05)
        assert abs(residual.sum()) <= 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(LabelError):
        loss_and_residual(np.zeros(3), 3, "cross_entropy")
    with pytest.raises(LabelError):
        loss_and_residual(np.zeros(3), -1, "cross_entropy")
    with pytest.raises(LabelError):  # every label of a batch is checked
        loss_and_residual(np.zeros((4, 3)), np.array([0, 2, 3, 1]), "cross_entropy")


def test_backward_zero_residual():
    net = init_network(small_cfg())
    _, _, cache = forward(net, np.ones(4))
    assert np.array_equal(backward(net, cache, np.zeros(3)), np.zeros(net.n_params))


def test_backward_head_outer_product():
    net = init_network(small_cfg(seed=2))
    rng = substream(12, "head")
    x = rng.standard_normal(4)
    llh, output, cache = forward(net, x)
    residual = rng.standard_normal(3)
    head = backward(net, cache, residual)[net.trunk_size:]
    # flat layout: head weight row-major, then head bias
    expected = np.concatenate([np.outer(residual, llh).ravel(), residual])
    assert np.max(np.abs(head - expected)) <= 1e-14


def finite_difference_gradient(net, x, y, kind, smoothing=0.0, step=1e-5):
    theta0 = net.flat_params()
    grad = np.empty_like(theta0)
    probe = net.copy()
    for i in range(len(theta0)):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            theta = theta0.copy()
            theta[i] += sign * step
            probe.set_flat_params(theta)
            _, output, _ = forward(probe, x)
            loss = loss_and_residual(output, y, kind, smoothing)[0]
            if slot == 0:
                up = loss
            else:
                down = loss
        grad[i] = (up - down) / (2 * step)
    return grad


def analytic_gradient(net, x, y, kind, smoothing=0.0):
    _, output, cache = forward(net, x)
    _, residual = loss_and_residual(output, y, kind, smoothing)
    return backward(net, cache, residual)


def test_backward_matches_finite_differences():
    rng = substream(13, "fd")
    worst = 0.0
    for trial in range(20):
        kind = ["squared_vector", "cross_entropy"][trial % 2]
        cfg = NetworkConfig(3, (5, 4), 2, activation="tanh", seed=100 + trial)
        net = init_network(cfg)
        x = rng.standard_normal(3)
        y = int(rng.integers(2)) if kind == "cross_entropy" else rng.standard_normal(2)
        g = analytic_gradient(net, x, y, kind, smoothing=0.02)
        fd = finite_difference_gradient(net, x, y, kind, smoothing=0.02)
        rel = np.max(np.abs(fd - g)) / max(np.max(np.abs(g)), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-5


def test_backward_rejects_stale_cache():
    net = init_network(small_cfg())
    _, _, cache = forward(net, np.ones(4))
    net.set_flat_params(net.flat_params() * 1.01)
    with pytest.raises(StaleCache):
        backward(net, cache, np.zeros(3))


def test_flat_params_round_trip():
    net = init_network(small_cfg(seed=9))
    theta = net.flat_params()
    other = init_network(small_cfg(seed=1))
    other.set_flat_params(theta)
    assert np.array_equal(other.flat_params(), theta)
    assert other.version == 1


# BLAS dgemm is not row-subset invariant: X[idx] @ W.T can differ from
# (X @ W.T)[idx] in the last bits. The passes run one gemv per row instead,
# so a row gets the same bits alone, in a whole batch or in any subset of
# it. The trainer's perfect-predictor test depends on this: one loop runs
# backward on the control rows of a batch, the other on the whole batch.

def batch_case(activation, kind, n=40):
    out = 1 if kind == "squared_scalar" else 4
    net = init_network(NetworkConfig(8, (64, 32), out, activation=activation, seed=17))
    rng = substream(41, f"{activation}:{kind}")
    xs = rng.standard_normal((n, 8))
    ys = rng.integers(out, size=n) if kind == "cross_entropy" else rng.standard_normal((n, out))
    return net, xs, ys


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_batched_passes_equal_single_example_calls(activation, kind):
    net, xs, ys = batch_case(activation, kind)
    llh, output, cache = forward(net, xs)
    llh_c, output_c = cheap_forward(net, xs)
    losses, residuals = loss_and_residual(output, ys, kind, smoothing=0.05)
    grads = backward(net, cache, residuals)
    assert grads.shape == (len(xs), net.n_params)
    assert np.array_equal(llh_c, llh) and np.array_equal(output_c, output)
    for i, (x, y) in enumerate(zip(xs, ys)):
        a, out, c = forward(net, x)
        loss, r = loss_and_residual(out, y, kind, smoothing=0.05)
        g = backward(net, c, r)
        assert a.shape == llh.shape[1:] and g.shape == (net.n_params,)
        assert np.array_equal(a, llh[i]) and np.array_equal(out, output[i])
        assert loss == losses[i] and np.array_equal(r, residuals[i])
        assert np.array_equal(g, grads[i])


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_backward_on_a_row_subset_equals_the_full_batch_rows(activation, kind):
    net, xs, ys = batch_case(activation, kind)
    _, output, cache = forward(net, xs)
    grads = backward(net, cache, loss_and_residual(output, ys, kind)[1])
    rng = substream(42, "subsets")
    for size in (1, 2, 7, 10, 33):
        idx = np.sort(rng.choice(len(xs), size=size, replace=False))
        _, out_s, cache_s = forward(net, xs[idx])
        sub = backward(net, cache_s, loss_and_residual(out_s, ys[idx], kind)[1])
        assert np.array_equal(sub, grads[idx])
