import numpy as np
import pytest

from predgrad.errors import (ConfigError, DimensionError, LabelError, StaleCache)
from predgrad.network import (ACTIVATIONS, Network, NetworkConfig, _act, _dz, cheap_forward,
                              forward, gradient_sum, head_sum, init_network, loss_and_residual,
                              trunk_rows)
from predgrad.trainer import optimizer_step
from predgrad.rng import substream

from oracles import backward, set_params

LOSS_KINDS = ("squared_scalar", "squared_vector", "cross_entropy")
# the src entry points that take a forward cache and a residual
CACHE_PASSES = (trunk_rows,)


def backward_sum(net, cache, residual):
    """The exact gradient sum as a vanilla step forms it: ``trunk_rows``
    summed, and the closed-form ``head_sum``."""
    return gradient_sum(trunk_rows(net, cache, residual).sum(),
                        head_sum(cache.act[-1], residual))


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
    assert net.config.head_size == 3 * 8 + 3 == 27
    assert net.config.trunk_size == 8 * 4 + 8
    assert net.config.n_params == net.config.trunk_size + net.config.head_size


def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(4, (), 3)
    with pytest.raises(ConfigError):
        NetworkConfig(4, (0,), 3)
    with pytest.raises(ConfigError):
        NetworkConfig(4, (8,), 3, activation="gelu")


def test_zero_parameters_give_bias_output():
    net = init_network(small_cfg())
    set_params(net, np.zeros(net.config.n_params))
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
    set_params(net, np.zeros(net.config.n_params))
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


def test_cross_entropy_residual_sums_to_zero():
    rng = substream(11, "ce")
    for _ in range(20):
        output = rng.standard_normal(6) * 3
        _, residual = loss_and_residual(output, int(rng.integers(6)), "cross_entropy")
        assert abs(residual.sum()) <= 1e-12


def test_cross_entropy_loss_is_finite_beside_a_minus_infinite_logit():
    # p of the -inf logit is 0, and -log p_y = log(1 + e) stays finite
    want = np.log1p(np.e)
    loss, residual = loss_and_residual(np.array([[0.0, -np.inf, 1.0]]), [0], "cross_entropy")
    assert loss.shape == (1,) and loss[0] == pytest.approx(want, rel=1e-15)
    assert np.all(np.isfinite(residual)) and residual[0, 1] == 0.0
    loss, residual = loss_and_residual(np.array([0.0, -np.inf, 1.0]), 0, "cross_entropy")
    assert np.ndim(loss) == 0 and loss == pytest.approx(want, rel=1e-15)
    assert residual.shape == (3,) and np.all(np.isfinite(residual))


@pytest.mark.parametrize("shape", [(7,), (128, 3), (5, 4, 6)], ids=["one", "batch", "stack"])
def test_cross_entropy_loss_keeps_the_bits_of_the_one_hot_contraction(shape):
    rng = substream(12, "ce-bits")
    for scale in (1e-3, 1.0, 30.0, 700.0):
        output = rng.standard_normal(shape) * scale
        labels = rng.integers(shape[-1], size=shape[:-1])
        shifted = output - output.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        target = np.where(labels[..., None] == np.arange(shape[-1]), 1.0, 0.0)
        loss, residual = loss_and_residual(output, labels, "cross_entropy")
        assert same_bits(np.asarray(loss), np.asarray(-np.einsum("...i,...i->...", target, logp)))
        assert same_bits(residual, np.exp(logp) - target)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(LabelError):
        loss_and_residual(np.zeros(3), 3, "cross_entropy")
    with pytest.raises(LabelError):
        loss_and_residual(np.zeros(3), -1, "cross_entropy")
    with pytest.raises(LabelError):  # every label of a batch is checked
        loss_and_residual(np.zeros((4, 3)), np.array([0, 2, 3, 1]), "cross_entropy")
    with pytest.raises(LabelError):
        loss_and_residual(np.zeros((4, 3)), np.array([0, -1, 2, 1]), "cross_entropy")


@pytest.mark.parametrize("labels", [[0.5], [1.0], [np.nan], [True]],
                         ids=["fraction", "integral-float", "nan", "bool"])
def test_cross_entropy_refuses_labels_that_are_not_integers(labels):
    with pytest.raises(LabelError, match="integers"):
        loss_and_residual(np.zeros((1, 3)), np.array(labels), "cross_entropy")


def test_backward_zero_residual():
    net = init_network(small_cfg())
    _, _, cache = forward(net, np.ones(4))
    assert np.array_equal(backward(net, cache, np.zeros(3)), np.zeros(net.config.n_params))


def test_backward_head_outer_product():
    net = init_network(small_cfg(seed=2))
    rng = substream(12, "head")
    x = rng.standard_normal(4)
    llh, output, cache = forward(net, x)
    residual = rng.standard_normal(3)
    head = backward(net, cache, residual)[net.config.trunk_size:]
    # flat layout: head weight row-major, then head bias
    expected = np.concatenate([np.outer(residual, llh).ravel(), residual])
    assert np.max(np.abs(head - expected)) <= 1e-14


def finite_difference_gradient(net, x, y, kind, step=1e-5):
    theta0 = net.flat_params()
    grad = np.empty_like(theta0)
    probe = net.copy()
    for i in range(len(theta0)):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            theta = theta0.copy()
            theta[i] += sign * step
            set_params(probe, theta)
            _, output, _ = forward(probe, x)
            loss = loss_and_residual(output, y, kind)[0]
            if slot == 0:
                up = loss
            else:
                down = loss
        grad[i] = (up - down) / (2 * step)
    return grad


def analytic_gradient(net, x, y, kind):
    _, output, cache = forward(net, x)
    _, residual = loss_and_residual(output, y, kind)
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
        g = analytic_gradient(net, x, y, kind)
        fd = finite_difference_gradient(net, x, y, kind)
        rel = np.max(np.abs(fd - g)) / max(np.max(np.abs(g)), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-5


def test_backward_rejects_stale_cache():
    net = init_network(small_cfg())
    _, _, cache = forward(net, np.ones((1, 4)))
    set_params(net, net.flat_params() * 1.01)
    for back in CACHE_PASSES:
        with pytest.raises(StaleCache):
            back(net, cache, np.zeros((1, 3)))


# the formed-row reference checks its inputs as the src passes do
@pytest.mark.parametrize("back", [backward, *CACHE_PASSES], ids=lambda f: f.__name__)
def test_backward_and_its_sum_reject_stale_caches_and_wrong_residuals(back):
    net = init_network(small_cfg())
    _, _, cache = forward(net, np.ones((5, 4)))
    with pytest.raises(DimensionError):
        back(net, cache, np.zeros((5, 2)))
    with pytest.raises(DimensionError):
        back(net, cache, np.zeros((4, 3)))
    set_params(net, net.flat_params() * 1.01)
    with pytest.raises(StaleCache):
        back(net, cache, np.zeros((5, 3)))


def test_flat_params_round_trip():
    # a checkpoint saves the three views and loads them into a new network
    net = init_network(small_cfg(seed=9))
    other = Network(net.config, net.trunk_params, net.head_weight, net.head_bias, net.version)
    assert np.array_equal(other.flat_params(), net.flat_params())
    assert other.version == net.version


# A batch goes through each layer as one matrix product, so a row's last
# bits may differ from its single-example call; the values agree to
# rounding.

def assert_rows_close(batch_row, single):
    assert np.max(np.abs(batch_row - single)) <= 1e-12 * np.max(np.abs(single))


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
    losses, residuals = loss_and_residual(output, ys, kind)
    grads = backward(net, cache, residuals)
    assert grads.shape == (len(xs), net.config.n_params)
    assert np.array_equal(llh_c, llh) and np.array_equal(output_c, output)
    for i, (x, y) in enumerate(zip(xs, ys)):
        a, out, c = forward(net, x)
        loss, r = loss_and_residual(out, y, kind)
        g = backward(net, c, r)
        assert a.shape == llh.shape[1:] and g.shape == (net.config.n_params,)
        for batch_row, single in ((llh[i], a), (output[i], out), (losses[i], loss),
                                  (residuals[i], r), (grads[i], g)):
            assert_rows_close(batch_row, single)


@pytest.mark.parametrize("hidden", [(16,), (24, 9), (12, 7, 10)],
                         ids=["depth1", "depth2", "depth3"])
@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_backward_sum_equals_the_summed_rows(activation, kind, hidden):
    out = 1 if kind == "squared_scalar" else 4
    net = init_network(NetworkConfig(8, hidden, out, activation=activation, seed=19))
    rng = substream(42, f"{activation}:{kind}:{len(hidden)}")
    xs = rng.standard_normal((37, 8))
    ys = (rng.integers(out, size=37) if kind == "cross_entropy"
          else rng.standard_normal((37, out)))
    _, output, cache = forward(net, xs)
    _, residuals = loss_and_residual(output, ys, kind)
    rows = backward(net, cache, residuals).sum(axis=0)
    summed = backward_sum(net, cache, residuals)
    assert summed.shape == (net.config.n_params,)
    assert np.linalg.norm(summed - rows) <= 1e-12 * np.linalg.norm(rows)
    # the cache's view of some rows sums those rows alone
    idx = np.array([30, 0, 17, 3])
    part = backward(net, cache, residuals)[idx].sum(axis=0)
    part_sum = backward_sum(net, cache.rows(idx), residuals[idx])
    assert np.linalg.norm(part_sum - part) <= 1e-12 * np.linalg.norm(part)
    # a single example is a batch of one
    _, output, cache = forward(net, xs[:1])
    _, residual = loss_and_residual(output, ys[:1], kind)
    one = backward(net, cache, residual)[0]
    assert np.linalg.norm(backward_sum(net, cache, residual) - one) <= 1e-12 * np.linalg.norm(one)


# --- the parameter buffer ---------------------------------------------------

def assert_views_are_the_buffer(net):
    """trunk_layers(), trunk_params, head_weight and head_bias equal their
    slices of flat_params() in the flat layout."""
    theta = net.flat_params()
    pt, (c, d) = net.config.trunk_size, net.head_weight.shape
    assert np.array_equal(net.trunk_params, theta[:pt])
    assert np.array_equal(net.head_weight, theta[pt:pt + c * d].reshape(c, d))
    assert np.array_equal(net.head_bias, theta[pt + c * d:])
    off = 0
    for w, b in net.trunk_layers():
        for v in (w, b):
            assert np.array_equal(v.ravel(), theta[off:off + v.size])
            off += v.size
    assert off == pt


def test_parameter_views_follow_the_buffer_across_updates():
    net = init_network(NetworkConfig(4, (6, 5), 3, seed=2))
    held = [net.head_weight, net.head_bias, *net.trunk_layers()[1]]
    before = [v.copy() for v in held]
    assert_views_are_the_buffer(net)
    set_params(net, 2.0 * net.flat_params())
    assert_views_are_the_buffer(net)
    assert optimizer_step(net.params, np.ones(net.params.shape), 0.5) is net.params
    assert_views_are_the_buffer(net)
    # a view held across the updates shows the updated values
    for view, old in zip(held, before, strict=True):
        assert np.array_equal(view, 2.0 * old - 0.5)
    # the views are read-only: only an update writes the parameters
    for view in held:
        with pytest.raises(ValueError):
            view[...] = 0.0


def test_changing_flat_params_leaves_the_network_as_it_was():
    net = init_network(small_cfg(seed=4))
    theta = net.flat_params()
    kept = theta.copy()
    theta += 1.0
    assert np.array_equal(net.flat_params(), kept) and net.version == 0


def test_a_network_copies_the_arrays_it_is_made_from():
    # the rule: a Network copies the caller's arrays into its own buffer, so
    # neither the caller's later writes nor the network's updates reach the other
    source = init_network(small_cfg(seed=6))
    made = [np.array(a) for a in (source.trunk_params, source.head_weight, source.head_bias)]
    given = [a.copy() for a in made]
    net = Network(source.config, *made)
    assert not any(np.shares_memory(net.params, a) for a in made)
    for a in made:
        a += 1.0
    assert np.array_equal(net.flat_params(), source.flat_params())
    set_params(net, np.zeros(len(net.params)))
    optimizer_step(net.params, np.ones(len(net.params)), 1.0)
    for a, g in zip(made, given, strict=True):
        assert np.array_equal(a, g + 1.0)
    assert np.array_equal(net.flat_params(), -np.ones(len(net.params)))


# --- the in-place passes ----------------------------------------------------

PLAIN_ACT = {"tanh": np.tanh, "relu": lambda z: np.maximum(z, 0.0), "identity": lambda z: z}
PLAIN_DERIV = {"tanh": lambda a: 1.0 - a * a, "relu": lambda a: (a > 0).astype(np.float64),
               "identity": np.ones_like}


def same_bits(got, want) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def plain_passes(net, x, residual):
    """The forward and the walk back as plain expressions, each step a new
    array: (per-layer activations, output, per-layer pre-activation gradients)."""
    kind, layers = net.config.activation, net.trunk_layers()
    act, a = [], x
    for w, b in layers:
        a = PLAIN_ACT[kind](a @ w.T + b)
        act.append(a)
    output = a @ net.head_weight.T + net.head_bias
    dzs, delta = [], residual @ net.head_weight
    for k in range(len(layers) - 1, -1, -1):
        dzs.append(delta * PLAIN_DERIV[kind](act[k]))
        delta = dzs[-1] @ layers[k][0]
    return act, output, dzs[::-1]


AWKWARD = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.5, -1.5, 1e-310, -1e-310, 40.0])


@pytest.mark.parametrize("kind", ACTIVATIONS)
def test_the_in_place_layer_arithmetic_is_the_plain_expressions(kind):
    # NaN, -0.0, infinities and subnormals in the pre-activation, the
    # activation and the incoming gradient, in every pairing
    z, a = np.meshgrid(AWKWARD, AWKWARD)
    delta = np.repeat(AWKWARD, len(AWKWARD)).reshape(z.shape).T.copy()
    with np.errstate(all="ignore"):   # inf * 0 and inf - inf make NaNs on both sides
        assert same_bits(_act(z.copy(), kind), PLAIN_ACT[kind](z))
        assert same_bits(_dz(delta.copy(), a, kind), delta * PLAIN_DERIV[kind](a))


@pytest.mark.parametrize("kind", ACTIVATIONS)
def test_forward_and_trunk_rows_give_the_bits_of_the_plain_passes(kind):
    net = init_network(NetworkConfig(5, (7, 6, 4), 3, activation=kind, seed=8))
    rng = substream(44, kind)
    x = rng.standard_normal((11, 5))
    x[3, 1], x[5] = np.nan, -0.0      # a NaN row, and a row of -0.0 inputs
    residual = rng.standard_normal((11, 3))
    residual[7, 0], residual[8] = np.nan, -0.0
    kept = x.copy()
    llh, output, cache = forward(net, x)
    assert same_bits(x, kept)    # the input is never written
    act, out, dzs = plain_passes(net, x, residual)
    assert all(same_bits(g, w) for g, w in zip(cache.act, act, strict=True))
    assert same_bits(output, out) and llh is cache.act[-1]
    blocks = trunk_rows(net, cache, residual).blocks
    assert all(same_bits(dz, want) and prev is inp
               for (dz, prev), want, inp in zip(blocks, dzs, [cache.x, *cache.act[:-1]],
                                                 strict=True))
    # each layer's activations, and the output, are their own arrays
    arrays = [x, *cache.act, output, net.params]
    assert not any(np.shares_memory(p, q) for i, p in enumerate(arrays) for q in arrays[i + 1:])
