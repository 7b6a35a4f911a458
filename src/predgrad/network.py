"""Multilayer perceptron with an explicit trunk / head parameter split.

The head is exactly the last linear layer (weight ``W_a`` of shape C x D and
a length-C bias); everything before it is the trunk, stored as one flat
float64 vector. Four pass procedures are provided:

* ``forward`` - full pass that also returns a cache for backprop,
* ``cheap_forward`` - the same pass without the cache,
* ``backward`` - exact flat gradient rows from a cache and an output-space
  residual,
* ``backward_sum`` - the sum of those rows over the batch, formed as one
  matrix product per layer; it and ``backward`` walk the layers alike.

``trunk_rows`` gives the trunk part of ``backward``'s rows on a batch
unformed, as the per-layer factors they are outer products of
(``predgrad.linalg.FactoredRows``); ``backward`` forms exactly those rows.

``ForwardCache.rows`` takes some rows of a batch's cache, so a backward
pass on those rows reuses the batch's forward instead of repeating it.

The passes and ``loss_and_residual`` are rank-polymorphic: they take one
example, or a batch of them along a leading axis, and a single example
comes back without that axis (``backward_sum`` returns one flat vector
either way). A batch goes through each layer as one matrix product, so a
row's last bits may depend on the other rows of its call. The same call on
the same rows gives the same bits (at a fixed BLAS thread count), and
``cheap_forward`` gives exactly those of ``forward``.

Flat parameter layout (used by checkpoints, by gradients and by the
trainer's flattened updates): for each trunk layer in order, the weight
matrix row-major then its bias; then the head weight row-major; then the
head bias. The augmented activation convention is ``[a(x); 1]`` with the
bias coordinate last.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, LabelError, StaleCache
from .linalg import FactoredRows
from .rng import substream

ACTIVATIONS = ("tanh", "relu", "identity")


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    hidden_widths: tuple[int, ...]
    output_dim: int
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigError("input_dim and output_dim must be >= 1")
        if len(self.hidden_widths) == 0:
            raise ConfigError("hidden_widths must be non-empty (the trunk must exist)")
        if any(w < 1 for w in self.hidden_widths):
            raise ConfigError("all hidden widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @property
    def last_hidden(self) -> int:
        return self.hidden_widths[-1]

    def trunk_layer_shapes(self) -> list[tuple[int, int]]:
        widths = (self.input_dim,) + self.hidden_widths
        return [(widths[k + 1], widths[k]) for k in range(len(self.hidden_widths))]

    @property
    def trunk_size(self) -> int:
        return sum(o * i + o for o, i in self.trunk_layer_shapes())

    @property
    def head_size(self) -> int:
        return self.output_dim * self.last_hidden + self.output_dim

    @property
    def n_params(self) -> int:
        return self.trunk_size + self.head_size


class Network:
    """Parameter container. Mutation goes through ``set_flat_params``, which
    bumps the version counter used for cache staleness checks."""

    def __init__(self, config: NetworkConfig, trunk_params: np.ndarray,
                 head_weight: np.ndarray, head_bias: np.ndarray, version: int = 0):
        self.config = config
        self.trunk_params = np.ascontiguousarray(trunk_params, dtype=np.float64)
        self.head_weight = np.ascontiguousarray(head_weight, dtype=np.float64)
        self.head_bias = np.ascontiguousarray(head_bias, dtype=np.float64)
        self.version = version
        if self.trunk_params.shape != (config.trunk_size,):
            raise DimensionError("trunk parameter vector has the wrong length")
        if self.head_weight.shape != (config.output_dim, config.last_hidden):
            raise DimensionError("head weight has the wrong shape")
        if self.head_bias.shape != (config.output_dim,):
            raise DimensionError("head bias has the wrong length")

    @property
    def trunk_size(self) -> int:
        return self.config.trunk_size

    @property
    def head_size(self) -> int:
        return self.config.head_size

    @property
    def n_params(self) -> int:
        return self.config.n_params

    def trunk_layers(self):
        """Views (W_k, b_k) into the flat trunk vector, in layer order."""
        layers = []
        off = 0
        for out_w, in_w in self.config.trunk_layer_shapes():
            w = self.trunk_params[off:off + out_w * in_w].reshape(out_w, in_w)
            off += out_w * in_w
            b = self.trunk_params[off:off + out_w]
            off += out_w
            layers.append((w, b))
        return layers

    def flat_params(self) -> np.ndarray:
        return np.concatenate([self.trunk_params, self.head_weight.ravel(), self.head_bias])

    def set_flat_params(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_params,):
            raise DimensionError(
                f"expected {self.n_params} parameters, got {theta.shape}")
        pt = self.trunk_size
        c, d = self.config.output_dim, self.config.last_hidden
        self.trunk_params = np.ascontiguousarray(theta[:pt])
        self.head_weight = np.ascontiguousarray(theta[pt:pt + c * d].reshape(c, d))
        self.head_bias = np.ascontiguousarray(theta[pt + c * d:])
        self.version += 1

    def copy(self) -> "Network":
        return Network(self.config, self.trunk_params.copy(), self.head_weight.copy(),
                       self.head_bias.copy(), self.version)


@dataclass
class ForwardCache:
    version: int
    x: np.ndarray
    pre: list[np.ndarray]   # per trunk layer pre-activations
    act: list[np.ndarray]   # per trunk layer activations; act[-1] is llh

    def rows(self, idx) -> "ForwardCache":
        """The cache of the rows ``idx`` (an index array) of this batch."""
        return ForwardCache(self.version, self.x[idx], [z[idx] for z in self.pre],
                            [a[idx] for a in self.act])


def init_network(cfg: NetworkConfig) -> Network:
    """Glorot-style init: W ~ U(-s, s) with s = sqrt(6/(fan_in+fan_out)),
    biases zero. Deterministic in cfg.seed."""
    rng = substream(cfg.seed, "init")
    parts = []
    for out_w, in_w in cfg.trunk_layer_shapes():
        s = np.sqrt(6.0 / (in_w + out_w))
        parts.append(rng.uniform(-s, s, size=out_w * in_w))
        parts.append(np.zeros(out_w))
    trunk = np.concatenate(parts)
    d, c = cfg.last_hidden, cfg.output_dim
    s = np.sqrt(6.0 / (d + c))
    head_w = rng.uniform(-s, s, size=(c, d))
    head_b = np.zeros(c)
    return Network(cfg, trunk, head_w, head_b)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    return z


def _act_deriv(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return 1.0 - a * a
    if kind == "relu":
        return (z > 0).astype(np.float64)
    return np.ones_like(z)


def gradient_rows(trunk_grad: np.ndarray, llh: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Flat-layout gradient rows from trunk gradient rows and the exact head
    gradient residual x [llh; 1]."""
    lead = residual.shape[:-1]
    c, d = residual.shape[-1], llh.shape[-1]
    head_w = (residual[..., :, None] * llh[..., None, :]).reshape(lead + (c * d,))
    return np.concatenate([trunk_grad, head_w, residual], axis=-1)


def gradient_sum(trunk_sum: np.ndarray, llh: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """The sum of ``gradient_rows`` over the rows, from the trunk rows' sum:
    the head part is residual^T llh, then the residual's column sums."""
    llh = llh.reshape(-1, llh.shape[-1])
    residual = residual.reshape(-1, residual.shape[-1])
    return np.concatenate([trunk_sum, (residual.T @ llh).ravel(), residual.sum(axis=0)])


def forward(net: Network, x: np.ndarray):
    """Full pass: returns (llh, output, cache)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[-1:] != (net.config.input_dim,):
        raise DimensionError(
            f"input has shape {x.shape}, expected dim {net.config.input_dim}")
    kind = net.config.activation
    pre, act = [], []
    a = x
    for w, b in net.trunk_layers():
        z = a @ w.T + b
        a = _act(z, kind)
        pre.append(z)
        act.append(a)
    output = a @ net.head_weight.T + net.head_bias
    return a, output, ForwardCache(net.version, x, pre, act)


def cheap_forward(net: Network, x: np.ndarray):
    """Activations-only pass: returns (llh, output) of ``forward``, without
    its backprop cache."""
    llh, output, _ = forward(net, x)
    return llh, output


def loss_and_residual(output: np.ndarray, y, kind: str, smoothing: float = 0.0):
    """Per-example loss and output-space residual.

    squared_scalar / squared_vector: loss = 0.5 ||f(x) - y||^2, residual
    f(x) - y; a scalar target may leave out its length-1 axis.
    cross_entropy: y holds class indices; softmax probabilities against a
    smoothed one-hot target, and the residual p - target is also the exact
    logit gradient.
    """
    output = np.asarray(output, dtype=np.float64)
    if kind in ("squared_scalar", "squared_vector"):
        yv = np.asarray(y, dtype=np.float64)
        if kind == "squared_scalar":
            if output.shape[-1:] != (1,):
                raise DimensionError("squared_scalar needs scalar output and target")
            if yv.ndim < output.ndim:
                yv = yv[..., None]
        if yv.shape != output.shape:
            raise DimensionError(
                f"target shape {yv.shape} does not match output shape {output.shape}")
        r = output - yv
        return 0.5 * np.einsum("...i,...i->...", r, r), r
    if kind == "cross_entropy":
        if not 0.0 <= smoothing < 1.0:
            raise ConfigError(f"label smoothing must be in [0,1), got {smoothing}")
        c = output.shape[-1]
        labels = np.asarray(y)
        if labels.shape != output.shape[:-1]:
            raise DimensionError(
                f"labels of shape {labels.shape} for outputs of shape {output.shape}")
        bad = labels[(labels < 0) | (labels >= c)]
        if bad.size:
            raise LabelError(f"class index {bad.flat[0]} out of range for {c} classes")
        shifted = output - output.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        p = np.exp(logp)
        target = np.where(labels[..., None] == np.arange(c),
                          smoothing / c + (1.0 - smoothing), smoothing / c)
        return -np.einsum("...i,...i->...", target, logp), p - target
    raise ConfigError(f"unknown loss kind {kind!r}")


def _checked_residual(net: Network, cache: ForwardCache, residual) -> np.ndarray:
    if cache.version != net.version:
        raise StaleCache(
            f"cache from parameter version {cache.version}, network is at {net.version}")
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape != cache.act[-1].shape[:-1] + (net.config.output_dim,):
        raise DimensionError(
            f"residual shape {residual.shape} does not match the cached pass")
    return residual


def _trunk_walk(net: Network, cache: ForwardCache, residual: np.ndarray):
    """(dz, a_prev) for each trunk layer, last layer first: the layer's
    pre-activation gradient, from W_a^T residual backpropagated through the
    cached trunk, and the layer's input. The layer's weight gradient is
    their outer product and its bias gradient dz."""
    kind = net.config.activation
    delta = residual @ net.head_weight
    layers = net.trunk_layers()
    for k in range(len(layers) - 1, -1, -1):
        dz = delta * _act_deriv(cache.pre[k], cache.act[k], kind)
        yield dz, (cache.act[k - 1] if k > 0 else cache.x)
        if k > 0:
            delta = dz @ layers[k][0]


def trunk_rows(net: Network, cache: ForwardCache, residual: np.ndarray) -> FactoredRows:
    """The trunk part of ``backward``'s rows on a batch, held as its factors:
    each layer's pre-activation gradients and inputs, as ``FactoredRows``
    with a bias, so that sums and products over the rows need not form them."""
    residual = _checked_residual(net, cache, residual)
    if residual.ndim != 2:
        raise DimensionError(f"trunk rows need a batch of residuals, got {residual.shape}")
    return FactoredRows(list(_trunk_walk(net, cache, residual))[::-1], bias=True)


def backward(net: Network, cache: ForwardCache, residual: np.ndarray) -> np.ndarray:
    """Exact gradient rows (..., n_params) in the flat layout, from a forward
    cache and the output-space residual.

    The head part is residual x [llh; 1]; the trunk part backpropagates
    W_a^T residual through the cached trunk, each layer's weight gradient
    being the outer product of its pre-activation gradient and its input:
    the rows of ``trunk_rows``, formed.
    """
    residual = _checked_residual(net, cache, residual)
    lead = residual.shape[:-1]
    layers = [(dz.reshape(-1, dz.shape[-1]), a_prev.reshape(-1, a_prev.shape[-1]))
              for dz, a_prev in _trunk_walk(net, cache, residual)]
    trunk = FactoredRows(layers[::-1], bias=True).dense()
    return gradient_rows(trunk.reshape(lead + (net.trunk_size,)), cache.act[-1], residual)


def backward_sum(net: Network, cache: ForwardCache, residual: np.ndarray) -> np.ndarray:
    """The sum of ``backward``'s rows, in the flat layout, formed as a sum:
    one product dz^T a_prev per trunk layer, and residual^T llh with the
    residual's column sums for the head."""
    residual = _checked_residual(net, cache, residual)
    parts = []
    for dz, a_prev in _trunk_walk(net, cache, residual):
        dz = dz.reshape(-1, dz.shape[-1])
        parts += [dz.sum(axis=0), (dz.T @ a_prev.reshape(-1, a_prev.shape[-1])).ravel()]
    return gradient_sum(np.concatenate(parts[::-1]), cache.act[-1], residual)
