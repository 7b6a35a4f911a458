"""Multilayer perceptron with an explicit trunk / head parameter split.

The head is exactly the last linear layer (weight ``W_a`` of shape C x D and
a length-C bias); everything before it is the trunk, stored as one flat
float64 vector. Three pass procedures are provided:

* ``forward`` - full pass that also returns a cache for backprop,
* ``cheap_forward`` - the same pass without the cache,
* ``backward`` - exact flat gradients from a cache and an output-space
  residual.

The passes and ``loss_and_residual`` are rank-polymorphic: they take one
example, or a batch of them along a leading axis, and a single example
comes back without that axis. Every matrix-vector product is evaluated as
one BLAS gemv per row, ``(a[..., None, :] @ W.T)[..., 0, :]``, never as one
matrix-matrix product over the batch: a gemm's result for a row can change
in the last bits with the other rows in the batch, while a gemv per row
gives each row exactly the single-example result. The trainer's
perfect-predictor invariant rests on this, since it runs ``backward`` on a
subset of a batch in one loop and on the whole batch in the other.

Flat parameter layout (used by checkpoints, by gradients and by the
trainer's flattened updates): for each trunk layer in order, the weight
matrix row-major then its bias; then the head weight row-major; then the
head bias. The augmented activation convention is ``[a(x); 1]`` with the
bias coordinate last.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, LabelError, StaleCache
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


def matvec(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``w @ a`` for each row of ``a``, as one gemv per row."""
    return (a[..., None, :] @ w.T)[..., 0, :]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot product, as one BLAS dot per row."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def gradient_rows(trunk_grad: np.ndarray, llh: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Flat-layout gradient rows from trunk gradient rows and the exact head
    gradient residual x [llh; 1]."""
    lead = residual.shape[:-1]
    c, d = residual.shape[-1], llh.shape[-1]
    head_w = (residual[..., :, None] * llh[..., None, :]).reshape(lead + (c * d,))
    return np.concatenate([trunk_grad, head_w, residual], axis=-1)


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
        z = matvec(w, a) + b
        a = _act(z, kind)
        pre.append(z)
        act.append(a)
    output = matvec(net.head_weight, a) + net.head_bias
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
        return 0.5 * _dot(r, r), r
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
        return -_dot(target, logp), p - target
    raise ConfigError(f"unknown loss kind {kind!r}")


def backward(net: Network, cache: ForwardCache, residual: np.ndarray) -> np.ndarray:
    """Exact gradient rows (..., n_params) in the flat layout, from a forward
    cache and the output-space residual.

    The head part is residual x [llh; 1]; the trunk part backpropagates
    W_a^T residual through the cached trunk, each layer's weight gradient
    being the outer product of its pre-activation gradient and its input.
    """
    if cache.version != net.version:
        raise StaleCache(
            f"cache from parameter version {cache.version}, network is at {net.version}")
    residual = np.asarray(residual, dtype=np.float64)
    llh = cache.act[-1]
    if residual.shape != llh.shape[:-1] + (net.config.output_dim,):
        raise DimensionError(
            f"residual shape {residual.shape} does not match the cached pass")

    kind = net.config.activation
    lead = residual.shape[:-1]
    trunk = np.empty(lead + (net.trunk_size,))
    end = net.trunk_size
    delta = matvec(net.head_weight.T, residual)
    layers = net.trunk_layers()
    for k in range(len(layers) - 1, -1, -1):
        w, _ = layers[k]
        out_w, in_w = w.shape
        dz = delta * _act_deriv(cache.pre[k], cache.act[k], kind)
        a_prev = cache.act[k - 1] if k > 0 else cache.x
        start = end - out_w * in_w - out_w
        trunk[..., start:end - out_w] = \
            (dz[..., :, None] * a_prev[..., None, :]).reshape(lead + (out_w * in_w,))
        trunk[..., end - out_w:end] = dz
        end = start
        delta = matvec(w.T, dz)
    return gradient_rows(trunk, llh, residual)

