"""Multilayer perceptron with an explicit trunk / head parameter split.

The head is exactly the last linear layer (weight ``W_a`` of shape C x D and
a length-C bias); everything before it is the trunk, stored as one flat
float64 vector. The pass procedures are:

* ``forward`` - full pass that also returns a cache for backprop,
* ``cheap_forward`` - the same pass without the cache,
* ``trunk_rows`` - the trunk part of a batch's exact gradient rows, as the
  per-layer factors they are outer products of (``linalg.FactoredRows``);
  their ``sum``, one matrix product per trunk layer, is the trunk part of
  the gradient sum, so one walk of the layers gives a caller both,
* ``head_sum`` - the closed-form sum of the head part residual x [llh; 1].

No pass forms a gradient row by row (the tests form the rows, as the
reference these sums are checked against), and only ``gradient_sum`` lays
out a flat gradient.

The backward passes take ``loss_and_residual``'s residual, the loss's exact
gradient in the output: f(x) - y for squared error, p - onehot(y) for
cross-entropy.

``ForwardCache.rows`` takes some rows of a batch's cache, so a backward
pass on those rows reuses the batch's forward instead of repeating it.

``forward``, ``cheap_forward`` and ``loss_and_residual`` are
rank-polymorphic: they take one example, or a batch of them along a leading
axis, and a single example comes back without that axis. ``trunk_rows`` and
``head_sum`` take batches only; one example is a batch of one. A batch goes
through each layer as one matrix product, so a row's last bits may depend
on the other rows of its call. The same call on the same rows gives the
same bits (at a fixed BLAS thread count), and ``cheap_forward`` gives
exactly those of ``forward``.

The passes compute in place where that gives the same bits as the plain
expressions: a layer forms its pre-activation ``a @ W.T`` as a new array,
adds the bias to it and applies the activation in it (the head the same,
without an activation), so the input is never written and each layer's
activations are their own array; the walk back forms a layer's
pre-activation gradient in at most one new array (``_dz``).

Flat parameter layout (the ``Network``'s buffer, used by checkpoints, by
gradients and by the trainer's updates in place): for each trunk layer in
order, the weight matrix row-major then its bias; then the head weight
row-major; then the head bias. The augmented activation convention is
``[a(x); 1]`` with the bias coordinate last.
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
    """Parameter container: one flat float64 buffer, ``params``, in the flat
    layout. ``trunk_params``, ``head_weight``, ``head_bias`` and the
    ``trunk_layers()`` pairs are read-only views into it, made once, so a
    pass reads the parameters without copying them.

    A network made from arrays copies them into its buffer: changing those
    arrays later leaves it as it was, and its updates do not reach them.
    ``flat_params`` returns a copy. An update writes the buffer in place
    (the trainer's ``optimizer_step``) and then bumps ``version``, which
    makes the caches of earlier passes stale. A view stays valid across an
    update and then shows the updated values, so anyone may hold one; who
    needs the values from before an update keeps a ``flat_params`` copy."""

    def __init__(self, config: NetworkConfig, trunk_params: np.ndarray,
                 head_weight: np.ndarray, head_bias: np.ndarray, version: int = 0):
        self.config = config
        self.version = version
        self.params = np.empty(config.n_params)
        pt, c, d = config.trunk_size, config.output_dim, config.last_hidden
        views = (self.params[:pt], self.params[pt:pt + c * d].reshape(c, d),
                 self.params[pt + c * d:])
        for name, value, view in zip(("trunk_params", "head_weight", "head_bias"),
                                     (trunk_params, head_weight, head_bias), views):
            value = np.asarray(value, dtype=np.float64)
            if value.shape != view.shape:
                raise DimensionError(f"{name} has shape {value.shape}, not {view.shape}")
            view[...] = value
            view.flags.writeable = False
        self.trunk_params, self.head_weight, self.head_bias = views
        layers, off = [], 0
        for out_w, in_w in config.trunk_layer_shapes():
            w = self.trunk_params[off:off + out_w * in_w].reshape(out_w, in_w)
            off += out_w * in_w
            layers.append((w, self.trunk_params[off:off + out_w]))
            off += out_w
        self._layers = tuple(layers)

    def trunk_layers(self):
        """Views (W_k, b_k) into the flat trunk vector, in layer order."""
        return self._layers

    def flat_params(self) -> np.ndarray:
        return self.params.copy()

    def copy(self) -> "Network":
        return Network(self.config, self.trunk_params, self.head_weight, self.head_bias,
                       self.version)


@dataclass
class ForwardCache:
    version: int
    x: np.ndarray
    act: list[np.ndarray]   # per trunk layer activations; act[-1] is llh

    def rows(self, idx) -> "ForwardCache":
        """The cache of the rows ``idx`` of this batch (views for a slice)."""
        return ForwardCache(self.version, self.x[idx], [a[idx] for a in self.act])


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
    """The activation of the pre-activation z, computed in z's memory."""
    if kind == "tanh":
        np.tanh(z, out=z)
    elif kind == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _dz(delta: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    """delta times the activation's derivative at the pre-activation z, from
    a = act(z), for a ``delta`` the caller gives up: tanh's 1 - a^2 is formed
    in one new array, relu's 0/1 mask multiplies ``delta`` in place (max(z, 0)
    is positive exactly where z is, NaN included, and a product keeps -0.0
    and NaN as they are), and identity returns ``delta``."""
    if kind == "tanh":
        dz = a * a
        np.subtract(1.0, dz, out=dz)
        return np.multiply(delta, dz, out=dz)
    if kind == "relu":
        return np.multiply(delta, a > 0, out=delta)
    return delta


def head_sum(llh: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """[R^T A | R^T 1], R and A the rows of residual and llh: the summed head
    gradient, one row per output, without a ones column on every row."""
    return np.concatenate([residual.T @ llh, residual.sum(axis=0)[:, None]], axis=1)


def gradient_sum(trunk: np.ndarray, head: np.ndarray) -> np.ndarray:
    """The flat-layout gradient sum from its trunk part and its head part,
    the latter laid out as ``head_sum`` gives it."""
    return np.concatenate([trunk, head[:, :-1].ravel(), head[:, -1]])


def forward(net: Network, x: np.ndarray):
    """Full pass: returns (llh, output, cache)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[-1:] != (net.config.input_dim,):
        raise DimensionError(
            f"input has shape {x.shape}, expected dim {net.config.input_dim}")
    kind = net.config.activation
    act = []
    a = x
    for w, b in net.trunk_layers():
        z = a @ w.T
        z += b
        a = _act(z, kind)
        act.append(a)
    output = a @ net.head_weight.T
    output += net.head_bias
    return a, output, ForwardCache(net.version, x, act)


def cheap_forward(net: Network, x: np.ndarray):
    """Activations-only pass: returns (llh, output) of ``forward``, without
    its backprop cache. Kept beside ``forward`` because perfbench's
    ``val_loss`` calls it."""
    llh, output, _ = forward(net, x)
    return llh, output


def loss_and_residual(output: np.ndarray, y, kind: str):
    """Per-example loss and output-space residual.

    squared_scalar / squared_vector: loss = 0.5 ||f(x) - y||^2, residual
    f(x) - y; a scalar target may leave out its length-1 axis.
    cross_entropy: y holds integer class indices; loss -log p_y of the
    softmax probabilities p, read at the label, so it stays finite when
    another logit is -inf, and the residual p - onehot(y), the exact logit
    gradient.
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
        c = output.shape[-1]
        labels = np.asarray(y)
        if labels.shape != output.shape[:-1]:
            raise DimensionError(
                f"labels of shape {labels.shape} for outputs of shape {output.shape}")
        if labels.dtype.kind not in "iu":   # the loss indexes by the labels
            raise LabelError(f"class labels must be integers, got dtype {labels.dtype}")
        bad = labels[(labels < 0) | (labels >= c)]
        if bad.size:
            raise LabelError(f"class index {bad.flat[0]} out of range for {c} classes")
        shifted = output - output.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        p = np.exp(logp)
        target = np.where(labels[..., None] == np.arange(c), 1.0, 0.0)
        rows = logp.reshape(-1, c)
        loss = -rows[np.arange(len(rows)), labels.ravel()].reshape(labels.shape)
        return loss, p - target
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
        dz = _dz(delta, cache.act[k], kind)
        yield dz, (cache.act[k - 1] if k > 0 else cache.x)
        if k > 0:
            delta = dz @ layers[k][0]


def trunk_rows(net: Network, cache: ForwardCache, residual: np.ndarray) -> FactoredRows:
    """The trunk part of the exact gradient rows of a batch, held as its factors:
    each layer's pre-activation gradients and inputs, as ``FactoredRows``,
    so that sums and products over the rows need not form them."""
    residual = _checked_residual(net, cache, residual)
    return FactoredRows(list(_trunk_walk(net, cache, residual))[::-1])

