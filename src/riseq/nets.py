"""Minimal dense neural engine with hand-written reverse-mode gradients.

Everything the actor-critic agents need and nothing more: fully connected
layers with ReLU hidden activations, optional per-sample layer
normalization before each hidden activation, a linear or tanh output, Adam
with bias correction, and a tanh-squashed diagonal-Gaussian policy head.
All arithmetic is float64 so finite-difference gradient checks have
headroom. Inputs are batches of shape (batch, features).

Storage: each network keeps all of its parameters in one contiguous vector,
``Mlp.flat``, laid out in :meth:`Mlp.parameters` order (per layer: weight
matrix, bias, then layer-norm gain and offset on hidden layers). The
``weights``, ``biases``, ``ln_gain`` and ``ln_offset`` lists and
``parameters()`` are reshaped views onto that vector, so writing through
any of them writes the vector. Adam's two moments are one vector each, laid
out the same way. Adam and Polyak averaging walk these vectors in
fixed-size chunks through a small scratch buffer instead of allocating
full-size temporaries; copies and snapshots are buffer copies.

Backward passes return, besides the parameter gradients, the gradient of
the loss with respect to the network input; the deterministic-policy
agents need that to push value gradients through a critic into an actor,
and can ask for the input gradient alone. Parameter gradients are views
onto one buffer each network owns and reuses: the next ``backward`` of the
same network overwrites them, so apply or copy them before that.

The engine is single-threaded: the chunk scratch is shared by every network
in the process, and gradient buffers by every caller of one network.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
LAYER_NORM_EPS = 1e-5
SQUASH_EPS = 1e-6
_LOG_2PI = float(np.log(2.0 * np.pi))

# Elements per piece of the chunked vector passes: a piece of each operand
# and of the scratch stays in cache across the several operations applied
# to it, where whole-vector operations stream every operand from memory
# once per operation.
CHUNK = 32768
_scratch = np.empty((2, CHUNK))


def chunks(n: int):
    """Yield (slice, scratch, scratch) pieces covering ``range(n)``.

    Both scratch arrays have the slice's length; their contents are not
    kept from one piece to the next.
    """
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        yield slice(lo, hi), _scratch[0, :hi - lo], _scratch[1, :hi - lo]


class Views(list):
    """Arrays of the given shapes viewing consecutive pieces of ``flat``."""

    __slots__ = ("flat",)

    def __init__(self, flat: np.ndarray, shapes):
        arrays = []
        pos = 0
        for shape in shapes:
            n = math.prod(shape)
            arrays.append(flat[pos:pos + n].reshape(shape))
            pos += n
        super().__init__(arrays)
        self.flat = flat


class Adam:
    """Adaptive-moment estimation over a list of parameter arrays.

    The moments ``m`` and ``v`` are one vector each, exposed as views shaped
    like the parameters.
    """

    def __init__(self, params: list[np.ndarray]):
        shapes = [p.shape for p in params]
        n = sum(p.size for p in params)
        self.m = Views(np.zeros(n), shapes)
        self.v = Views(np.zeros(n), shapes)
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray], lr: float,
             beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        """Bias-corrected update, applied to ``params`` in place.

        Parameters and gradients given as :class:`Views` are updated as one
        vector; other arrays one at a time, and must be C-contiguous.
        """
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient structure does not match state")
        if isinstance(params, Views) and isinstance(grads, Views):
            pieces = [(params.flat, grads.flat, self.m.flat, self.v.flat)]
        else:
            if not all(p.flags.c_contiguous for p in params):
                raise ValueError("parameters must be C-contiguous arrays")
            pieces = [(p.reshape(-1), np.ravel(g), m.reshape(-1), v.reshape(-1))
                      for p, g, m, v in zip(params, grads, self.m, self.v)]
        if any(p.size != m.size or g.size != m.size for p, g, m, _ in pieces):
            raise ValueError("parameter/gradient sizes do not match state")
        self.t += 1
        c1 = 1.0 - beta1**self.t
        c2 = 1.0 - beta2**self.t
        # The per-element operations and their order are those of
        #   m = beta1 * m + (1 - beta1) * g
        #   v = beta2 * v + (1 - beta2) * g * g
        #   p -= lr * (m / c1) / (sqrt(v / c2) + eps)
        # so results are bit-identical to the whole-array expressions.
        for p, g, m, v in pieces:
            for s, a, b in chunks(p.size):
                pc, gc, mc, vc = p[s], g[s], m[s], v[s]
                mc *= beta1
                np.multiply(gc, 1.0 - beta1, out=a)
                mc += a
                vc *= beta2
                np.multiply(gc, 1.0 - beta2, out=a)
                a *= gc
                vc += a
                np.divide(vc, c2, out=a)
                np.sqrt(a, out=a)
                a += eps
                np.divide(mc, c1, out=b)
                b *= lr
                b /= a
                pc -= b


class Mlp:
    """Feed-forward network: affine -> (layer norm) -> ReLU hidden stack.

    ``output`` selects the final activation, "linear" or "tanh". Weights
    start from N(0, std^2) and biases from zero. Each instance owns its
    Adam accumulators, so two networks never share optimizer state.
    """

    def __init__(self, rng: np.random.Generator, layer_sizes, std: float = 0.1,
                 layer_norm: bool = False, output: str = "linear"):
        self._setup([int(s) for s in layer_sizes], float(std), bool(layer_norm), output)
        for w in self.weights:
            w[...] = rng.normal(0.0, std, w.shape)
        for g in self.ln_gain:
            g[...] = 1.0

    def _setup(self, sizes: list[int], std: float, layer_norm: bool, output: str) -> None:
        """Validate the architecture; allocate zeroed parameters and Adam state."""
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if output not in ("linear", "tanh"):
            raise ValueError("output must be 'linear' or 'tanh'")
        self.sizes = sizes
        self.std = std
        self.layer_norm = layer_norm
        self.output = output
        self._params, self.weights, self.biases, self.ln_gain, self.ln_offset = \
            self._layout()
        self.flat = self._params.flat
        self._grad = None  # allocated by the first backward that needs it
        self.adam = Adam(self._params)

    def _layout(self) -> tuple[Views, list, list, list, list]:
        """Views onto a new zeroed vector: all of them in parameters() order,
        then the weights, biases, layer-norm gains and offsets among them."""
        shapes, roles = [], ""
        for i in range(len(self.sizes) - 1):
            width = self.sizes[i + 1]
            shapes += [(self.sizes[i], width), (width,)]
            roles += "wb"
            if self.layer_norm and i < self.n_hidden:
                shapes += [(width,), (width,)]
                roles += "go"
        views = Views(np.zeros(sum(map(math.prod, shapes))), shapes)
        return views, *([v for v, r in zip(views, roles) if r == role] for role in "wbgo")

    @property
    def n_hidden(self) -> int:
        return len(self.sizes) - 2

    def parameters(self) -> Views:
        """Every parameter in a fixed order (weights, biases, LN pairs).

        The arrays are views onto :attr:`flat`, and the list is the same
        object on every call.
        """
        return self._params

    def forward(self, x: np.ndarray, train: bool = False):
        """Run the network; with ``train`` also return the activation cache.

        The cache holds every intermediate needed by :meth:`backward` and is
        only valid for the parameter values it was computed with.
        """
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"input width {x.shape[1]} != expected {self.sizes[0]}")
        cache = [] if train else None
        h = x
        for i in range(self.n_hidden):
            z = h @ self.weights[i] + self.biases[i]
            if self.layer_norm:
                mean = z.mean(axis=1, keepdims=True)
                centered = z - mean
                var = (centered**2).mean(axis=1, keepdims=True)
                inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
                normed = centered * inv_std
                pre = self.ln_gain[i] * normed + self.ln_offset[i]
            else:
                normed = inv_std = None
                pre = z
            out = np.maximum(pre, 0.0)
            if train:
                cache.append({"x": h, "pre": pre, "normed": normed, "inv_std": inv_std})
            h = out
        z = h @ self.weights[-1] + self.biases[-1]
        y = np.tanh(z) if self.output == "tanh" else z
        if train:
            cache.append({"x": h, "y": y})
            return (y[0] if squeeze else y), cache
        return y[0] if squeeze else y

    def backward(self, cache, grad_output: np.ndarray, input_only: bool = False):
        """Exact gradients for the loss whose output gradient is supplied.

        Returns (parameter gradients aligned with :meth:`parameters`,
        gradient with respect to the network input). The parameter
        gradients are views onto this network's gradient buffer, valid until
        its next ``backward``. With ``input_only`` they are not computed and
        None takes their place; the input gradient is the same.
        """
        if cache is None or len(cache) != self.n_hidden + 1:
            raise ValueError("cache does not match this network")
        grad_output = np.asarray(grad_output, dtype=float)
        if grad_output.ndim == 1:
            grad_output = grad_output[None, :]
        if input_only:
            grads = None
        else:
            if self._grad is None:
                self._grad = self._layout()
            grads, grads_w, grads_b, grads_g, grads_o = self._grad

        top = cache[-1]
        dz = grad_output * (1.0 - top["y"] ** 2) if self.output == "tanh" else grad_output
        if grads is not None:
            np.matmul(top["x"].T, dz, out=grads_w[-1])
            np.sum(dz, axis=0, out=grads_b[-1])
        dx = dz @ self.weights[-1].T

        for i in range(self.n_hidden - 1, -1, -1):
            layer = cache[i]
            dpre = dx * (layer["pre"] > 0)
            if self.layer_norm:
                normed, inv_std = layer["normed"], layer["inv_std"]
                if grads is not None:
                    np.sum(dpre * normed, axis=0, out=grads_g[i])
                    np.sum(dpre, axis=0, out=grads_o[i])
                dnormed = dpre * self.ln_gain[i]
                dz = inv_std * (dnormed
                                - dnormed.mean(axis=1, keepdims=True)
                                - normed * (dnormed * normed).mean(axis=1, keepdims=True))
            else:
                dz = dpre
            if grads is not None:
                np.matmul(layer["x"].T, dz, out=grads_w[i])
                np.sum(dz, axis=0, out=grads_b[i])
            dx = dz @ self.weights[i].T
        return grads, dx

    def adam_step(self, grads: list[np.ndarray], lr: float, beta1: float = 0.9,
                  beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.adam.step(self._params, grads, lr, beta1, beta2, eps)

    def copy(self) -> "Mlp":
        """Independent deep copy of parameters and optimizer state."""
        twin = Mlp.__new__(Mlp)
        twin._setup(list(self.sizes), self.std, self.layer_norm, self.output)
        twin.load_state(self)
        return twin

    def load_state(self, other: "Mlp") -> None:
        """Overwrite parameters and optimizer state with copies of ``other``'s."""
        if (other.sizes, other.layer_norm, other.output) != \
                (self.sizes, self.layer_norm, self.output):
            raise ValueError("network architectures differ")
        self.flat[...] = other.flat
        self.adam.m.flat[...] = other.adam.m.flat
        self.adam.v.flat[...] = other.adam.v.flat
        self.adam.t = other.adam.t

    # -- serialization: one JSON header line, then raw little-endian float64 --

    def save_bytes(self) -> bytes:
        """Snapshot: header line, then the parameters, Adam m and Adam v
        vectors, each in parameters() order."""
        header = {
            "sizes": self.sizes,
            "std": self.std,
            "layer_norm": self.layer_norm,
            "output": self.output,
            "adam_t": self.adam.t,
        }
        buf = io.BytesIO()
        buf.write(json.dumps(header).encode() + b"\n")
        for vec in (self.flat, self.adam.m.flat, self.adam.v.flat):
            buf.write(vec.astype("<f8", copy=False).tobytes())
        return buf.getvalue()

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.save_bytes())

    @classmethod
    def load_bytes(cls, blob: bytes) -> "Mlp":
        newline = blob.index(b"\n")
        header = json.loads(blob[:newline].decode())
        net = cls.__new__(cls)
        net._setup([int(s) for s in header["sizes"]], float(header["std"]),
                   bool(header["layer_norm"]), header["output"])
        payload = np.frombuffer(blob[newline + 1:], dtype="<f8")
        n = net.flat.size
        if payload.size != 3 * n:
            raise ValueError("snapshot payload size does not match the header")
        net.flat[...] = payload[:n]
        net.adam.m.flat[...] = payload[n:2 * n]
        net.adam.v.flat[...] = payload[2 * n:]
        net.adam.t = header["adam_t"]
        return net

    @classmethod
    def load(cls, path) -> "Mlp":
        with open(path, "rb") as fh:
            return cls.load_bytes(fh.read())


def split_policy_head(out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a policy network output into mean and clamped log-std halves."""
    out = np.asarray(out, dtype=float)
    if out.shape[-1] % 2 != 0:
        raise ValueError("policy head output width must be even")
    half = out.shape[-1] // 2
    mean = out[..., :half]
    log_std = np.clip(out[..., half:], LOG_STD_MIN, LOG_STD_MAX)
    return mean, log_std


@dataclass
class SquashedSample:
    """A reparameterized draw from a tanh-squashed diagonal Gaussian."""

    action: np.ndarray
    log_prob: np.ndarray
    noise: np.ndarray  # the standard-normal draw, kept for pathwise gradients


def squashed_gaussian_sample(mean: np.ndarray, log_std: np.ndarray,
                             rng: np.random.Generator) -> SquashedSample:
    """Draw action = tanh(mean + std * noise) with its exact log-density.

    The log-density applies the change of variables through tanh, with a
    small epsilon inside the log for numerical safety near saturation.
    """
    mean = np.atleast_2d(np.asarray(mean, dtype=float))
    log_std = np.atleast_2d(np.asarray(log_std, dtype=float))
    noise = rng.standard_normal(mean.shape)
    pre = mean + np.exp(log_std) * noise
    action = np.tanh(pre)
    log_prob = np.sum(-0.5 * _LOG_2PI - log_std - 0.5 * noise**2, axis=-1)
    log_prob -= np.sum(np.log(1.0 - action**2 + SQUASH_EPS), axis=-1)
    return SquashedSample(action=action, log_prob=log_prob, noise=noise)


def squashed_gaussian_backward(mean: np.ndarray, log_std: np.ndarray,
                               noise: np.ndarray, grad_action: np.ndarray,
                               grad_log_prob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pathwise gradients of a loss through a squashed-Gaussian draw.

    Given upstream gradients with respect to the sampled action (batch x
    dim) and to its log-probability (batch,), returns gradients with
    respect to the head mean and log-std, holding the standard-normal draw
    fixed (the reparameterization trick).
    """
    std = np.exp(log_std)
    pre = mean + std * noise
    action = np.tanh(pre)
    one_m_a2 = 1.0 - action**2
    # d(-log(1 - a^2 + eps))/d(pre)
    dlogp_dpre = 2.0 * action * one_m_a2 / (one_m_a2 + SQUASH_EPS)
    glp = np.asarray(grad_log_prob, dtype=float)[:, None]
    dpre = grad_action * one_m_a2 + glp * dlogp_dpre
    dmean = dpre
    dlog_std = dpre * std * noise - glp
    return dmean, dlog_std
