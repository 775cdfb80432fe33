"""Minimal feed-forward network machinery in plain numpy.

Hand-derived reverse-mode gradients for an MLP (tanh hidden layers, identity
output), the Adam optimizer, and a diagonal-Gaussian policy head with a
state-independent, learnable log standard deviation.

Each net computes in its parameter vector's dtype: inputs and output
gradients are cast to it, and Python-float scalars keep it (NEP 50), so
Adam and Polyak steps do too.  Both trainers train in ``DTYPE``, float32,
as Stable-Baselines3 does: measured in float64, about half of PPO's 64-row
minibatch was the two nets' forward and backward passes, whose 64x64x64
products are kernel-bound, as TD3's batch 256 is.  Gradient checks use
float64 nets.

Each optimiser group is one flat vector that ``pack`` makes its nets' (and
a Gaussian head's) arrays views into; gradients, Adam moments and target
nets share its layout, so optimiser steps are whole-vector operations.  They
start on a 64-byte boundary, so their kernels' speed does not depend on what
a process allocated before.  A trainer updates its group vectors in place,
forward passes never mutate parameters or their input, and ``Mlp.copy``
gives an artifact its own net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NumericError, ValidationError
from .schema import checked

DTYPE = np.float32  # the dtype both trainers train in
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
ADAM_BETA1 = 0.9  # Adam's decay rates and denominator term, as Kingma and Ba give them
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _segment_sizes(layer_shapes) -> list[int]:
    """Sizes of W_0, ..., W_last, b_0, ..., b_last: the layout of ``Mlp.params``."""
    return [i * o for i, o in layer_shapes] + [o for _, o in layer_shapes]


class Mlp:
    """Fully-connected net; weight k has shape (in_k, out_k), row-major.

    ``params`` is one float vector holding every weight, then every bias,
    each in C order; ``weights`` and ``biases`` are views into it.  Its
    dtype is the one the net computes in.
    """

    def __init__(self, layer_shapes, params: np.ndarray):
        self.layer_shapes = shapes = [tuple(s) for s in layer_shapes]
        if not shapes or any(o1 != i2 for (_, o1), (i2, _) in zip(shapes, shapes[1:])):
            raise ValidationError(f"layer shapes do not chain: {shapes}")
        self.in_dim, self.out_dim = shapes[0][0], shapes[-1][1]
        sizes = _segment_sizes(shapes)
        shapes = shapes + [(o,) for _, o in shapes]
        self._layout = [(e - n, e, s) for e, n, s in zip(accumulate(sizes), sizes, shapes)]
        self.bind(params)

    def bind(self, params: np.ndarray) -> None:
        """Make ``params`` the net's storage, without copying it."""
        if params.shape != (self._layout[-1][1],):
            raise ValidationError(f"{params.shape} parameters for layers {self.layer_shapes}")
        self.params = params
        self.weights, self.biases = self.views(params)

    def views(self, vector: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(weights, biases) as views into ``vector``, laid out like ``params``."""
        n = len(self.layer_shapes)
        weights = [vector[start:end].reshape(shape) for start, end, shape in self._layout[:n]]
        return weights, [vector[start:end] for start, end, _ in self._layout[n:]]

    def copy(self) -> Mlp:
        """The same net over its own aligned copy of the parameters."""
        return Mlp(self.layer_shapes, aligned(self.params))


def aligned(a: np.ndarray, dtype=None) -> np.ndarray:
    """A copy of the vector ``a``, in ``dtype`` if given, that starts on a 64-byte boundary."""
    nbytes = a.size * np.dtype(dtype or a.dtype).itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    out = raw[-raw.ctypes.data % 64 :][:nbytes].view(dtype or a.dtype)
    out[...] = a
    return out


def pack(members: list, dtype=None) -> np.ndarray:
    """A new aligned vector holding the members' parameters in order, in ``dtype`` if
    given; each member (an ``Mlp`` or a ``GaussianHead``) is rebound to its slice of it."""
    vector = aligned(np.concatenate([m.params for m in members]), dtype)
    start = 0
    for m in members:
        m.bind(vector[start : start + m.params.size])
        start += m.params.size
    return vector


def mlp_init(sizes: list[int], rng: np.random.Generator) -> Mlp:
    """Glorot-uniform initialised MLP for the given layer sizes."""
    shapes = list(zip(sizes, sizes[1:]))
    net = Mlp(shapes, np.zeros(sum(_segment_sizes(shapes))))
    for w, (fan_in, fan_out) in zip(net.weights, shapes):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return net


def _as_input(net: Mlp, x: np.ndarray) -> np.ndarray:
    """``x``, one row or a (rows, in_dim) batch, in the net's dtype."""
    x = np.asarray(x, dtype=net.params.dtype)
    if x.ndim not in (1, 2) or x.shape[-1] != net.in_dim:
        raise ValidationError(f"input shape {x.shape} incompatible with dimension {net.in_dim}")
    return x


def _layers(net: Mlp, h: np.ndarray, cache: list) -> np.ndarray:
    """Run ``h``'s last axis through the layers, appending each layer's
    post-activation output to ``cache``; returns the output."""
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if k != last:
            np.tanh(h, out=h)
        cache.append(h)
    return h


def mlp_forward_cached(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass returning the output and the cache [input batch, each
    layer's post-activation output]."""
    cache = [np.atleast_2d(_as_input(net, x))]
    return _layers(net, cache[0], cache), cache


def mlp_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Affine + tanh composition; identity on the output layer.  A 1-D
    input runs as a vector, with the bits of the one-row batch."""
    return _layers(net, _as_input(net, x), [])


def mlp_forward_rows(net: Mlp, x: np.ndarray) -> np.ndarray:
    """``mlp_forward`` of each row of a (T, in_dim) batch, bit for bit.

    The rows run as a stacked (T, 1, in_dim) matmul chain: numpy sends each
    (1, K) @ (K, N) slice to the kernel of the 2-D one-row product, so row t
    holds the bits of ``mlp_forward(net, x[t])``.  A plain (T, K) product
    sums in another order and differs in most rows.
    """
    return _layers(net, _as_input(net, x)[..., None, :], [])[..., 0, :]


def mlp_backward_cached(
    net: Mlp, cache: list[np.ndarray], output_grad: np.ndarray,
    grads: np.ndarray | None = None, input_grad: bool = True,
) -> np.ndarray | None:
    """Backprop through a cached forward pass, which it consumes: it
    overwrites the cache's hidden activations, never its input or output.

    ``output_grad`` is d(scalar loss)/d(output), summed over the batch by the
    caller's convention.  Parameter gradients go into ``grads`` (laid out like
    ``net.params``) unless it is None; returns the input gradient, or None.
    """
    g = np.asarray(output_grad, dtype=cache[-1].dtype)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != cache[-1].shape:
        raise ValidationError(f"output_grad shape {g.shape} != output shape {cache[-1].shape}")
    if grads is not None:
        weight_grads, bias_grads = net.views(grads)
    last = len(net.weights) - 1
    for k in range(last, -1, -1):
        if k != last:  # g * tanh', with tanh' = 1 - h**2 computed in h's buffer
            h = cache[k + 1]
            np.multiply(h, h, out=h)
            np.subtract(1.0, h, out=h)
            g = np.multiply(g, h, out=h)
        if grads is not None:
            np.matmul(cache[k].T, g, out=weight_grads[k])
            np.add.reduce(g, axis=0, out=bias_grads[k])
        if k or input_grad:
            g = g @ net.weights[k].T
    return g if input_grad else None


def mlp_backward(
    net: Mlp, x: np.ndarray, output_grad: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Exact gradients of output . output_grad w.r.t. parameters and input:
    (weight_grads, bias_grads, input_grad)."""
    grads = np.empty_like(net.params)
    gin = mlp_backward_cached(net, mlp_forward_cached(net, x)[1], output_grad, grads)
    return (*net.views(grads), gin[0] if np.ndim(x) == 1 else gin)


@dataclass
class AdamState:
    """Adam moments for one parameter vector, its step count and learning rate,
    and two vectors of its size for the step's temporaries."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    lr: float
    scratch: tuple[np.ndarray, np.ndarray]


def adam_init(params: np.ndarray, lr: float) -> AdamState:
    m, v, a, b = (aligned(np.zeros_like(params)) for _ in range(4))
    return AdamState(m, v, 0, lr, (a, b))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One Adam update with bias correction; params are updated in place, by
    the textbook's operations in its order, with temporaries in ``scratch``."""
    if params.shape != grads.shape:
        raise ValidationError(f"params shape {params.shape} but grads shape {grads.shape}")
    if not np.isfinite(grads).all():
        raise NumericError("non-finite gradient in Adam step")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m, v, (step, denom) = state.first_moment, state.second_moment, state.scratch
    m *= ADAM_BETA1
    m += np.multiply(grads, 1.0 - ADAM_BETA1, out=step)
    v *= ADAM_BETA2
    np.multiply(grads, 1.0 - ADAM_BETA2, out=step)
    v += np.multiply(step, grads, out=step)
    np.divide(m, bc1, out=step)
    step *= state.lr
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    params -= np.divide(step, denom, out=step)


def clip_grad_norm(grads: np.ndarray, max_norm: float) -> float:
    """Scale grads in place so the global L2 norm is at most max_norm; returns
    the pre-clip norm, from one sum of the squares over the whole vector."""
    total = math.sqrt(float((grads * grads).sum()))
    if total > max_norm:
        grads *= max_norm / total
    return total


@dataclass
class GaussianHead:
    """State-independent log standard deviations, clamped to a safe range."""

    log_std: np.ndarray

    @property
    def params(self) -> np.ndarray:
        return self.log_std

    def bind(self, params: np.ndarray) -> None:
        self.log_std = params

    def clamp(self) -> None:
        self.log_std.clip(LOG_STD_MIN, LOG_STD_MAX, out=self.log_std)


def gaussian_log_prob(mean: np.ndarray, log_std: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density, summed over action dimensions, in the
    dtype the three arrays promote to.

    Accepts vectors (returns a scalar) or batches (returns a vector).
    """
    z = (action - mean) * np.exp(-log_std)
    summed = (-0.5 * z**2 - log_std - _HALF_LOG_2PI).sum(axis=-1)
    return float(summed) if summed.ndim == 0 else summed


def gaussian_sample(mean: np.ndarray, log_std: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw action = mean + std * z; ``gaussian_log_prob`` scores it."""
    z = rng.standard_normal(np.shape(mean))
    return mean + np.exp(log_std) * z


def gaussian_entropy(log_std: np.ndarray) -> float:
    """Entropy of the diagonal Gaussian: sum(log_std + 0.5 ln(2 pi e)), in
    ``log_std``'s dtype."""
    return float((log_std + 0.5 * math.log(2.0 * math.pi * math.e)).sum())


def json_numbers(a: np.ndarray) -> list[float]:
    """``a``'s values as JSON numbers: a float32 as its shortest repr, which
    reads back to the same bits, not the 17 digits of its float64 value."""
    a = a.reshape(-1)
    return a.tolist() if a.dtype == np.float64 else [float(text) for text in a.astype(str)]


def mlp_to_dict(net: Mlp) -> dict:
    """The net as JSON values; ``dtype`` is written only when not float64."""
    doc = {
        "layer_shapes": [list(s) for s in net.layer_shapes],
        "weights": [json_numbers(w) for w in net.weights],
        "biases": [json_numbers(b) for b in net.biases],
    }
    if net.params.dtype != np.float64:
        doc["dtype"] = net.params.dtype.name
    return doc


def mlp_from_dict(doc: dict) -> Mlp:
    """The net ``mlp_to_dict`` wrote (float64 if ``dtype`` is absent), each field as
    ``schema.checked`` reads it; arrays that do not fit the layers raise ValidationError."""
    dtype = np.dtype(checked("dtype", doc.get("dtype", "float64"), str, ("float32", "float64")))
    shapes = [tuple(checked("layer_shapes", n, int, "[1, inf)") for n in s) for s in doc["layer_shapes"]]
    arrays = [checked(name, a, dtype, "(-inf, inf)").reshape(-1)
              for name in ("weights", "biases") for a in doc[name]]
    if not shapes or any(len(s) != 2 for s in shapes) or [a.size for a in arrays] != _segment_sizes(shapes):
        raise ValidationError(f"arrays of sizes {[a.size for a in arrays]} for layers {shapes}")
    return Mlp(shapes, np.concatenate(arrays))
