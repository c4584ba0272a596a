"""Tiny dense feedforward nets with hand-written backprop.

Everything is float64 numpy. Hidden layers use tanh; the output layer is
linear. Inputs are (batch, features); weight matrices are (out, in). A
net is views into one flat buffer, and a (V, P) buffer is V stacked nets. A
leading axis on the input alone runs one net on several batches at once;
either way the stacked matmul runs one gemm per slice, so each slice gets
its own 2-d pass's numbers.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError


def dense_count(sizes) -> int:
    """Parameters of a dense net with these layer sizes."""
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


class DenseParams:
    """Views W0, b0, W1, b1, ... on the last axis of flat: layer l's weights
    (..., sizes[l+1], sizes[l]), then its biases (..., sizes[l+1])."""

    def __init__(self, sizes, flat: np.ndarray):
        count = dense_count(sizes)
        if flat.shape[-1:] != (count,):
            raise DimensionError(f"layer sizes {list(sizes)} need {count} parameters, got shape {flat.shape}")
        self.sizes, self.flat = list(sizes), flat
        self.weights, self.biases = [], []
        at, lead = 0, flat.shape[:-1]
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self.weights.append(flat[..., at : at + fan_out * fan_in].reshape(*lead, fan_out, fan_in))
            at += fan_out * fan_in
            self.biases.append(flat[..., at : at + fan_out])
            at += fan_out

    def __reduce__(self):  # the views are rebuilt on the unpickled buffer, not pickled as copies of it
        return DenseParams, (self.sizes, self.flat)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_dense(layer_sizes: list[int], rng: np.random.Generator) -> DenseParams:
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    if any(int(s) < 1 for s in layer_sizes):
        raise ParameterError(f"layer sizes must be positive, got {layer_sizes}")
    layers = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        # one draw fills the weights, then the bias, as two draws would
        layers.append(rng.uniform(-bound, bound, size=fan_out * (fan_in + 1)))
    return DenseParams(layer_sizes, np.concatenate(layers))


def dense_forward(
    params: DenseParams, x: np.ndarray, hidden_only: bool = False
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass; returns (output (B, out), per-layer activations).

    The returned cache is [x, a_1, ..., a_L] where a_l is the tanh output
    of hidden layer l and a_L is the linear output. hidden_only stops
    before the output layer: it returns a_{L-1} (x itself for a net with
    no hidden layer) and the cache [x, a_1, ..., a_{L-1}].
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim < params.weights[0].ndim or a.shape[-1] != params.weights[0].shape[-1]:
        raise DimensionError(
            f"input shape {a.shape} does not match first layer weights {params.weights[0].shape}"
        )
    cache = [a]
    last = params.n_layers - 1
    for l, (w, b) in enumerate(zip(params.weights[: last if hidden_only else None], params.biases)):
        z = a @ w.mT
        z += b[..., None, :]
        a = z if l == last else np.tanh(z, out=z)
        cache.append(a)
    return a, cache


def dense_backward(
    params: DenseParams, cache: list[np.ndarray], grad_out: np.ndarray, grads: DenseParams
) -> tuple[np.ndarray, np.ndarray]:
    """Backprop grad_out (B, out) through the net into grads, a training
    loop's one buffer for them, whose every entry it writes; returns
    (grads.flat, dL/dz of the first layer (B, sizes[1])). The input gradient
    is that @ weights[0], left to the callers that need it. A leading axis on
    the input of an unstacked net gives each slice's gradients along that
    axis, in a grads buffer with that axis. The cache is spent: each hidden
    activation is overwritten by its tanh derivative."""
    g = np.asarray(grad_out, dtype=np.float64)  # dL/dz of the linear output
    for l in range(params.n_layers - 1, -1, -1):
        np.matmul(g.mT, cache[l], out=grads.weights[l])
        np.add.reduce(g, axis=-2, out=grads.biases[l])  # np.sum, without its Python wrapper
        if l > 0:
            tanh_grad = np.square(cache[l], out=cache[l])
            np.subtract(1.0, tanh_grad, out=tanh_grad)
            g = g @ params.weights[l]
            g *= tanh_grad
    return grads.flat, g


class MomentumState:
    """Classic SGD-with-momentum, in place, on one flat parameter buffer. The
    learning rate and momentum come from a config that has checked them."""

    def __init__(self, flat: np.ndarray, learning_rate: float, momentum: float):
        self.flat = flat
        self.lr = learning_rate
        self.momentum = momentum
        self.velocity = np.zeros_like(flat)

    def step(self, grad: np.ndarray) -> None:
        """Update the buffer by grad; a grad shorter on the last axis steps
        only that prefix and leaves the rest and its velocity untouched."""
        v = self.velocity[..., : grad.shape[-1]]
        v *= self.momentum
        v -= self.lr * grad
        self.flat[..., : grad.shape[-1]] += v
