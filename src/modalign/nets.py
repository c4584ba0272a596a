"""Tiny dense feedforward nets with hand-written backprop.

Everything is float64 numpy. Hidden layers use tanh; the output layer is
linear. Inputs are (batch, features); weight matrices are (out, in). A
stack of same-shaped nets adds a leading axis to every array, and a leading
axis on the input alone runs one net on several batches at once; either way
the stacked matmul runs one gemm per slice, so each slice gets its own 2-d
pass's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError


@dataclass
class DenseParams:
    weights: list[np.ndarray]  # layer l: (sizes[l+1], sizes[l])
    biases: list[np.ndarray]  # layer l: (sizes[l+1],)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def copy(self) -> "DenseParams":
        return DenseParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def arrays(self) -> list[np.ndarray]:
        return [a for layer in zip(self.weights, self.biases) for a in layer]


def init_dense(layer_sizes: list[int], rng: np.random.Generator) -> DenseParams:
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    if len(layer_sizes) < 2:
        raise ParameterError(f"need at least input and output sizes, got {layer_sizes}")
    if any(int(s) < 1 for s in layer_sizes):
        raise ParameterError(f"layer sizes must be positive, got {layer_sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return DenseParams(weights, biases)


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
    params: DenseParams, cache: list[np.ndarray], grad_out: np.ndarray
) -> tuple[DenseParams, np.ndarray]:
    """Backprop grad_out (B, out) through the net; returns (param grads,
    dL/dz of the first layer (B, sizes[1])). The input gradient is that
    @ weights[0], left to the callers that need it. A leading axis on the
    input of an unstacked net gives each slice's gradients along that axis.
    The cache is spent: each hidden activation is overwritten by its tanh
    derivative."""
    weights, biases = [], []
    g = np.asarray(grad_out, dtype=np.float64)  # dL/dz of the linear output
    for l in range(params.n_layers - 1, -1, -1):
        weights.append(g.mT @ cache[l])
        biases.append(g.sum(axis=-2))
        if l > 0:
            tanh_grad = np.square(cache[l], out=cache[l])
            np.subtract(1.0, tanh_grad, out=tanh_grad)
            g = g @ params.weights[l]
            g *= tanh_grad
    return DenseParams(weights[::-1], biases[::-1]), g


class MomentumState:
    """Classic SGD-with-momentum over a flat list of parameter arrays. The
    learning rate and momentum come from a config that has checked them."""

    def __init__(self, arrays: list[np.ndarray], learning_rate: float, momentum: float):
        self.lr = learning_rate
        self.momentum = momentum
        self.velocities = [np.zeros_like(a) for a in arrays]

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """In-place update of each array by its gradient; a shorter arrays
        list steps only that prefix and leaves the rest untouched."""
        for a, g, v in zip(arrays, grads, self.velocities):
            v *= self.momentum
            v -= self.lr * g
            a += v
