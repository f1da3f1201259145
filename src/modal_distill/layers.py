"""Small parametric building blocks shared by all model components.

Each component registers every trainable tensor with ``param`` where it
draws it, into a name -> Tensor dict the caller owns; a ``ParamTable`` lays
a whole model's out in that draw order.  Initialization draws from a
caller-supplied Generator; nothing in this module touches global RNG state.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .tensor import Tensor, affine, two_layer


def param(params: dict[str, Tensor], name: str, data: np.ndarray) -> Tensor:
    """A trainable tensor over ``data``, recorded in ``params`` as ``name``."""
    params[name] = Tensor(data, requires_grad=True)
    return params[name]


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


class Linear:
    """Affine map acting on the last axis of a ``[..., d_in]`` tensor, run as
    one autodiff node."""

    def __init__(self, rng: np.random.Generator, params: dict[str, Tensor], name: str,
                 d_in: int, d_out: int, bias: bool = True, zero_init: bool = False):
        if zero_init:
            w = np.zeros((d_in, d_out))
            b = np.zeros(d_out)
        else:
            w = xavier_uniform(rng, d_in, d_out)
            # nonzero bias init keeps relu pre-activations off exact kinks,
            # which finite-difference checks cannot straddle
            b = rng.uniform(-1.0, 1.0, size=d_out) / np.sqrt(d_in)
        self.weight = param(params, f"{name}.weight", w)
        self.bias = param(params, f"{name}.bias", b) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)


class TwoLayer:
    """Linear -> ReLU -> Linear, the default shape for every small head, run
    as one autodiff node."""

    def __init__(self, rng: np.random.Generator, params: dict[str, Tensor], name: str,
                 d_in: int, d_hidden: int, d_out: int):
        self.first = Linear(rng, params, f"{name}.first", d_in, d_hidden)
        self.second = Linear(rng, params, f"{name}.second", d_hidden, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return two_layer(x, self.first.weight, self.first.bias,
                         self.second.weight, self.second.bias)


class ParamTable:
    """A model's parameters over two flat float64 arrays, ``flat`` and
    ``grad``, in ``tensors`` order; ``bounds`` holds each parameter's offset,
    plus the total size at the end.

    Every parameter's ``data`` and ``grad`` are views of its slices from
    construction on, so backward accumulates into ``grad`` and the optimizer,
    loading and snapshots work on whole arrays.  Nothing may rebind them:
    write into them, and copy a value that must outlive a step."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = dict(tensors)
        self.bounds = np.cumsum([0] + [t.data.size for t in self.tensors.values()]).tolist()
        self.flat = np.concatenate([t.data.reshape(-1) for t in self.tensors.values()])
        # np.zeros, not zeros_like: the pages stay unmapped until a backward
        # writes them, so scoring never makes the gradient resident
        self.grad = np.zeros(self.flat.size)
        for t, lo, hi in zip(self.tensors.values(), self.bounds, self.bounds[1:]):
            t.grad = self.grad[lo:hi].reshape(t.data.shape)
            t.data = self.flat[lo:hi].reshape(t.data.shape)

    def load(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays`` (name -> array) in; on a name or shape mismatch
        raise ``DataError`` and change nothing."""
        missing = sorted(set(self.tensors) - set(arrays))
        surplus = sorted(set(arrays) - set(self.tensors))
        if missing or surplus:
            raise DataError(
                f"parameter set mismatch: missing {missing[:3]}, unexpected {surplus[:3]}")
        for name, t in self.tensors.items():
            if t.data.shape != arrays[name].shape:
                raise DataError(
                    f"parameter {name}: checkpoint shape {arrays[name].shape} "
                    f"!= model shape {t.data.shape}")
        for name, t in self.tensors.items():
            t.data[...] = arrays[name]
