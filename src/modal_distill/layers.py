"""Small parametric building blocks shared by all model components.

Parameters live in plain dicts of name -> Tensor so the optimizer and the
checkpoint writer can treat every component uniformly.  ``Adam`` rebinds
each parameter's ``data`` as a view of one flat arena and updates it in
place between steps: a snapshot that must outlive a step is a copy
(checkpoints write the arrays out at once).  Initialization draws
from a caller-supplied Generator; nothing in this module touches global RNG
state.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, affine, two_layer


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


class Linear:
    """Affine map acting on the last axis of a ``[..., d_in]`` tensor, run as
    one autodiff node."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 bias: bool = True, zero_init: bool = False):
        if zero_init:
            w = np.zeros((d_in, d_out))
            b = np.zeros(d_out)
        else:
            w = xavier_uniform(rng, d_in, d_out)
            # nonzero bias init keeps relu pre-activations off exact kinks,
            # which finite-difference checks cannot straddle
            b = rng.uniform(-1.0, 1.0, size=d_out) / np.sqrt(d_in)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(b, requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        params = {f"{prefix}.weight": self.weight}
        if self.bias is not None:
            params[f"{prefix}.bias"] = self.bias
        return params


class TwoLayer:
    """Linear -> ReLU -> Linear, the default shape for every small head, run
    as one autodiff node."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_hidden: int, d_out: int):
        self.first = Linear(rng, d_in, d_hidden)
        self.second = Linear(rng, d_hidden, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return two_layer(x, self.first.weight, self.first.bias,
                         self.second.weight, self.second.bias)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out = self.first.parameters(f"{prefix}.first")
        out.update(self.second.parameters(f"{prefix}.second"))
        return out
