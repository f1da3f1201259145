"""Shared numerical oracles for the test suite.

The central tool is a finite-difference gradient checker: every analytic
gradient in the package is validated against central differences computed by
re-running the forward function with perturbed leaf values.
"""

from __future__ import annotations

import numpy as np

from modal_distill.layers import TwoLayer
from modal_distill.tensor import Tensor
from modal_distill.train import fit_linear_probe, probe_scores, probe_split, standardize


def rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """Worst-case elementwise relative error with an absolute floor.

    The floor keeps near-zero gradient entries from blowing up the ratio.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def numeric_grad(fn, leaf: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the scalar ``fn()`` w.r.t. ``leaf.data``.

    ``fn`` must rebuild its forward pass from the current contents of
    ``leaf.data`` on every call.
    """
    grad = np.zeros_like(leaf.data)
    flat = leaf.data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(fn())
        flat[i] = orig - h
        f_minus = float(fn())
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def check_grads(build, leaves: dict[str, Tensor], tol: float = 1e-5, h: float = 1e-5) -> None:
    """Assert analytic grads of ``build()`` match finite differences.

    ``build`` constructs a fresh scalar Tensor from the leaves' current data.
    Leaves must have ``requires_grad`` set; their ``grad`` buffers are reset
    here so repeated calls stay independent.
    """
    for leaf in leaves.values():
        leaf.grad = None
    out = build()
    out.backward()
    for name, leaf in leaves.items():
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        numeric = numeric_grad(lambda: build().item(), leaf, h=h)
        err = rel_err(analytic, numeric)
        assert err < tol, f"gradient mismatch for {name}: rel err {err:.3e} >= {tol:.0e}"


def gd_loss(weights: np.ndarray, discrepancies: np.ndarray) -> float:
    """Reference form of a GD-Unit's loss: edge weights times edge
    discrepancies, summed over every entry of the [.., 3, 3] records."""
    assert weights.shape == discrepancies.shape, (weights.shape, discrepancies.shape)
    return float(np.sum(weights * discrepancies))


def probe_multiclass_accuracy(feats: np.ndarray, classes: np.ndarray,
                              seed: int = 0, reg: float = 1e-2) -> float:
    """Accuracy of a one-vs-rest ridge probe on held-out rows."""
    classes = np.asarray(classes)
    values = np.unique(classes)
    onehot = (classes[:, None] == values[None, :]).astype(np.float64)
    tr, ev = probe_split(feats.shape[0], seed)
    fit_x, eval_x = standardize(feats[tr], feats[ev])
    w = fit_linear_probe(fit_x, onehot[tr], reg)
    pred = values[np.argmax(probe_scores(eval_x, w), axis=1)]
    return float(np.mean(pred == classes[ev]))


def set_identity_two_layer(net: TwoLayer) -> None:
    """Hand-set a d -> 2d -> d two-layer net to the exact identity map.

    Uses relu(x) - relu(-x) = x, so it is exact for inputs of any sign.
    """
    d = net.first.weight.shape[0]
    assert net.first.weight.shape == (d, 2 * d), "needs hidden width 2d"
    net.first.weight.data[:] = np.hstack([np.eye(d), -np.eye(d)])
    net.first.bias.data[:] = 0.0
    net.second.weight.data[:] = np.vstack([np.eye(d), -np.eye(d)])
    net.second.bias.data[:] = 0.0


def set_averaging_decoder(net: TwoLayer) -> None:
    """Hand-set a 2d -> d -> d decoder to average its two input halves.

    Exact only for non-negative averages (the hidden relu is the constraint),
    which the identity-reconstruction tests arrange.
    """
    d = net.second.weight.shape[0]
    assert net.first.weight.shape == (2 * d, d)
    net.first.weight.data[:] = np.vstack([np.eye(d), np.eye(d)]) / 2.0
    net.first.bias.data[:] = 0.0
    net.second.weight.data[:] = np.eye(d)
    net.second.bias.data[:] = 0.0
