"""Shared numerical oracles for the test suite.

The central tool is a finite-difference gradient checker: every analytic
gradient in the package is validated against central differences computed by
re-running the forward function with perturbed leaf values.
"""

from __future__ import annotations

import numpy as np

from modal_distill.data import MODALITIES
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


def tag_arrays(tags) -> tuple[np.ndarray, np.ndarray]:
    """``(modality, class)`` tags as the modality-index and class arrays
    the margin loss takes."""
    mods = np.array([MODALITIES.index(m) for m, _ in tags], dtype=np.intp)
    classes = np.array([c for _, c in tags], dtype=np.int64)
    return mods, classes


def margin_triplets(tags) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (anchors i, cross-modal positives j, same-modal
    negatives k) of every valid triplet of ``(modality, class)`` tags: j
    shares the anchor's class from another modality, k shares the anchor's
    modality with another class.

    Anchors sharing a (modality, class) tag share their positive and
    negative sets, so each such group contributes one index grid.
    """
    mods, classes = tag_arrays(tags)
    parts = [np.empty((3, 0), dtype=np.intp)]
    for m, c in sorted(set(zip(mods.tolist(), classes.tolist()))):
        same_mod, same_class = mods == m, classes == c
        grid = np.meshgrid(np.flatnonzero(same_mod & same_class),
                           np.flatnonzero(~same_mod & same_class),
                           np.flatnonzero(same_mod & ~same_class), indexing="ij")
        parts.append(np.stack([g.ravel() for g in grid]))
    ii, jj, kk = np.concatenate(parts, axis=1)
    return ii, jj, kk


def margin_oracle(cos: np.ndarray, tags, alpha: float) -> tuple[float, int, np.ndarray]:
    """The margin hinge by enumeration over a cosine matrix: its mean over
    every triplet, the triplet count, and the gradient of the mean at
    ``cos``, built from integer counts of active hinges."""
    ii, jj, kk = margin_triplets(tags)
    if not ii.size:
        return 0.0, 0, np.zeros_like(cos)
    hinge = (alpha - cos[ii, jj]) + cos[ii, kk]
    active = (hinge > 0).astype(np.float64)
    counts = np.zeros_like(cos)
    np.add.at(counts, (ii, jj), -active)
    np.add.at(counts, (ii, kk), active)
    return float(np.mean(np.maximum(hinge, 0.0))), int(ii.size), counts * (1.0 / ii.size)


class ReferenceAdam:
    """Adam updating each parameter tensor on its own, with fresh arrays per
    step: the oracle the arena ``Adam`` must match bit for bit."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for key, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * g
            v = self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


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
