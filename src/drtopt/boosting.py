"""Gradient-boosted regression trees for quantile estimation.

Stages fit depth-bounded CART trees to the tilted-loss negative gradient
(q where the residual is positive, q-1 where negative, q at exactly zero).
Leaf values are then refit to the pinball-minimizing constant of the leaf
residuals, so each full-step stage can only decrease training loss.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import FeatureConfig
from .qr import DEFAULT_QUANTILES, pinball_minimizing_constant, tilted_loss

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GBoostHyper:
    learning_rate: float = 0.1
    max_depth: int = 3
    n_trees: int = 100

    def validate(self) -> "GBoostHyper":
        if not 0.0 <= self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in [0, 1], got {self.learning_rate}")
        if not 0 <= self.max_depth <= 6:
            raise ValueError(f"max_depth must be in 0..6, got {self.max_depth}")
        if not 1 <= self.n_trees <= 200:
            raise ValueError(f"n_trees must be in 1..200, got {self.n_trees}")
        return self


@dataclass
class TreeNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    value: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    def is_leaf(self) -> bool:
        return self.feature < 0


def _best_split(X: np.ndarray, g: np.ndarray):
    """Axis-aligned split minimizing SSE of g; None when no split helps."""
    n = len(g)
    total = g.sum()
    best_gain, best = -np.inf, None
    base = total * total / n
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        prefix = np.cumsum(g[order])[:-1]
        n_left = np.arange(1, n)
        valid = xs[1:] != xs[:-1]
        if not valid.any():
            continue
        gain = prefix**2 / n_left + (total - prefix) ** 2 / (n - n_left) - base
        gain[~valid] = -np.inf
        i = int(np.argmax(gain))
        if gain[i] > best_gain + 1e-12:
            best_gain = gain[i]
            best = (j, 0.5 * (xs[i] + xs[i + 1]), order[: i + 1], order[i + 1 :])
    return best


def _grow_tree(X, g, residuals, q, depth, max_depth) -> TreeNode:
    if depth >= max_depth or len(g) < 2:
        return TreeNode(value=pinball_minimizing_constant(residuals, q))
    split = _best_split(X, g)
    if split is None:
        return TreeNode(value=pinball_minimizing_constant(residuals, q))
    j, thr, left_idx, right_idx = split
    left = _grow_tree(X[left_idx], g[left_idx], residuals[left_idx], q, depth + 1, max_depth)
    right = _grow_tree(X[right_idx], g[right_idx], residuals[right_idx], q, depth + 1, max_depth)
    return TreeNode(feature=j, threshold=thr, left=left, right=right)


def _tree_predict(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(node, np.arange(len(X)))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf():
            out[idx] = nd.value
            continue
        go_left = X[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[go_left]))
        stack.append((nd.right, idx[~go_left]))
    return out


@dataclass
class GBoostQRModel:
    levels: tuple[float, ...]
    hyper: GBoostHyper
    init: dict[float, float]
    trees: dict[float, list[TreeNode]]
    feature_cfg: FeatureConfig | None = None
    train_loss: dict[float, list[float]] = field(default_factory=dict)


def fit_gboost(
    X: np.ndarray,
    y: np.ndarray,
    levels=DEFAULT_QUANTILES,
    hyper: GBoostHyper = GBoostHyper(),
    *,
    val: tuple[np.ndarray, np.ndarray] | None = None,
    patience: int = 10,
    feature_cfg: FeatureConfig | None = None,
) -> GBoostQRModel:
    """Boost one tree ensemble per quantile level.

    When a validation set is supplied, boosting stops once validation loss
    has not improved for `patience` stages and the ensemble is truncated to
    its best stage.
    """
    hyper.validate()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in training data")

    init, forests, losses = {}, {}, {}
    for q in levels:
        q = float(q)
        f0 = pinball_minimizing_constant(y, q)
        pred = np.full(len(y), f0)
        trees: list[TreeNode] = []
        loss_path = [float(np.mean(tilted_loss(q, y, pred)))]
        if val is not None:
            val_pred = np.full(len(val[1]), f0)
            best_val = float(np.mean(tilted_loss(q, val[1], val_pred)))
            best_stage, since_best = 0, 0
        for _ in range(hyper.n_trees):
            residuals = y - pred
            gradient = np.where(residuals > 0, q, np.where(residuals < 0, q - 1.0, q))
            tree = _grow_tree(X, gradient, residuals, q, 0, hyper.max_depth)
            trees.append(tree)
            pred = pred + hyper.learning_rate * _tree_predict(tree, X)
            loss_path.append(float(np.mean(tilted_loss(q, y, pred))))
            if val is not None:
                val_pred = val_pred + hyper.learning_rate * _tree_predict(tree, val[0])
                vloss = float(np.mean(tilted_loss(q, val[1], val_pred)))
                if vloss < best_val - 1e-12:
                    best_val, best_stage, since_best = vloss, len(trees), 0
                else:
                    since_best += 1
                    if since_best >= patience:
                        break
        if val is not None:
            trees = trees[:best_stage]
            loss_path = loss_path[: best_stage + 1]
        init[q] = f0
        forests[q] = trees
        losses[q] = loss_path
    return GBoostQRModel(tuple(float(q) for q in levels), hyper, init, forests, feature_cfg, losses)


def gboost_raw_predict(model: GBoostQRModel, X: np.ndarray) -> dict[float, np.ndarray]:
    """Working-scale ensemble output per quantile level."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = {}
    for q in model.levels:
        pred = np.full(len(X), model.init[q])
        for tree in model.trees[q]:
            pred = pred + model.hyper.learning_rate * _tree_predict(tree, X)
        out[q] = pred
    return out
