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


@dataclass(frozen=True)
class Forest:
    """One quantile level's trees as (trees, nodes) arrays in heap order.

    Node i has children 2i+1 and 2i+2, so a tree of depth d takes
    2**(d+1) - 1 slots; a feature below 0 marks a leaf (or an unused slot).
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray

    @classmethod
    def empty(cls, n_trees: int, max_depth: int) -> "Forest":
        shape = (n_trees, 2 ** (max_depth + 1) - 1)
        return cls(np.full(shape, -1, dtype=np.intp), np.zeros(shape), np.zeros(shape))

    def __len__(self) -> int:
        return len(self.feature)

    @property
    def max_depth(self) -> int:
        return self.feature.shape[1].bit_length() - 1

    def __getitem__(self, trees: slice) -> "Forest":
        return Forest(self.feature[trees], self.threshold[trees], self.value[trees])

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(trees, rows): each row's leaf value in every tree, all trees descended at once."""
        trees = np.arange(len(self))[:, None]
        rows = np.arange(len(X))
        node = np.zeros((len(self), len(X)), dtype=np.intp)
        for _ in range(self.max_depth):
            feature = self.feature[trees, node]
            right = ~(X[rows, feature] <= self.threshold[trees, node])
            node = np.where(feature >= 0, 2 * node + 1 + right, node)
        return self.value[trees, node]


def _grow_tree(X, g, residuals, q, depth, max_depth, forest: Forest, t: int, node: int = 0) -> None:
    """Fill tree t of `forest` from heap node `node` down."""
    split = None if depth >= max_depth or len(g) < 2 else _best_split(X, g)
    if split is None:
        forest.value[t, node] = pinball_minimizing_constant(residuals, q)
        return
    j, thr, left_idx, right_idx = split
    forest.feature[t, node] = j
    forest.threshold[t, node] = thr
    for child, idx in ((2 * node + 1, left_idx), (2 * node + 2, right_idx)):
        _grow_tree(X[idx], g[idx], residuals[idx], q, depth + 1, max_depth, forest, t, child)


def tree_to_doc(forest: Forest, t: int, node: int = 0) -> dict:
    """Tree t as nested JSON: a leaf is {value}, a split {feature, threshold, left, right}."""
    feature = int(forest.feature[t, node])
    if feature < 0:
        return {"value": float(forest.value[t, node])}
    return {
        "feature": feature,
        "threshold": float(forest.threshold[t, node]),
        "left": tree_to_doc(forest, t, 2 * node + 1),
        "right": tree_to_doc(forest, t, 2 * node + 2),
    }


def tree_from_doc(doc: dict, forest: Forest, t: int, owner: str, n_features: int, node: int = 0) -> None:
    """Fill tree t of `forest` from the nested JSON `tree_to_doc` writes; splits read features 0..n_features-1."""
    if "value" in doc:
        forest.value[t, node] = float(doc["value"])
        return
    if 2 * node + 2 >= forest.feature.shape[1]:
        raise ValueError(f"model {owner}: tree {t} is deeper than max_depth {forest.max_depth}")
    feature = int(doc["feature"])
    if not 0 <= feature < n_features:
        raise ValueError(f"model {owner}: tree {t} splits on feature {feature}, outside 0..{n_features - 1}")
    forest.feature[t, node] = feature
    forest.threshold[t, node] = float(doc["threshold"])
    tree_from_doc(doc["left"], forest, t, owner, n_features, 2 * node + 1)
    tree_from_doc(doc["right"], forest, t, owner, n_features, 2 * node + 2)


@dataclass
class GBoostQRModel:
    levels: tuple[float, ...]
    hyper: GBoostHyper
    init: dict[float, float]
    trees: dict[float, Forest]
    train_loss: dict[float, list[float]] = field(default_factory=dict)


def fit_gboost(
    X: np.ndarray,
    y: np.ndarray,
    levels=DEFAULT_QUANTILES,
    hyper: GBoostHyper = GBoostHyper(),
    *,
    val: tuple[np.ndarray, np.ndarray] | None = None,
    patience: int = 10,
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
        forest = Forest.empty(hyper.n_trees, hyper.max_depth)
        loss_path = [float(np.mean(tilted_loss(q, y, pred)))]
        if val is not None:
            val_pred = np.full(len(val[1]), f0)
            best_val = float(np.mean(tilted_loss(q, val[1], val_pred)))
            best_stage, since_best = 0, 0
        for t in range(hyper.n_trees):
            residuals = y - pred
            gradient = np.where(residuals > 0, q, np.where(residuals < 0, q - 1.0, q))
            _grow_tree(X, gradient, residuals, q, 0, hyper.max_depth, forest, t)
            stage = forest[t : t + 1]
            pred = pred + hyper.learning_rate * stage.leaf_values(X)[0]
            loss_path.append(float(np.mean(tilted_loss(q, y, pred))))
            if val is not None:
                val_pred = val_pred + hyper.learning_rate * stage.leaf_values(val[0])[0]
                vloss = float(np.mean(tilted_loss(q, val[1], val_pred)))
                if vloss < best_val - 1e-12:
                    best_val, best_stage, since_best = vloss, t + 1, 0
                else:
                    since_best += 1
                    if since_best >= patience:
                        break
        if val is not None:
            forest = forest[:best_stage]
            loss_path = loss_path[: best_stage + 1]
        init[q] = f0
        forests[q] = forest
        losses[q] = loss_path
    return GBoostQRModel(tuple(float(q) for q in levels), hyper, init, forests, losses)


def gboost_raw_predict(model: GBoostQRModel, X: np.ndarray) -> dict[float, np.ndarray]:
    """Working-scale ensemble output per quantile level.

    The stages are added one after another along the tree axis, the fit's
    own order, so the training rows reproduce the fit's running values.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = {}
    for q in model.levels:
        stages = model.hyper.learning_rate * model.trees[q].leaf_values(X)
        start = np.full((1, len(X)), model.init[q])
        out[q] = np.cumsum(np.vstack([start, stages]), axis=0)[-1]
    return out
