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

from .config import GBoostHyper, field as doc_field, json_object, parse_float
from .qr import DEFAULT_QUANTILES, pinball_minimizing_constant, tilted_loss

log = logging.getLogger(__name__)


def _presort(keys: np.ndarray):
    """Each feature's stable row order, and where a key in that order repeats its predecessor.

    keys is (features, rows): the values, or anything that orders and ties
    the rows as the values do, such as their `_ranks`.
    """
    order = np.argsort(keys, axis=1, kind="stable")
    in_order = np.take_along_axis(keys, order, axis=1)
    return order, in_order[:, 1:] == in_order[:, :-1]


def _ranks(presorted) -> np.ndarray:
    """Each feature's dense value ranks, 0 for its least value, from `_presort` of the values.

    Equal values share a rank, so a stable sort of a node's ranks gives the
    order a stable sort of its values gives; up to 2**15 rows the ranks are
    int16, which numpy sorts stably by radix.
    """
    order, repeats = presorted
    ranks = np.zeros(order.shape, dtype=np.int16 if order.shape[1] <= 2**15 else np.intp)
    np.put_along_axis(ranks, order[:, 1:], np.cumsum(~repeats, axis=1), axis=1)
    return ranks


def _best_split(XT: np.ndarray, g: np.ndarray, presorted):
    """Axis-aligned split minimizing SSE of g; None when no split helps.

    XT holds the node's rows transposed, (features, rows).  Every feature is
    scanned at once, in the order `presorted` (`_presort` of XT or of its
    ranks) gives: one row-wise prefix sum (which adds in the same order as a
    per-feature cumsum) and one argmax per feature.  The features' best
    gains are then compared in feature order, and a later feature wins only
    by more than 1e-12.
    """
    n = len(g)
    order, repeats = presorted
    total = g.sum()
    base = total * total / n
    prefix = np.cumsum(g[order], axis=1)[:, :-1]
    n_left = np.arange(1, n)
    # prefix**2 / n_left + (total - prefix)**2 / (n - n_left) - base, the same operations in place
    gain = np.square(prefix)
    gain /= n_left
    right_term = total - prefix
    np.square(right_term, out=right_term)
    right_term /= n - n_left
    gain += right_term
    gain -= base
    np.copyto(gain, -np.inf, where=repeats)
    at = np.argmax(gain, axis=1)
    best_gain, best = -np.inf, None
    for j, feature_gain in enumerate(gain[np.arange(len(at)), at].tolist()):
        if feature_gain > best_gain + 1e-12:
            best_gain, best = feature_gain, j
    if best is None:
        return None
    left, right = order[best, : at[best] + 1], order[best, at[best] + 1 :]
    return best, 0.5 * (XT[best, left[-1]] + XT[best, right[0]]), left, right


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

    def leaf_values(self, X: np.ndarray, trees: np.ndarray | None = None) -> np.ndarray:
        """(rows, trees): each row's leaf value in every tree, or in the trees of its row of `trees`.

        All the trees are descended at once, over flat slots: node i of tree
        t is slot t * nodes + i.
        """
        trees = np.arange(len(self))[None, :] if trees is None else trees
        rows = np.arange(len(X))[:, None]
        root = trees * self.feature.shape[1]
        slot = np.broadcast_to(root, np.broadcast_shapes(rows.shape, root.shape))
        feature, threshold = self.feature.ravel(), self.threshold.ravel()
        for _ in range(self.max_depth):
            j = feature[slot]
            right = ~(X[rows, j] <= threshold[slot])
            slot = np.where(j >= 0, 2 * slot - root + 1 + right, slot)
        return self.value.ravel()[slot]


def _grow_tree(XT, ranks, g, residuals, q, depth, max_depth, forest: Forest, t: int, node: int = 0, presorted=None) -> None:
    """Fill tree t of `forest` from heap node `node` down.

    XT and ranks hold the node's rows transposed, the values and their
    `_ranks`.  A child sorts its own rows: they arrive in the parent's
    split order, so ties sort differently than in a filtered parent order
    and the prefix sums of the gradient would differ in the last bits.
    """
    split = None
    if depth < max_depth and len(g) >= 2:
        split = _best_split(XT, g, _presort(ranks) if presorted is None else presorted)
    if split is None:
        forest.value[t, node] = pinball_minimizing_constant(residuals, q)
        return
    j, thr, left_idx, right_idx = split
    forest.feature[t, node] = j
    forest.threshold[t, node] = thr
    for child, idx in ((2 * node + 1, left_idx), (2 * node + 2, right_idx)):
        _grow_tree(XT[:, idx], ranks[:, idx], g[idx], residuals[idx], q, depth + 1, max_depth, forest, t, child)


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


def tree_from_doc(doc: dict, forest: Forest, t: int, owner: str, n_features: int, path: str = "tree", node: int = 0):
    """Fill tree t of `forest` from the JSON `tree_to_doc` writes, rooted at field `path`; features 0..n_features-1."""
    json_object(doc, path)
    if "value" in doc:
        forest.value[t, node] = parse_float(doc["value"], f"{path}.value")
        return
    if 2 * node + 2 >= forest.feature.shape[1]:
        raise ValueError(f"model {owner}: tree {t} is deeper than max_depth {forest.max_depth}")
    feature = parse_float(doc_field(doc, f"{path}.feature"), f"{path}.feature")
    if not (feature.is_integer() and 0 <= feature < n_features):
        raise ValueError(f"model {owner}: tree {t} splits on feature {feature:g}, outside 0..{n_features - 1}")
    forest.feature[t, node] = feature
    forest.threshold[t, node] = parse_float(doc_field(doc, f"{path}.threshold"), f"{path}.threshold")
    for side, child in (("left", 2 * node + 1), ("right", 2 * node + 2)):
        tree_from_doc(doc_field(doc, f"{path}.{side}"), forest, t, owner, n_features, f"{path}.{side}", child)


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
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (rows, features), got shape {X.shape}")
    if y.shape != (len(X),):
        raise ValueError(f"y must hold one value per row of X: {len(X)} rows, y of shape {y.shape}")
    if len(X) == 0:
        raise ValueError("no training rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in training data")
    if val is not None:
        Xv, yv = (np.asarray(part, dtype=np.float64) for part in val)
        if Xv.ndim != 2 or Xv.shape[1] != X.shape[1] or yv.shape != (len(Xv),):
            raise ValueError(
                f"val must be {X.shape[1]}-feature rows with one y each: X of shape {Xv.shape}, y of shape {yv.shape}"
            )
        if len(Xv) == 0:
            raise ValueError("the validation set has no rows: early stopping needs at least one")
        if not (np.all(np.isfinite(Xv)) and np.all(np.isfinite(yv))):
            raise ValueError("non-finite values in validation data")
    XT =np.ascontiguousarray(X.T)
    # every tree's root holds all rows in the same order, so one sort serves them all
    root = _presort(XT)
    ranks = _ranks(root)

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
            _grow_tree(XT, ranks, gradient, residuals, q, 0, hyper.max_depth, forest, t, presorted=root)
            stage = forest[t : t + 1]
            pred = pred + hyper.learning_rate * stage.leaf_values(X)[:, 0]
            loss_path.append(float(np.mean(tilted_loss(q, y, pred))))
            if val is not None:
                val_pred = val_pred + hyper.learning_rate * stage.leaf_values(val[0])[:, 0]
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


@dataclass(frozen=True)
class StackedForests:
    """Several models' forests as one: model g's level l owns trees (g*L + l)*T .. (g*L + l + 1)*T - 1.

    L is the number of levels and T the most trees any (model, level) has;
    a shorter forest is padded with trees that are one leaf of value 0.
    """

    learning_rate: np.ndarray  # (models,)
    init: np.ndarray  # (models, levels)
    forest: Forest


def stack_gboost(models: list[GBoostQRModel], levels) -> StackedForests:
    """The models' forests at the given levels as one `StackedForests`, for `gboost_raw_predict`."""
    forests = [model.trees[q] for model in models for q in levels]
    width = max(len(f) for f in forests)
    stacked = Forest.empty(len(forests) * width, max(f.max_depth for f in forests))
    for i, f in enumerate(forests):
        # heap order: a shallower tree's nodes are the first slots of a deeper one's
        trees, nodes = slice(i * width, i * width + len(f)), slice(0, f.feature.shape[1])
        stacked.feature[trees, nodes] = f.feature
        stacked.threshold[trees, nodes] = f.threshold
        stacked.value[trees, nodes] = f.value
    learning_rate = np.array([model.hyper.learning_rate for model in models], dtype=np.float64)
    init = np.array([[model.init[q] for q in levels] for model in models], dtype=np.float64)
    return StackedForests(learning_rate, init, stacked)


_PREDICT_CELLS = 1 << 18  # (row, tree) cells descended at a time


def gboost_raw_predict(stack: StackedForests, group: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Working-scale ensemble outputs (rows, levels): row i by model group[i] of the stack.

    Every row descends its model's trees of all levels at once.  The stages
    are added one after another along the tree axis, the fit's own order,
    from the level's initial constant, so the training rows reproduce the
    fit's running values; a padding tree adds 0.0, which changes no sum.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    group = np.asarray(group, dtype=np.intp)
    n_levels = stack.init.shape[1]
    trees = np.arange(len(stack.forest) // len(stack.init))  # one model's trees, level after level
    out = np.empty((len(X), n_levels))
    step = max(1, _PREDICT_CELLS // max(len(trees), 1))
    for a in range(0, len(X), step):
        g = group[a : a + step]
        leaves = stack.forest.leaf_values(X[a : a + step], g[:, None] * len(trees) + trees)
        stages = stack.learning_rate[g, None, None] * leaves.reshape(len(g), n_levels, -1)
        out[a : a + step] = np.cumsum(np.concatenate([stack.init[g, :, None], stages], axis=2), axis=2)[:, :, -1]
    return out
