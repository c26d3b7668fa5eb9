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


@dataclass(frozen=True)
class _Bins:
    """A fit's rows binned once, for every node of every tree: each feature's dense value ranks.

    Rank 0 is a feature's least value and equal values share a rank, so a
    stable sort of a node's ranks gives the order a stable sort of its
    values gives; up to 2**15 rows the ranks are int16, which numpy sorts
    stably by radix.  A feature's bins follow those of the features before
    it, one per rank, so a node's histograms, counts of its rows per bin,
    hold one cell per distinct (feature, value) of the fit; `root` holds
    every row's, the same at every tree's root.
    """

    XT: np.ndarray  # (features, rows): the values
    ranks: np.ndarray  # (features, rows)
    keys: np.ndarray  # (features, rows): each row's bin, its rank plus the earlier features' bins
    feature: np.ndarray  # (bins,): each bin's feature
    root: np.ndarray  # (bins,)

    @classmethod
    def of(cls, XT: np.ndarray) -> "_Bins":
        order = np.argsort(XT, axis=1, kind="stable")
        in_order = np.take_along_axis(XT, order, axis=1)
        ranks = np.zeros(order.shape, dtype=np.int16 if order.shape[1] <= 2**15 else np.intp)
        np.put_along_axis(ranks, order[:, 1:], np.cumsum(in_order[:, 1:] != in_order[:, :-1], axis=1), axis=1)
        sizes = ranks.max(axis=1, initial=0).astype(np.intp) + 1
        keys = ranks + (np.cumsum(sizes) - sizes)[:, None]
        root = np.bincount(keys.ravel(), minlength=int(sizes.sum()))
        return cls(XT, ranks, keys, np.repeat(np.arange(len(XT)), sizes), root)

    def pays(self, m: int) -> bool:
        """Whether a node of m rows is screened by histograms: when they hold no more bins than it has (feature, row)s."""
        return len(self.root) <= len(self.ranks) * m

    def histogram(self, rows: np.ndarray) -> np.ndarray:
        return np.bincount(self.keys[:, rows].ravel(), minlength=len(self.root))

    def counts(self, rows: np.ndarray, g: np.ndarray, every: np.ndarray | None = None):
        """The rows' histograms: of all of them (`every`, when already known) and of those whose g is q - 1.

        The second is counted over whichever gradient class holds fewer of
        the rows, the other class's count being every row's less it.
        """
        every = self.histogram(rows) if every is None else every
        below = g[rows] < 0
        if 2 * np.count_nonzero(below) <= len(rows):
            return every, self.histogram(rows[below])
        return every, every - self.histogram(rows[~below])


_U = 2.0**-53  # unit roundoff of float64
_SCREENED_ROWS = 2**22  # the most rows of a node whose features `_split` screens


def _split(bins: _Bins, rows: np.ndarray, g: np.ndarray, q: float, counts):
    """Axis-aligned split of a node minimizing the SSE of g; None when no split helps.

    `rows` are the node's rows in arrival order, g their gradient (q or
    q - 1) in that order and `counts` their `_Bins.counts`, or None when
    every feature is to run the float scan.  The result is
    (feature, threshold, left rows, right rows), each side in the node's
    stable order of the feature's values: what the per-feature scan of
    `tests/reference_trees.py` gives.  There, feature j's best gain F_j is
    the greatest over its cuts between distinct values of
        p**2 / k + (t - p)**2 / (m - k) - t**2 / m,
    with k rows left of the cut, m in the node, p a float `cumsum` of g in
    the node's stable order of j and t = `g.sum()`; the features are then
    compared in order, and a later one takes the lead only by more than
    1e-12.

    The gradient takes two values, so a cut's exact sums follow from two
    counts: with n rows left of the cut, c of them at q - 1, and C of the
    m at q - 1, P = q*n - c and T = q*m - C.  Cumulative sums of the
    node's histograms give (n, c) at every cut of every feature at once,
    and G_j, the greatest gain over j's cuts evaluated at (P, T), screens
    the features (`_screen`).  A node whose histograms would hold more
    bins than it has (feature, row) cells is not screened (`_Bins.pays`):
    scanning its bins would cost more than the float scan of every feature.

    G_j is within delta = 16*m**2*u + 64*m*u of F_j, u = 2**-53, for m up
    to `_SCREENED_ROWS`.  Both are maxima over the same cuts, so it is
    enough that each cut's two values lie within delta of the gain at the
    exact sums (p, t).  A float sum of k terms of magnitude at most 1 is
    within 1.01*k**2*u of exact in any order, so p and t are within
    1.01*m**2*u; P and T are within 2.51*m*u (one rounding each in q*n and
    in the subtraction, and at most u/2 per row in the float q - 1).  The
    gain's partial derivatives in p and t are at most 4.04 in magnitude
    there (|p| <= k and |t - p| <= m - k up to those errors), and each of
    its nine roundings errs by at most u times a magnitude of 1.03*m, the
    one in t - p twice over once squared.  So F_j is within 8.17*m**2*u +
    10.3*m*u of the exact gain and G_j within 30.6*m*u, which leaves more
    than 23*m*u for the rounding of the screen's own comparisons, each at
    most 1.1*m*u.

    With the window w = 2*delta + 4e-12, the screen keeps feature s, the
    last one whose G_s exceeds every earlier G by more than w, and each
    later feature whose G is within w of G_s.  F_s then exceeds every
    earlier F by more than 4e-12, so s takes the lead whatever leads before
    it: no earlier feature wins, and none changes what follows s.  A later
    feature j outside the window has F_j <= G_j + delta <= G_s - delta -
    4e-12 < F_s, and the lead after s is at least F_s, so j never takes it.
    The kept features then run the per-feature scan itself from the node's
    rows in arrival order: a stable argsort of each one's ranks, a float
    `cumsum` of g in that order and the same in-place gain operations, so
    the winner, its cut and both sides' rows are the scan's.
    """
    m = len(rows)
    kept = np.arange(len(bins.ranks))
    if counts is not None:
        kept = _screen(bins, m, g, q, counts)
    if not len(kept):
        return None
    ranks = bins.ranks[kept[:, None], rows]
    order = np.argsort(ranks, axis=1, kind="stable")
    total = g.sum()
    prefix = np.cumsum(g[order], axis=1)[:, :-1]  # adds as a per-feature cumsum does
    k = np.arange(1, m)
    # prefix**2 / k + (total - prefix)**2 / (m - k) - total**2 / m, the same operations in place
    gain = np.square(prefix)
    gain /= k
    right_term = total - prefix
    np.square(right_term, out=right_term)
    right_term /= m - k
    gain += right_term
    gain -= total * total / m
    in_order = np.take_along_axis(ranks, order, axis=1)
    np.copyto(gain, -np.inf, where=in_order[:, 1:] == in_order[:, :-1])
    at = np.argmax(gain, axis=1)
    best_gain, found = -np.inf, None
    for i, feature_gain in enumerate(gain[np.arange(len(kept)), at].tolist()):
        if feature_gain > best_gain + 1e-12:
            best_gain, found = feature_gain, i
    if found is None:  # no feature has a cut
        return None
    j, order, at = int(kept[found]), order[found], at[found]
    left, right = rows[order[: at + 1]], rows[order[at + 1 :]]
    return j, 0.5 * (bins.XT[j, left[-1]] + bins.XT[j, right[0]]), left, right


def _screen(bins: _Bins, m: int, g: np.ndarray, q: float, counts) -> np.ndarray:
    """The features a node's float scan must run, by `_split`'s screen, from the node's histograms."""
    n_every, n_below = counts
    # the bins holding some of the rows, feature by feature: as each feature's bins hold all
    # m rows and all C of those at q - 1, running sums less m or C per earlier feature give
    # the rows at or below each bin
    present = np.flatnonzero(n_every)
    feature = bins.feature[present]
    n = np.cumsum(n_every[present]) - m * feature
    C = np.count_nonzero(g < 0)
    c = np.cumsum(n_below[present]) - C * feature
    last = n == m  # a feature's greatest value: no cut after it
    P, T = q * n - c, q * m - C
    screen = P * P / n + (T - P) ** 2 / np.maximum(m - n, 1) - T * T / m
    screen[last] = -np.inf
    best = np.maximum.reduceat(screen, np.flatnonzero(np.concatenate(([True], last[:-1]))))  # per feature
    kept = np.flatnonzero(best > -np.inf)  # the features with a cut
    if len(kept) and m <= _SCREENED_ROWS:
        window = 2.0 * (16.0 * m + 64.0) * m * _U + 4e-12
        earlier = np.concatenate(([-np.inf], np.maximum.accumulate(best)[:-1]))
        s = np.flatnonzero(best > earlier + window)[-1]
        kept = kept[(kept >= s) & (best[kept] > best[s] - window)]
    return kept


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


def _grow_tree(bins: _Bins, g, residuals, q, max_depth, forest: Forest, t: int, rows, counts, depth=0, node=0) -> None:
    """Fill tree t of `forest` from heap node `node` down.

    g and residuals are the fit's, one per row; rows are the node's in
    arrival order (the parent's stable order of its split feature) and
    counts their `_Bins.counts`, None below the last level that splits and
    where histograms do not pay.  Of two children only the smaller is
    counted; the larger's counts are the parent's less the smaller's.
    """
    split = None
    if depth < max_depth and len(rows) >= 2:
        split = _split(bins, rows, g[rows], q, counts)
    if split is None:
        forest.value[t, node] = pinball_minimizing_constant(residuals[rows], q)
        return
    j, thr, left, right = split
    forest.feature[t, node] = j
    forest.threshold[t, node] = thr
    sides = [None, None]
    small = int(len(right) < len(left))  # the smaller side, left on a tie
    if depth + 1 < max_depth and bins.pays(len((left, right)[1 - small])):
        part = bins.counts((left, right)[small], g)
        sides[1 - small] = tuple(whole - each for whole, each in zip(counts, part))
        if bins.pays(len((left, right)[small])):
            sides[small] = part
    for child, child_rows, child_counts in zip((2 * node + 1, 2 * node + 2), (left, right), sides):
        _grow_tree(bins, g, residuals, q, max_depth, forest, t, child_rows, child_counts, depth + 1, child)


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
    if X.shape[1] == 0:
        raise ValueError("X has no feature columns: a tree needs one to split on")
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
    # every tree's root holds all rows in the same order, so one sort bins them for the whole fit
    bins = _Bins.of(np.ascontiguousarray(X.T))
    rows = np.arange(len(X))

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
            counts = bins.counts(rows, gradient, bins.root) if bins.pays(len(rows)) else None
            _grow_tree(bins, gradient, residuals, q, hyper.max_depth, forest, t, rows, counts)
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
