"""Slow references for the boosted trees: JSON trees walked node by node, and a per-feature split search.

`reference_raw_predict` is `boosting.gboost_raw_predict` over nested JSON.
`reference_gboost_raw_predict` is it for one model, as the library
predicted each pair before the models were stacked: a level at a time, its
stages added along the tree axis from the level's initial constant.

A tree document is what `model.json` stores: a leaf is {"value"}, a split is
{"feature", "threshold", "left", "right"}, and a row goes left when its
feature is <= the threshold.  The stages are added one at a time, as the fit
adds them.

`reference_best_split` is the exact split search one feature at a time:
each feature sorts the node's rows (row-major X) on its own, and a later
feature wins only by more than 1e-12.  `reference_grow_tree` grows a tree
with it and the enumerated leaf rule, each node holding its own rows in
the order its parent's split sorted them.

`per_level_grow_stage` is the library's growth before the levels of a
stage grew together: each level's tree grown alone, node by node
(`per_level_grow_tree`), each node screening its features by its own
histograms over the fit's `boosting._Bins` (`per_level_split`) and taking
its leaf value from `qr.pinball_minimizing_constant` alone.
"""

import numpy as np

from drtopt.qr import pinball_minimizing_constant
from reference_qr import reference_pinball_constant

_U = 2.0**-53  # unit roundoff of float64
_SCREENED_ROWS = 2**22  # the most rows of a node whose features `per_level_split` screens


def walk(tree: dict, x) -> float:
    while "value" not in tree:
        tree = tree["left"] if x[tree["feature"]] <= tree["threshold"] else tree["right"]
    return tree["value"]


def reference_raw_predict(doc: dict, learning_rate: float, X) -> dict[float, np.ndarray]:
    """Per-level output of one gboost model document ({"init", "trees"}, keyed by level text)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = {}
    for level, init in doc["init"].items():
        pred = np.full(len(X), init)
        for tree in doc["trees"][level]:
            pred = pred + learning_rate * np.array([walk(tree, x) for x in X])
        out[float(level)] = pred
    return out


def reference_gboost_raw_predict(model, X) -> dict[float, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = {}
    for q in model.levels:
        stages = model.hyper.learning_rate * model.trees[q].leaf_values(X).T
        start = np.full((1, len(X)), model.init[q])
        out[q] = np.cumsum(np.vstack([start, stages]), axis=0)[-1]
    return out


def reference_best_split(X, g):
    """(feature, threshold, left rows, right rows) minimizing the SSE of g; None when no split helps."""
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


def reference_grow_tree(X, g, residuals, q, depth, max_depth, forest, t: int, node: int = 0) -> None:
    """Fill tree t of a `boosting.Forest` from heap node `node` down; X, g and residuals are the node's rows."""
    split = reference_best_split(X, g) if depth < max_depth and len(g) >= 2 else None
    if split is None:
        forest.value[t, node] = reference_pinball_constant(residuals, q)
        return
    j, threshold, left, right = split
    forest.feature[t, node], forest.threshold[t, node] = j, threshold
    for child, idx in ((2 * node + 1, left), (2 * node + 2, right)):
        reference_grow_tree(X[idx], g[idx], residuals[idx], q, depth + 1, max_depth, forest, t, child)


def histogram(bins, rows):
    return np.bincount(bins.keys[:, rows].ravel(), minlength=len(bins.root))


def counts(bins, rows, g, every=None):
    """The rows' histograms: of all of them (`every`, when already known) and of those whose g is q - 1.

    The second is counted over whichever gradient class holds fewer of the
    rows, the other class's count being every row's less it.
    """
    every = histogram(bins, rows) if every is None else every
    below = g[rows] < 0
    if 2 * np.count_nonzero(below) <= len(rows):
        return every, histogram(bins, rows[below])
    return every, every - histogram(bins, rows[~below])


def per_level_screen(bins, m, g, q, node_counts):
    """The features a node's float scan runs: the screen of `boosting._split_search`, over the node's occupied bins."""
    n_every, n_below = node_counts
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


def per_level_split(bins, rows, g, q, node_counts):
    """(feature, threshold, left rows, right rows) of one node, or None; `node_counts` None scans every feature.

    `rows` are the node's rows in arrival order and g their gradients in
    that order; the kept features run the per-feature scan together.
    """
    m = len(rows)
    kept = np.arange(len(bins.ranks)) if node_counts is None else per_level_screen(bins, m, g, q, node_counts)
    if not len(kept):
        return None
    ranks = bins.ranks[kept[:, None], rows]
    order = np.argsort(ranks, axis=1, kind="stable")
    total = g.sum()
    prefix = np.cumsum(g[order], axis=1)[:, :-1]
    k = np.arange(1, m)
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


def per_level_grow_tree(bins, g, residuals, q, max_depth, forest, t, rows, node_counts, depth=0, node=0) -> None:
    """Fill tree t of `forest` from heap node `node` down, one node at a time.

    Of two children only the smaller is counted; the larger's histograms
    are the parent's less the smaller's.
    """
    split = None
    if depth < max_depth and len(rows) >= 2:
        split = per_level_split(bins, rows, g[rows], q, node_counts)
    if split is None:
        forest.value[t, node] = pinball_minimizing_constant(residuals[rows], q)
        return
    j, thr, left, right = split
    forest.feature[t, node] = j
    forest.threshold[t, node] = thr
    sides = [None, None]
    small = int(len(right) < len(left))  # the smaller side, left on a tie
    if depth + 1 < max_depth and bins.pays(len((left, right)[1 - small])):
        part = counts(bins, (left, right)[small], g)
        sides[1 - small] = tuple(whole - each for whole, each in zip(node_counts, part))
        if bins.pays(len((left, right)[small])):
            sides[small] = part
    for child, child_rows, child_counts in zip((2 * node + 1, 2 * node + 2), (left, right), sides):
        per_level_grow_tree(bins, g, residuals, q, max_depth, forest, t, child_rows, child_counts, depth + 1, child)


def per_level_grow_stage(bins, q, g, residuals, max_depth, forest, trees, below_counts, signed_zeros):
    """`boosting._grow_stage` a level at a time by `per_level_grow_tree`."""
    rows = np.arange(g.shape[1])
    for level, (q_level, t) in enumerate(zip(q.tolist(), trees.tolist())):
        root = counts(bins, rows, g[level], bins.root) if bins.pays(len(rows)) else None
        per_level_grow_tree(bins, g[level], residuals[level], q_level, max_depth, forest, t, rows, root)


def reference_grow_stage(bins, q, g, residuals, max_depth, forest, trees, below_counts, signed_zeros):
    """`boosting._grow_stage` a level at a time by `reference_grow_tree`."""
    X = bins.XT.T
    for level, (q_level, t) in enumerate(zip(q.tolist(), trees.tolist())):
        reference_grow_tree(X, g[level], residuals[level], q_level, 0, max_depth, forest, t)
