"""Slow references for the boosted trees: JSON trees walked node by node, and a per-feature split search.

`reference_raw_predict` is `boosting.gboost_raw_predict` over nested JSON.
`reference_gboost_raw_predict` is it for one model, as the library
predicted each pair before the models were stacked: a level at a time, its
stages added along the tree axis from the level's initial constant.

A tree document is what `model.json` stores: a leaf is {"value"}, a split is
{"feature", "threshold", "left", "right"}, and a row goes left when its
feature is <= the threshold.  The stages are added one at a time, as the fit
adds them.

`reference_best_split` is `boosting._best_split` one feature at a time:
each feature sorts the node's rows (row-major X) on its own, and a later
feature wins only by more than 1e-12.
"""

import numpy as np


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
