"""Slow reference for `boosting.gboost_raw_predict`: nested JSON trees walked node by node.

A tree document is what `model.json` stores: a leaf is {"value"}, a split is
{"feature", "threshold", "left", "right"}, and a row goes left when its
feature is <= the threshold.  The stages are added one at a time, as the fit
adds them.
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
