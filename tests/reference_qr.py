"""Slow reference for `qr.fit_lqr`: the primal pinball-loss LP.

`reference_pinball_lp` is the formulation that the dual LP replaced:
min q*1'u + (1-q)*1'v over (beta, u, v) subject to X beta + u - v = y and
u, v >= 0, with p + 2n variables and n equality rows.  Both are exact, so
their pinball losses agree to LP tolerance; their coefficients agree only
where the minimizer is unique.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def reference_pinball_lp(X: np.ndarray, y: np.ndarray, q: float) -> np.ndarray:
    n, p = X.shape
    A = sparse.hstack(
        [sparse.csr_matrix(X), sparse.identity(n, format="csr"), -sparse.identity(n, format="csr")],
        format="csc",
    )
    c = np.concatenate([np.zeros(p), np.full(n, q / n), np.full(n, (1.0 - q) / n)])
    bounds = [(None, None)] * p + [(0, None)] * (2 * n)
    res = linprog(c, A_eq=A, b_eq=y, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference quantile LP failed at q={q}: {res.message}")
    return res.x[:p].copy()
