"""Per-pair piecewise-linear forecast CDF, the reference for the batched marginals.

`copula.sample_joint` builds every pair's knots as one array
(`copula.marginal_knots`) and inverts all pairs at once
(`copula.marginal_inverse`); this is the one-pair form it replaced, with a
CDF the tests use to check the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from drtopt.qr import QuantileForecast


@dataclass
class EmpiricalCDF:
    """A piecewise-linear CDF through (value, level) knots."""

    values: np.ndarray  # non-decreasing
    levels: np.ndarray  # strictly increasing, ends at 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.levels = np.asarray(self.levels, dtype=np.float64)
        if len(self.values) != len(self.levels) or len(self.values) == 0:
            raise ValueError("values and levels must be non-empty and aligned")
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.levels))):
            raise ValueError(f"knots must be finite, got values {self.values.tolist()}")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("knot values must be non-decreasing")
        if np.any(np.diff(self.levels) <= 0):
            raise ValueError("knot levels must be strictly increasing")

    def cdf(self, x):
        """Right-continuous CDF value; zero-width segments appear as jumps."""
        x = np.asarray(x, dtype=np.float64)
        v, q = self.values, self.levels
        flat_x = np.atleast_1d(x)
        # last knot with value <= x: the highest level at a repeated value,
        # making jumps right-continuous; the clip only guards lanes outside
        # the knots, which the outer branches overwrite
        j = np.clip(np.searchsorted(v, flat_x, side="right") - 1, 0, len(v) - 1)
        nxt = np.minimum(j + 1, len(v) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = q[j] + (flat_x - v[j]) / (v[nxt] - v[j]) * (q[nxt] - q[j])
        inner = np.where(v[j] == flat_x, q[j], inner)
        flat = np.where(flat_x < v[0], 0.0, np.where(flat_x >= v[-1], 1.0, inner))
        return float(flat[0]) if np.ndim(x) == 0 else flat

    def inverse(self, u):
        """Generalized inverse; a level range inside a jump maps to the jump value."""
        u = np.asarray(u, dtype=np.float64)
        v, q = self.values, self.levels
        flat_u = np.atleast_1d(u)
        j = np.clip(np.searchsorted(q, flat_u, side="left"), 1, len(q) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            # zero width (v[j] == v[j - 1]): stays at the jump
            inner = v[j - 1] + (flat_u - q[j - 1]) / (q[j] - q[j - 1]) * (v[j] - v[j - 1])
        flat = np.where(flat_u <= q[0], v[0], np.where(flat_u >= q[-1], v[-1], inner))
        return float(flat[0]) if np.ndim(u) == 0 else flat


def ecdf_from_forecast(forecast: QuantileForecast | dict[float, float]) -> EmpiricalCDF:
    """Piecewise-linear CDF through forecast quantiles with synthetic endpoints.

    The lower endpoint is (0, 0); the upper endpoint places level 1 at the top
    quantile plus the bottom quantile.  Equal-valued knots collapse into jumps;
    an all-zero forecast degenerates to a point mass at zero.
    """
    values_map = forecast.values if isinstance(forecast, QuantileForecast) else forecast
    levels = sorted(values_map)
    knot_v = [0.0] + [float(values_map[q]) for q in levels]
    knot_q = [0.0] + [float(q) for q in levels]
    top = knot_v[-1] + float(values_map[levels[0]])
    knot_v.append(top)
    knot_q.append(1.0)

    if any(b < a for a, b in zip(knot_v, knot_v[1:])):
        raise ValueError("forecast quantiles must be non-decreasing to form a CDF")
    # zero-width segments are kept: they are probability jumps (an all-equal
    # forecast concentrates the inter-quantile mass at that single value)
    return EmpiricalCDF(knot_v, knot_q)
