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
from .qr import DEFAULT_QUANTILES, _pinball, pinball_minimizing_constant

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
    first: np.ndarray  # (features,): each feature's first bin
    root: np.ndarray  # (bins,)
    order: np.ndarray  # (features, rows): the rows in each feature's stable order, in the dtype of the ranks
    tied: np.ndarray  # (features, rows - 1): whether the rows either side of each cut of that order tie

    @classmethod
    def of(cls, XT: np.ndarray) -> "_Bins":
        order = np.argsort(XT, axis=1, kind="stable")
        in_order = np.take_along_axis(XT, order, axis=1)
        tied = in_order[:, 1:] == in_order[:, :-1]
        ranks = np.zeros(order.shape, dtype=np.int16 if order.shape[1] <= 2**15 else np.intp)
        ranks[np.arange(len(XT))[:, None], order[:, 1:]] = np.cumsum(~tied, axis=1)
        sizes = ranks.max(axis=1, initial=0).astype(np.intp) + 1
        first = np.cumsum(sizes) - sizes
        keys = ranks + first[:, None]
        root = np.bincount(keys.ravel(), minlength=int(sizes.sum()))
        feature = np.repeat(np.arange(len(XT)), sizes)
        return cls(XT, ranks, keys, feature, first, root, order.astype(ranks.dtype), tied)

    def pays(self, m):
        """Whether a node of m rows is screened by histograms: when they hold no more bins than it has (feature, row)s."""
        return len(self.root) <= len(self.ranks) * m


_U = 2.0**-53  # unit roundoff of float64
_SCREENED_ROWS = 2**22  # the most rows of a node whose features `_split_search` screens
_CELLS = 1 << 14  # the most cells one batched step of a stage's growth gathers at a time
_COUNTS_BYTES = 1 << 22  # bytes of histograms the levels growing together may hold at one depth, one level at least
_PADDED_CELLS = 2048  # the most padding cells a node adds to a chunk of the float scan


def _chunks(cells: np.ndarray) -> list[slice]:
    """Runs of consecutive items holding at most `_CELLS` cells together, or one item that alone holds more."""
    bounds, held = [0], 0
    for i, c in enumerate(cells.tolist()):
        if held + c > _CELLS and i > bounds[-1]:
            bounds.append(i)
            held = 0
        held += c
    bounds.append(len(cells))
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _below_counts(bins: _Bins, below: np.ndarray, before=None) -> np.ndarray:
    """(levels, bins): per level, the histogram of all rows whose g is q - 1 (`below`, (levels, rows)).

    `before` is (below, counts) of the same levels a stage earlier, or None;
    then only the rows that changed gradient class are counted, else, per
    level, whichever class holds fewer rows, the other class being every
    row's counts less it.
    """
    levels, n = below.shape
    bins_n = len(bins.root)
    if before is not None:
        was, counts = before
        level, rows = np.nonzero(below != was)
        keys = bins.keys[:, rows] + (2 * level + below[level, rows]) * bins_n
        change = np.bincount(keys.ravel(), minlength=2 * levels * bins_n).reshape(levels, 2, bins_n)
        return counts + change[:, 1] - change[:, 0]
    smaller = 2 * np.count_nonzero(below, axis=1) <= n  # whether q - 1's class is counted
    counted = below == smaller[:, None]
    counts = np.empty((levels, bins_n), dtype=np.intp)
    for part in _chunks(np.count_nonzero(counted, axis=1) * len(bins.ranks)):
        level, rows = np.nonzero(counted[part])
        keys = bins.keys[:, rows] + level * bins_n
        counts[part] = np.bincount(keys.ravel(), minlength=(part.stop - part.start) * bins_n).reshape(-1, bins_n)
    np.subtract(bins.root, counts, out=counts, where=~smaller[:, None])
    return counts


@dataclass(frozen=True)
class _Nodes:
    """The nodes of one depth of a stage's trees, over every level grown in the stage.

    Node i belongs to level `level[i]`, a row of the stage's g and residuals,
    at heap slot `heap[i]` of that level's tree.  Its `sizes[i]` rows are
    the i-th run of `rows`, in arrival order: the stable order of its
    parent's split feature, or 0..n-1 at the root.  The nodes marked
    `screened`, those that may split and that histograms pay for, have
    histograms, (screened nodes, bins) arrays in node order: `every` of all
    their rows and `below` of those whose g is q - 1.
    """

    level: np.ndarray
    heap: np.ndarray
    sizes: np.ndarray
    rows: np.ndarray
    screened: np.ndarray
    every: np.ndarray
    below: np.ndarray

    @property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.sizes) - self.sizes


def _root(bins: _Bins, levels: int, n: int, below_counts: np.ndarray | None) -> _Nodes:
    """Every level's root: all the rows in order, screened when `below_counts` ((levels, bins)) are given."""
    screened = np.full(levels, below_counts is not None)
    every = below = np.empty((0, len(bins.root)), dtype=np.intp)
    if below_counts is not None:
        every, below = np.broadcast_to(bins.root, below_counts.shape), below_counts
    rows = np.tile(np.arange(n), levels)
    return _Nodes(np.arange(levels), np.zeros(levels, dtype=np.intp), np.full(levels, n), rows, screened, every, below)


def _children(bins: _Bins, g: np.ndarray, nodes: _Nodes, feature, cut, rows, counted: bool) -> _Nodes:
    """The next depth: each split node's left then right child, both in the order of the split.

    `rows` are the nodes' rows as `_split_search` left them.  When
    `counted`, the children get histograms where they pay.  Of two
    children only the smaller is counted (the left on a tie), by one
    `np.bincount` over (child, bin) keys per chunk of children and one over
    their rows at q - 1; the larger's are the parent's less the smaller's.
    """
    split = feature >= 0
    sizes = np.column_stack((cut[split], nodes.sizes[split] - cut[split])).ravel()
    heap = 2 * nodes.heap[split]
    level = np.repeat(nodes.level[split], 2)
    rows = rows[np.repeat(split, nodes.sizes)]
    screened = np.asarray(bins.pays(sizes)) & counted
    bins_n = len(bins.root)
    every, below = (np.empty((np.count_nonzero(screened), bins_n), dtype=np.intp) for _ in range(2))
    if screened.any():
        small = (sizes[1::2] < sizes[::2]).astype(np.intp)
        parent = np.flatnonzero(screened[2 * np.arange(len(small)) + 1 - small])  # whose larger child is screened
        small_child = 2 * parent + small[parent]
        in_small = np.zeros(len(sizes), dtype=bool)
        in_small[small_child] = True
        small_sizes = sizes[small_child]
        small_rows, small_starts = rows[np.repeat(in_small, sizes)], np.cumsum(small_sizes) - small_sizes
        small_every, small_below = (np.empty((len(small_child), bins_n), dtype=np.intp) for _ in range(2))
        for part in _chunks(np.maximum(small_sizes * len(bins.ranks), 2 * bins_n)):
            m = small_sizes[part]
            at = small_rows[small_starts[part.start] : small_starts[part.start] + m.sum()]
            keys = np.take(bins.keys, at, axis=1)
            if len(m) > 1:
                keys = keys + np.repeat(np.arange(len(m)) * bins_n, m)
            small_every[part] = np.bincount(keys.ravel(), minlength=len(m) * bins_n).reshape(len(m), bins_n)
            keys = keys[:, g[np.repeat(level[small_child[part]], m), at] < 0]
            small_below[part] = np.bincount(keys.ravel(), minlength=len(m) * bins_n).reshape(len(m), bins_n)
        rank = np.cumsum(screened) - 1
        of_parent = (np.cumsum(nodes.screened) - 1)[np.flatnonzero(split)[parent]]
        large = rank[small_child + 1 - 2 * small[parent]]
        every[large], below[large] = nodes.every[of_parent] - small_every, nodes.below[of_parent] - small_below
        own = screened[small_child]
        every[rank[small_child[own]]], below[rank[small_child[own]]] = small_every[own], small_below[own]
    heap = np.column_stack((heap + 1, heap + 2)).ravel()
    return _Nodes(level, heap, sizes, rows, screened, every, below)


def _split_search(bins: _Bins, q: np.ndarray, g: np.ndarray, nodes: _Nodes):
    """Each node's axis-aligned split minimizing the SSE of its g, all nodes at once.

    q holds the levels and g (levels, rows) their gradients (q or q - 1).
    The result is (feature, threshold, cut, rows): per node the split's
    feature, -1 where no split helps or the node has fewer than 2 rows, its
    threshold, and the rows left of it; `rows` is `nodes.rows` with each
    split node's run in the node's stable order of the split feature, so
    that its first `cut` rows go left.  That is the split of the
    per-feature scan of `tests/reference_trees.py`.  There, feature j's
    best gain F_j is the greatest over its cuts between distinct values of
        p**2 / k + (t - p)**2 / (m - k) - t**2 / m,
    with k rows left of the cut, m in the node, p a float `cumsum` of g in
    the node's stable order of j and t = `g.sum()` over the node's rows in
    arrival order; the features are then compared in order, and a later one
    takes the lead only by more than 1e-12.

    The gradient takes two values, so a cut's exact sums follow from two
    counts: with n rows left of the cut, c of them at q - 1, and C of the
    m at q - 1, P = q*n - c and T = q*m - C.  Cumulative sums of a node's
    histograms give (n, c) at every cut of every feature at once, and G_j,
    the greatest gain over j's cuts evaluated at (P, T), screens the
    features (`_screen`).  A node whose histograms would hold more bins than
    it has (feature, row) cells is not screened (`_Bins.pays`): scanning
    its bins would cost more than the float scan of every feature.

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

    The kept features of all the nodes then run the per-feature scan
    itself, together (`_scan`), in chunks of nodes of about one size.
    """
    sizes, starts = nodes.sizes, nodes.starts
    kept = np.zeros((len(sizes), len(bins.ranks)), dtype=bool)
    kept[~nodes.screened & (sizes >= 2)] = True
    screened = np.flatnonzero(nodes.screened)
    for part in _chunks(np.full(len(screened), len(bins.root))):
        at = screened[part]
        kept[at] = _screen(bins, q[nodes.level[at]], sizes[at], nodes.every[part], nodes.below[part])
    kept[sizes < 2] = False
    out = np.full(len(sizes), -1), np.zeros(len(sizes)), np.zeros(len(sizes), dtype=np.intp), nodes.rows.copy()
    # the nodes that scan some feature, largest first: a chunk pads its rows to its first node's size
    order = np.argsort(-sizes, kind="stable")
    order = order[kept[order].any(axis=1)]
    n_kept = np.count_nonzero(kept[order], axis=1).tolist()
    n_rows = sizes[order].tolist()
    first = 0
    while first < len(order):
        width, last, held = n_rows[first], first, 0
        while last < len(order) and (
            last == first
            or ((held + n_kept[last]) * width <= _CELLS and n_kept[last] * (width - n_rows[last]) <= _PADDED_CELLS)
        ):
            held += n_kept[last]
            last += 1
        _scan(bins, g, nodes, starts, kept, order[first:last], out)
        first = last
    return out


def _scan(bins: _Bins, g: np.ndarray, nodes: _Nodes, starts, kept, chunk, out):
    """The per-feature float scan of the kept features of the nodes `chunk`, largest first, into `out`.

    Each (node, feature) is one row of a (pairs, width) array, padded past
    the node's own rows: pad ranks sort last, so each row's stable argsort
    puts the node's rows in the node's stable order of the feature, and pad
    gradients are 0, so the row-wise `cumsum` leaves every real prefix as
    it is.  Each node's t is `g.sum()` over its own rows, reduced row-wise
    over nodes of equal size, which adds as the 1-D reduce of each row does.
    The gains take the per-feature scan's operations, in place, and are
    -inf at ties and in the padding.
    """
    feature, threshold, cut, rows = out
    sizes = nodes.sizes[chunk]
    width = sizes[0]
    column, k = np.arange(width), np.arange(1, width)
    pair, j = np.nonzero(kept[chunk])  # node after node, each node's features in order
    if nodes.heap[chunk[0]] == 0:  # roots: all the rows in order, whose stable order of each feature is known
        order = bins.order[j]
        prefix = np.cumsum(np.take(g, (nodes.level[chunk][pair] * width)[:, None] + order), axis=1)[:, :-1]
        total = g[nodes.level[chunk]].sum(axis=1)
        no_cut = bins.tied[j]
        node_rows, real, padded = None, np.ones((len(chunk), width), dtype=bool), False
    else:
        real = column < sizes[:, None]
        padded = sizes[-1] < width
        node_rows = nodes.rows[np.where(real, starts[chunk][:, None] + column, 0)]
        gv = np.take(g, (nodes.level[chunk] * g.shape[1])[:, None] + node_rows)
        gv[~real] = 0.0
        total = np.empty(len(chunk))
        bounds = np.flatnonzero(sizes[1:] != sizes[:-1]) + 1
        for a, b in zip([0, *bounds.tolist()], [*bounds.tolist(), len(chunk)]):
            total[a:b] = gv[a:b, : sizes[a]].sum(axis=1)
        # flat takes: a 2-D fancy index gathers several times slower
        ranks = np.take(bins.ranks, (j * bins.ranks.shape[1])[:, None] + node_rows[pair])
        if padded:
            np.copyto(ranks, np.iinfo(ranks.dtype).max, where=~real[pair])
        order = np.argsort(ranks, axis=1, kind="stable")
        prefix = np.cumsum(np.take(gv, (pair * width)[:, None] + order), axis=1)[:, :-1]
        in_order = np.take(ranks, (np.arange(len(pair)) * width)[:, None] + order)
        no_cut = in_order[:, 1:] == in_order[:, :-1]
        if padded:
            no_cut |= k >= sizes[pair, None]
    m, t = sizes[pair, None], total[pair, None]
    # prefix**2 / k + (t - prefix)**2 / (m - k) - t**2 / m, the scan's operations in place
    gain = np.square(prefix)
    gain /= k
    right_term = t - prefix
    np.square(right_term, out=right_term)
    right_term /= np.maximum(m - k, 1) if padded else width - k  # past a node's rows, in the padding, no cut
    gain += right_term
    gain -= t * t / m
    np.copyto(gain, -np.inf, where=no_cut)
    at = np.argmax(gain, axis=1)
    winner, node, lead = [], -1, -np.inf  # each node's leading pair, its features in order
    for i, (p, pair_gain) in enumerate(zip(pair.tolist(), gain[np.arange(len(pair)), at].tolist())):
        if p != node:
            node, lead = p, -np.inf
            winner.append(-1)
        if pair_gain > lead + 1e-12:
            lead, winner[-1] = pair_gain, i
    won = np.array([i for i in winner if i >= 0], dtype=np.intp)
    if not len(won):  # no feature of any node has a cut
        return
    node, j, left = pair[won], j[won], at[won]
    ordered = order[won] if node_rows is None else node_rows[node[:, None], order[won]]
    split = chunk[node]
    low, high = (bins.XT[j, ordered[np.arange(len(won)), left + side]] for side in (0, 1))
    feature[split] = j
    threshold[split] = 0.5 * (low + high)
    cut[split] = left + 1
    rows[(starts[split][:, None] + column)[real[node]]] = ordered[real[node]]


def _screen(bins: _Bins, q: np.ndarray, m: np.ndarray, every: np.ndarray, below: np.ndarray) -> np.ndarray:
    """(nodes, features): the features each node's float scan must run, by `_split_search`'s screen.

    The nodes hold m rows each and the histograms `every` and `below`.  As
    each feature's bins hold all m rows and all C of them at q - 1, running
    sums over the bins less m or C per earlier feature give the rows at or
    below each bin.  The nodes are screened together over all the bins,
    where a bin before a feature's first occupied one (no rows at or below
    it) has no cut and any other repeats the cut of the occupied bin before
    it.
    """
    end = bins.first[1] if len(bins.first) > 1 else len(bins.root)  # the first feature's bins
    c = np.cumsum(below, axis=1, dtype=np.float64)
    C = c[:, end - 1]
    c -= C[:, None] * bins.feature
    n = np.cumsum(every, axis=1, dtype=np.float64)
    n -= m[:, None] * bins.feature
    no_cut = (n == 0) | (n == m[:, None])
    P, T = q[:, None] * n - c, (q * m - C)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 or x/0 where a bin has no cut
        screen = P * P / n + (T - P) ** 2 / (m[:, None] - n) - T * T / m[:, None]
    np.copyto(screen, -np.inf, where=no_cut)
    best = np.maximum.reduceat(screen, bins.first, axis=1)  # per feature
    kept = best > -np.inf  # the features with a cut
    window = (2.0 * (16.0 * m + 64.0) * m * _U + 4e-12)[:, None]
    earlier = np.full_like(best, -np.inf)
    np.maximum.accumulate(best[:, :-1], axis=1, out=earlier[:, 1:])
    s = best.shape[1] - 1 - np.argmax((best > earlier + window)[:, ::-1], axis=1)
    near = kept & (np.arange(best.shape[1]) >= s[:, None]) & (best > best[np.arange(len(m)), s][:, None] - window)
    return np.where((m <= _SCREENED_ROWS)[:, None], near, kept)


def _leaf_constants(q: np.ndarray, sizes: np.ndarray, samples: np.ndarray, signed_zeros: bool) -> np.ndarray:
    """Each leaf's `pinball_minimizing_constant`: q and sizes per leaf, samples their runs of residuals.

    One segmented sort gives every leaf's ceil(n*q)-th order statistic v
    and the distinct sample values just below and above it.  A computed
    loss, in any order of summation, is within relative (n + 4) * eps of
    the exact one (plus underflow, far below the least normal number), and
    the exact loss is convex in the constant.  So when v's loss is below
    both neighbours' by more than the relative bound 8 * (n + 4) * eps, the
    exact loss grows on both sides of v, every other value computes a
    greater loss than v in any order, and v is what evaluating every
    distinct value, and `pinball_minimizing_constant`, returns.  Any other
    leaf, and a zero when a residual may be -0.0 (the zero returned is the
    one the rule's sort puts first), goes to `pinball_minimizing_constant`.
    """
    starts = np.cumsum(sizes) - sizes
    # each sample's leaf, int16 where it fits, which numpy sorts stably by radix
    leaf = np.repeat(np.arange(len(sizes), dtype=np.int16 if len(sizes) <= 2**15 else np.intp), sizes)
    by_value = np.argsort(samples)
    s = samples[by_value[np.argsort(leaf[by_value], kind="stable")]]
    # the first and the last position of each run of equal values within a leaf
    position = np.arange(len(s))
    new = np.ones(len(s), dtype=bool)
    np.not_equal(s[1:], s[:-1], out=new[1:])
    new[starts] = True
    first = np.maximum.accumulate(np.where(new, position, 0))
    last = np.minimum.accumulate(np.where(np.append(new[1:], True), position, len(s))[::-1])[::-1]
    at = starts + np.clip(np.ceil(sizes * q).astype(np.intp), 1, sizes) - 1
    has_lower, has_upper = first[at] > starts, last[at] < starts + sizes - 1
    near = s[np.stack((np.where(has_lower, first[at] - 1, at), at, np.where(has_upper, last[at] + 1, at)))]
    loss = np.add.reduceat(_pinball(q[leaf], s - np.repeat(near, sizes, axis=1)), starts, axis=1) / sizes
    bound = loss[1] * (1.0 + 8.0 * (sizes + 4) * np.finfo(np.float64).eps) + np.finfo(np.float64).tiny
    sure = (~has_lower | (loss[0] > bound)) & (~has_upper | (loss[2] > bound))
    if signed_zeros:
        sure &= near[1] != 0.0
    values = near[1]
    for i in np.flatnonzero(~sure).tolist():
        values[i] = pinball_minimizing_constant(samples[starts[i] : starts[i] + sizes[i]], float(q[i]))
    return values


def _grow_stage(bins: _Bins, q, g, residuals, max_depth: int, forest: "Forest", trees, below_counts, signed_zeros: bool):
    """Fill tree trees[l] of `forest` for each level q[l], whose g and residuals are row l: one depth at a time.

    Each depth's nodes, over every level, run one `_split_search`; a node
    that does not split is a leaf, and all the stage's leaves take their
    values in one `_leaf_constants`.  `below_counts` are the roots'
    `_below_counts`, None where the roots are not screened.
    """
    nodes = _root(bins, len(q), g.shape[1], below_counts)
    leaves = []  # each depth's leaves: level, heap slot, sizes, rows
    for depth in range(max_depth):
        if not len(nodes.sizes):
            break
        feature, threshold, cut, rows = _split_search(bins, q, g, nodes)
        split = feature >= 0
        forest.feature[trees[nodes.level[split]], nodes.heap[split]] = feature[split]
        forest.threshold[trees[nodes.level[split]], nodes.heap[split]] = threshold[split]
        leaves.append((nodes.level[~split], nodes.heap[~split], nodes.sizes[~split], rows[np.repeat(~split, nodes.sizes)]))
        nodes = _children(bins, g, nodes, feature, cut, rows, depth + 1 < max_depth)
    leaves.append((nodes.level, nodes.heap, nodes.sizes, nodes.rows))
    level, heap, sizes, rows = (np.concatenate(part) for part in zip(*leaves))
    values = _leaf_constants(q[level], sizes, residuals[np.repeat(level, sizes), rows], signed_zeros)
    forest.value[trees[level], heap] = values


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
    """Boost one tree ensemble per quantile level, every level's stage t at once.

    When a validation set is supplied, a level stops boosting once its
    validation loss has not improved for `patience` stages, and its
    ensemble is truncated to its best stage; the other levels go on.
    """
    hyper.validate()
    levels = tuple(float(q) for q in levels)
    for q in levels:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0,1), got {q}")
    if patience < 1:
        raise ValueError(f"patience must be at least 1, got {patience}")
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
    # a residual is -0.0 only where y is -0.0
    signed_zeros = bool(np.signbit(y[y == 0.0]).any())

    qs = np.array(list(dict.fromkeys(levels)))
    n_trees = hyper.n_trees
    init = np.array([pinball_minimizing_constant(y, q) for q in qs.tolist()])
    forest = Forest.empty(len(qs) * n_trees, hyper.max_depth)  # level l's trees are l*n_trees onwards
    pred = np.repeat(init[:, None], len(y), axis=1)
    losses = np.full((len(qs), n_trees + 1), np.nan)  # per level, the loss before and after each stage
    losses[:, 0] = np.mean(_pinball(qs[:, None], y - pred), axis=1)
    kept = np.full(len(qs), n_trees)
    if val is not None:
        val_pred = np.repeat(init[:, None], len(yv), axis=1)
        best_val = np.mean(_pinball(qs[:, None], yv - val_pred), axis=1)
        since_best, kept = np.zeros(len(qs), dtype=np.intp), np.zeros(len(qs), dtype=np.intp)
    live = np.arange(len(qs))
    screened, before = hyper.max_depth > 0 and bins.pays(len(y)), None
    # the stage's levels grow together, in groups whose histograms stay within _COUNTS_BYTES: a level's
    # screened nodes at one depth are at most 2**(depth) and hold at least bins/features rows each
    per_level = 16 * min(len(bins.root) << max(hyper.max_depth - 1, 0), bins.keys.size)
    group = max(1, _COUNTS_BYTES // per_level)
    for t in range(n_trees):
        if not len(live):
            break
        q = qs[live]
        residuals = y - pred[live]
        below = residuals < 0
        gradient = np.where(below, q[:, None] - 1.0, q[:, None])  # q where the residual is 0 or more
        trees = live * n_trees + t
        for a in range(0, len(live), group):
            part = slice(a, a + group)
            counts = None
            if screened:
                counts = _below_counts(bins, below[part], before)
                if group >= len(live):  # one group: the next stage updates these counts
                    before = below, counts
            _grow_stage(
                bins, q[part], gradient[part], residuals[part], hyper.max_depth, forest, trees[part], counts, signed_zeros
            )
        pred[live] = pred[live] + hyper.learning_rate * forest.leaf_values(X, trees[None, :]).T
        losses[live, t + 1] = np.mean(_pinball(q[:, None], y - pred[live]), axis=1)
        if val is not None:
            val_pred[live] = val_pred[live] + hyper.learning_rate * forest.leaf_values(Xv, trees[None, :]).T
            vloss = np.mean(_pinball(q[:, None], yv - val_pred[live]), axis=1)
            better = vloss < best_val[live] - 1e-12
            best_val[live[better]], kept[live[better]] = vloss[better], t + 1
            since_best[live] = np.where(better, 0, since_best[live] + 1)
            going = since_best[live] < patience
            if before is not None:
                before = tuple(part[going] for part in before)
            live = live[going]
    index = {q: i for i, q in enumerate(qs.tolist())}
    init_of = {q: float(init[index[q]]) for q in levels}
    trees_of = {q: forest[index[q] * n_trees : index[q] * n_trees + kept[index[q]]] for q in levels}
    loss_of = {q: losses[index[q], : kept[index[q]] + 1].tolist() for q in levels}
    return GBoostQRModel(levels, hyper, init_of, trees_of, loss_of)


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
