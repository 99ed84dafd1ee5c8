"""Outer search over step-coordinate patterns: greedy, direct, exact, local.

exact_path is globally optimal for the configured objective. With continuous
steps it solves the inner quadratic exactly for every index vector in
{0..d-1}^K through an incremental Cholesky recursion (_enum_fast), free or,
from K = 2 on, pinned: a pattern's factor L extends its prefix's, so a tree
node carries only fixed-size summaries (Q = B'B, u = B'y, ssq = ||y||^2 for
B = L^{-1} G[pattern, :]), grown by rank-one terms (_grow). A pinned search
runs it on [G | I], so E = L^{-1} C' (C the pattern's coordinate-incidence
matrix) joins B, R = B'E joins Q and v = E'y joins u; its nodes also carry
M = E'E. A pattern's inner matrix, entry (j, l) min(w_j, w_l) G[i_j, i_l], is
positive definite (Schur product theorem) whenever diag(G) > 0 and the
weights are positive, singular grams included; a step that only repeats a
row of it, as zero weights allow, is a null step (_null_steps). Two routes
serve exact_paths' weight rows: the recursion, and _enum_direct, batched
inner solves (inner.solve_patterns) of all d^K patterns, for the rows the
recursion marks broken, pinned K = 1 and pinned rows whose last weight is
0. One solve_patterns call then solves every row's winning pattern under
its own weights, so a path depends on its pattern only. Both enumerators
rank through one tie rule (_keep): objectives within 1e-12 (relative) are
ties, and a chunk's least-index candidate tied with its minimum replaces
the incumbent if it beats it by more than that, or ties it from a smaller
lexicographic index, so ties resolve to the lexicographically smallest
pattern whatever order the patterns are visited in.

A pinned search whose K is the target's complexity c needs no patterns at
all: its paths write each changed coordinate once, to its target value, so
it is a shortest path over the 2^c subsets of those coordinates
(_subset_steps), whatever the weights and the gram, and every step is a
last write, of target - base, with no size to solve.

Unit steps move one coefficient by -1 or +1, or stay, so every model on the
path is base + z for an integer z with ||z||_1 <= K: _unit_steps finds the
shortest path over K layers of that L1 ball by dynamic programming
(Bellman), breaking ties move by move (the unit tie rule), as _subset_steps
does.

local_improvement is a batch-q local search warm-started from the greedy
pattern, for instances too large for exact search (see its docstring).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InfeasibleError, InputError
from .inner import (
    _EPS,
    _OBJECTIVE_RTOL,
    as_weights,
    attained_objectives,
    check_base,
    check_endpoint,
    check_index_vector,
    greedy_step,
    path_from_deltas,
    solve_batch,
    solve_patterns,
    tail_weights,
)
from .paths import CoordinatePath, WeightSchedule, model_complexity, weighted_loss
from .regression import LinearModel, SufficientStats, cost, cost_of, ols

DEFAULT_BUDGET = 10_000_000
_BLOCK_LEAVES = 50_000  # leaves below one chunk of parent nodes (~400 KB temporaries, fit L2)
_BLOCK_ROW_NODES = 64  # parent nodes of each weight row a chunk holds, at least
_CHUNK_ENTRIES = 150_000  # K*K system entries per _enum_direct chunk (~4k patterns at K=6)
_PIECE_ENTRIES = 200_000  # [M~ | z] entries of a piece of pinned leaves, at most (1.6 MB)
_WINDOW_CANDIDATES = 512  # local_improvement candidates per window, at most
_DRAW_BLOCK = 256  # local_improvement positions drawn per rng call, at most
_TIE_RTOL = 1e-12  # objectives this close (relative) are ties, kept by the earlier candidate
_PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared knobs for the exact and local-improvement optimizers.

    K: path length; schedule: step weights; endpoint: optional target model
    (None = free endpoint); step_mode: "continuous" or "unit" (unit steps
    change one coefficient by exactly +/-1 or leave the model unchanged);
    q/T/seed drive the local search; budget caps the exact search's work (d^K
    patterns, or unit-mode states times moves); patience, if set, stops the
    local search after that many consecutive non-improving iterations.
    """

    K: int
    schedule: WeightSchedule
    endpoint: LinearModel | None = None
    step_mode: str = "continuous"
    seed: int = 0
    q: int = 1
    T: int = 100
    budget: int = DEFAULT_BUDGET
    patience: int | None = None

    def __post_init__(self):
        if self.K < 0:
            raise InputError("K must be >= 0")
        if self.step_mode not in ("continuous", "unit"):
            raise InputError("step_mode must be 'continuous' or 'unit'")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.q < 1:
            raise InputError("q must be >= 1")
        if self.K >= 1 and self.q > self.K:
            raise InputError(f"q={self.q} exceeds path length K={self.K}")
        if self.T < 0:
            raise InputError("T must be >= 0")
        if self.budget < 1:
            raise InputError("budget must be >= 1")
        if self.patience is not None and self.patience < 1:
            raise InputError("patience must be >= 1")


def greedy_path(stats: SufficientStats, base: LinearModel, K: int) -> CoordinatePath:
    """K forward steps, each the single most cost-reducing coordinate move."""
    if K < 0:
        raise InputError("K must be >= 0")
    current = base
    steps = []
    for _ in range(K):
        i, value, _ = greedy_step(stats, current)
        current = current.with_coordinate(i, value)
        steps.append((i, value))
    return CoordinatePath(base, tuple(steps))


def direct_path(stats: SufficientStats, base: LinearModel, K: int) -> CoordinatePath:
    """Install final least-squares coefficients one coordinate at a time.

    Each step permanently sets one not-yet-set coordinate of the OLS
    solution, picking the coordinate whose installation gives the lowest
    immediate cost. Requires K <= model_complexity(base, ols).
    """
    if K < 0:
        raise InputError("K must be >= 0")
    check_base(stats, base)
    target = ols(stats)
    remaining = [i for i in range(stats.d) if base.coefficients[i] != target.coefficients[i]]
    if K > len(remaining):
        raise InputError(
            f"K={K} exceeds the {len(remaining)} coordinates where OLS differs from the base"
        )
    steps = [(i, float(target.coefficients[i]))
             for i in _install_order(stats, base, target, remaining, K)]
    return CoordinatePath(base, tuple(steps))


def _install_order(stats: SufficientStats, base: LinearModel, target: LinearModel,
                   coords, n: int) -> list[int]:
    """The first n of `coords` to set to their target values, each the one
    whose installation gives the lowest immediate cost (ties break to the
    lowest index)."""
    beta = base.coefficients.copy()
    remaining = sorted(int(i) for i in coords)
    order = []

    def installed(i):
        trial = beta.copy()
        trial[i] = target.coefficients[i]
        return cost_of(stats, trial), i

    for _ in range(n):
        _, i = min(map(installed, remaining))
        order.append(i)
        beta[i] = target.coefficients[i]
        remaining.remove(i)
    return order


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------


def _mark_broken(broken: np.ndarray, piv: np.ndarray, floor: np.ndarray, null=None) -> None:
    """Set broken[l] for each weight row l (leading axis) holding a pivot at
    or below its floor, or a NaN pivot (arithmetic that overflowed); a null
    step's pivot (where null) is set to inf first, so it breaks nothing."""
    if null is not None:
        piv[null] = np.inf
    ok = piv > floor  # False for NaN
    if not ok.all():
        broken |= ~ok.reshape(ok.shape[0], -1).all(axis=1)


def _grow(nodes, G, gd, r, wm, broken, out, null=None):
    """Expand every node by one step on each coordinate.

    A node is (QT, uT, ssq) over a gram G (d, D): G itself (D = d) in a free
    search, [G | I] (D = 2d) in a pinned one, whose nodes also carry MT = E'E.
    QT = B'[B | E] is (L, d, D, N) and uT = [B | E]'y (L, D, N), weight rows
    along the first axis and nodes along the last; wm is (L, 1, 1). Child c's
    new row of [B | E], (G[c, :] - w QT[c, :]) / piv, is copied out of its
    transposed view, so every broadcast operand is contiguous along (c, N).
    The d*N children come back in the same layout, child c of node p at
    c*N + p; their QT and MT go to the buffers out, or to new arrays where
    out holds None. Broken rows are marked in broken, null steps (L, d, N)
    grown as their parents.
    """
    QT, uT, ssq = nodes[:3]
    L, d, D, N = QT.shape
    dQ = np.einsum("...iin->...in", QT[:, :, :d])
    piv2 = wm * gd[:, None] - wm * wm * dQ
    _mark_broken(broken, piv2, _PIVOT_RTOL * wm * gd[:, None], null)
    piv = np.sqrt(piv2)
    ynew = (wm * r[:, None] - wm * uT[:, :d]) / piv
    ssq = (ssq[:, None, :] + ynew * ynew).reshape(L, d * N)
    row = ((G[:, :, None] - wm[..., None] * QT) / piv[:, :, None]).transpose(0, 2, 1, 3).copy()
    QTc = np.multiply(row[:, :d, None, :, :], row[:, None, :, :, :], out=out[0])
    QTc += QT[:, :, :, None, :]
    uTc = np.multiply(row, ynew[:, None, :, :])
    uTc += uT[:, :, None, :]
    grown = (QTc.reshape(L, d, D, d * N), uTc.reshape(L, D, d * N), ssq)
    if len(nodes) == 3:
        return grown
    E = row[:, d:]
    MTc = np.multiply(E[:, :, None, :, :], E[:, None, :, :, :], out=out[1])
    MTc += nodes[3][:, :, :, None, :]
    return grown + (MTc.reshape(L, d, d, d * N),)


def _fused_leaves(QT, uT, ssq, G, gd, r, w1, w2, top, broken, out, null1=None, null2=None):
    """Objectives of every two-step completion of each node, as vals[l, c1, c2, n].

    Computed in the two buffers out, shaped like QT (L, d, d, N), in _grow's
    layout; vals is out[0]. w1 and w2 are shaped (L, 1, 1) and top (L,). The
    first step's pivot piv1 = w1 gd - w1^2 diag(Q), s = piv1^-1/2 and
    y1 = w1 a s are per node and c1, with a = r - u and b = gd / w2 - diag(Q)
    per node and c2. The only factor per leaf is rho = (G - w1 Q)[c1, c2] s:
    the second pivot is w2^2 (b - rho^2), and a leaf scores
    C - (a - rho y1)^2 / (b - rho^2), with C = top - ssq - y1^2. A row breaks
    down at a first pivot at or below _PIVOT_RTOL w1 gd, where
    b - rho^2 <= _PIVOT_RTOL gd / w2 (tested as max over c1 of rho^2 against
    (1 - _PIVOT_RTOL) gd / w2 - diag(Q), so that a gd / w2 that overflows
    breaks nothing), or at a NaN. Each value goes through the same operations
    in the same order whatever L and N are, so it does not depend on how rows
    and nodes are blocked. A null first step (null1 (L, d, N)) gets s = 0, a
    null second step (null2 (L, d, d N), c2 after c1 of node n at
    [c2, c1 N + n]) b - rho^2 = inf, out of the check.
    """
    dQ = np.einsum("...iin->...in", QT)
    piv1 = w1 * gd[:, None] - w1 * w1 * dQ
    _mark_broken(broken, piv1, _PIVOT_RTOL * w1 * gd[:, None], null1)
    s = 1 / np.sqrt(piv1)
    a = r[:, None] - uT
    y1 = w1 * a * s
    C = (top[:, None, None] - ssq[:, None]) - y1 * y1
    rho = np.multiply(w1[..., None], QT, out=out[0])
    np.subtract(G[:, :, None], rho, out=rho)
    rho *= s[:, :, None]
    h = np.multiply(rho, rho, out=out[1])
    if null2 is not None:
        h[null2.reshape(h.shape).swapaxes(1, 2)] = -np.inf
    _mark_broken(broken, (1 - _PIVOT_RTOL) * gd[:, None] / w2 - dQ, h.max(axis=1))
    np.subtract((gd[:, None] / w2 - dQ)[:, None], h, out=h)
    rho *= y1[:, :, None]
    np.subtract(a[:, None], rho, out=rho)
    rho *= rho
    rho /= h
    return np.subtract(C[:, :, None], rho, out=rho)


def _pinned_leaves(nodes, index, m, G, gd, r, w1, w2, top, e, broken, null1=None, null2=None):
    """Pinned objectives of the two-step completions of level-m nodes that
    reach the target, a piece at a time: yields (vals (L, P), the leaves'
    lexicographic indices (P,)).

    nodes are (QT, uT, ssq, MT) in _grow's pinned layout, over [G | I], node
    n at lexicographic index index[n]. w1, w2 and top are shaped (L, 1);
    e = target - base. A leaf scores top - ssq + z'M~^-1 z, with z = v - e
    and M~ = M with a 1 on the diagonal of each coordinate it leaves
    untouched, eliminated along the leaf axis; a leaf that leaves a
    coordinate with e != 0 untouched is skipped. A piece's [M~ | z] holds
    at most _PIECE_ENTRIES entries. Rows whose pivots break down are marked
    in broken. Null steps (null1, null2 as in _fused_leaves) add no E row.
    """
    QT, uT, ssq, MT = nodes
    L, d, D, N = QT.shape
    coords = np.arange(d)[:, None]
    touched = np.zeros((N, d), dtype=bool)
    touched[np.arange(N)[:, None], _patterns(index, d, m)] = True
    need = e != 0
    miss = (~touched & need).astype(np.int16)
    # Leaf (n, c1, c2) reaches iff c1 and c2 cover every needed coordinate n missed.
    covered = miss[:, :, None] + miss[:, None, :] * (1 - np.eye(d, dtype=np.int16))
    leaves = np.flatnonzero(covered == miss.sum(axis=1, dtype=np.int16)[:, None, None])
    Qf, uf = QT.reshape(L, -1), uT.reshape(L, -1)
    vT = np.ascontiguousarray(uT[:, d:])  # np.take copies a strided source on every call

    def QT_at(i, j, n):  # QT[:, i, j, n]: Q[i, j] for j < d, R[i, j - d] beyond
        return np.take(Qf, (i * D + j) * N + n, axis=1)

    piece = max(1, min(leaves.size, _PIECE_ENTRIES // (L * d * (d + 1))))
    mats = np.empty((2, L * d * (d + 1) * piece))
    for s in range(0, leaves.size, piece):
        leaf = leaves[s:s + piece]
        n, c = np.divmod(leaf, d * d)
        c1, c2 = np.divmod(c, d)
        at1, at2 = coords == c1, coords == c2
        n1, n2 = (None, None) if null1 is None else (null1[:, c1, n], null2[:, c2, c1 * N + n])
        piv1 = w1 * gd[c1] - w1 * w1 * QT_at(c1, c1, n)
        _mark_broken(broken, piv1, _PIVOT_RTOL * w1 * gd[c1], n1)
        piv1 = np.sqrt(piv1)
        y1 = (w1 * r[c1] - w1 * np.take(uf, c1 * N + n, axis=1)) / piv1
        E1 = (at1 - w1[..., None] * QT_at(c1, d + coords, n)) / piv1[:, None]
        row = (G[c1, c2] - w1 * QT_at(c1, c2, n)) / piv1
        piv2 = w2 * gd[c2] - w2 * w2 * (QT_at(c2, c2, n) + row * row)
        _mark_broken(broken, piv2, _PIVOT_RTOL * w2 * gd[c2], n2)
        piv2 = np.sqrt(piv2)
        y2 = (w2 * r[c2] - w2 * (np.take(uf, c2 * N + n, axis=1) + row * y1)) / piv2
        E2 = (at2 - w2[..., None] * (QT_at(c2, d + coords, n) + row[:, None] * E1)) / piv2[:, None]
        # [M~ | z] per leaf; eliminating it leaves L^-1 z in the last column.
        Az, Tz = (buf[:L * d * (d + 1) * leaf.size].reshape(L, d, d + 1, -1) for buf in mats)
        A, T = Az[:, :, :d], Tz[:, :, :d]
        np.take(MT, n, axis=3, out=A, mode="clip")
        A += np.multiply(E1[:, :, None], E1[:, None], out=T)
        A += np.multiply(E2[:, :, None], E2[:, None], out=T)
        diag = Az.reshape(L, d * (d + 1), -1)[:, ::d + 2]
        if not need.all():  # else every reaching leaf touches every coordinate
            diag += ~(touched[n].T | at1 | at2)
        floor = _PIVOT_RTOL * diag
        z = np.take(vT, n, axis=2, out=Az[:, :, d], mode="clip")
        z += y1[:, None] * E1 + y2[:, None] * E2 - e[:, None]
        for j in range(d - 1):  # Gaussian elimination, without pivoting: M~ is positive definite
            f = Az[:, j + 1:, j] / Az[:, j, None, j]
            Az[:, j + 1:, j + 1:] -= np.multiply(f[:, :, None], Az[:, None, j, j + 1:],
                                                 out=Tz[:, :d - j - 1, :d - j])
        _mark_broken(broken, diag, floor)
        vals = top - np.take(ssq, n, axis=1) - y1 * y1 - y2 * y2
        vals += np.einsum("ljp,ljp->lp", z, z / diag)
        yield vals, index[n] * (d * d) + c


# Broken rows' arithmetic, overflowed or not, is discarded.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _enum_fast(stats: SufficientStats, base: np.ndarray, K: int, alphas: np.ndarray,
               target: np.ndarray | None = None):
    """Exhaustive search via the incremental factor recursion, for every row
    of a stack of weight rows alphas (L, K) at once, with a free endpoint or,
    if K >= 2, pinned to `target`.

    Returns each row's optimal objective (L,), its pattern (L, K), and a
    mask broken (L,) of the rows whose factorization hit a pivot at or
    below _PIVOT_RTOL of its scale, or a NaN one; their objective and
    pattern mean nothing, and the caller solves them another way (_enum_direct).
    Zero weights make null steps (_null_steps); pinned rows need alpha_K > 0.
    A pinned search grows its nodes over [G | I] and carries M too (_grow). A
    row's results are bitwise those of a one-row call: the rows share every
    array operation along a leading axis but no arithmetic. One depth-first
    recursion grows `per` parent nodes at a time by one level and descends into
    their children before the next chunk; every node grows once by the same
    operations, so no result depends on the chunk sizes. Children stay in
    _grow's layout, out of lexicographic order, so each node carries its
    lexicographic index, and free and pinned rows alike rank by the tie rule
    (_keep) on those indices.
    """
    G = stats.gram
    d = stats.d
    r = stats.residual_cross(base)
    c0 = cost_of(stats, base)
    gd = np.ascontiguousarray(np.diag(G))

    fuse = K >= 2
    stop = K - 2 if fuse else K  # the level whose nodes are scored, with their leaves
    below = d ** min(K, 3)  # leaves below one parent of the last grown level
    # Rows per pass: chunks that hold _BLOCK_ROW_NODES parents of each row
    # (or all of a row's), so the inner loops along the node axis stay long.
    row_nodes = min(d ** (K - min(K, 3)), _BLOCK_ROW_NODES)
    per_pass = max(1, _BLOCK_LEAVES // (below * row_nodes))
    L = alphas.shape[0]
    if L > per_pass:
        parts = [_enum_fast(stats, base, K, alphas[g0:g0 + per_pass], target)
                 for g0 in range(0, L, per_pass)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    w = tail_weights(alphas)
    wb = w[:, :, None, None]  # step m's weights, shaped (L, 1, 1), are wb[:, m]
    top = np.array([float(a.sum()) for a in alphas]) * c0  # each row summed as a one-row call
    per = max(1, _BLOCK_LEAVES // (below * L))  # parent nodes grown at a time
    # Each chunk's largest temporaries reuse these, so no page is mapped afresh per chunk.
    work = np.empty((3, L * d * d * min(d * per, d**stop)))
    e = None if target is None else target - base
    Gx = G if e is None else np.hstack([G, np.eye(d)])  # a pinned search grows over [G | I]
    nodes = (np.zeros((L, *Gx.shape, 1)), np.zeros((L, Gx.shape[1], 1)), np.zeros((L, 1)))
    nodes += () if e is None else (np.zeros((L, d, d, 1)),)  # and its nodes carry M too

    def buf(i, shape):  # from work[i] on: a pinned QT block takes two rows
        return work[i:].reshape(-1)[:math.prod(shape)].reshape(shape)

    broken = np.zeros(L, dtype=bool)
    best_val = np.full(L, math.inf)
    best = np.zeros(L, dtype=np.int64)  # lexicographic index of each row's best pattern
    zero = not alphas.all()  # else no step is null, and no mask is built

    def descend(m, nodes, index):
        # The level-m nodes, node j at lexicographic index index[j].
        nulls = (None, None)  # the last two steps' null steps, the second's after each c1
        if m == stop and fuse and zero:
            nulls = (_null_steps(alphas, w, m, index, d),
                     _null_steps(alphas, w, m + 1, (index * d + np.arange(d)[:, None]).ravel(), d))
        if m == stop and e is not None:
            for vals, leaves in _pinned_leaves(nodes, index, m, G, gd, r, w[:, K - 2, None],
                                               w[:, K - 1, None], top[:, None], e, broken, *nulls):
                _keep(best_val, best, vals, leaves)
            return
        if m == stop:  # score their leaves
            vals = (_fused_leaves(*nodes, G, gd, r, wb[:, K - 2], wb[:, K - 1], top, broken,
                                  (buf(1, nodes[0].shape), buf(2, nodes[0].shape)), *nulls)
                    if fuse else top[:, None] - nodes[2])
            _keep(best_val, best, vals.reshape(L, -1), index, d * d if fuse else 1)
            return
        N = nodes[2].shape[1]
        for p0 in range(0, N, per):
            n = min(per, N - p0)
            # Only the scored level's children go to work: the others outlive their chunk.
            out = ((buf(0, (L, *Gx.shape, d, n)), buf(2, (L, d, d, d, n))) if m + 1 == stop
                   else (None, None))
            null = _null_steps(alphas, w, m, index[p0:p0 + n], d) if zero else None
            grown = _grow(tuple(a[..., p0:p0 + n] for a in nodes), Gx, gd, r, wb[:, m], broken,
                          out, null)
            descend(m + 1, grown, (index[p0:p0 + n] * d + np.arange(d)[:, None]).ravel())

    descend(0, nodes, np.zeros(1, dtype=np.int64))
    del descend  # its closure refers to itself: free work now, not at the next gc
    return best_val, _patterns(best, d, K), broken


def _null_steps(alphas, w, m, index, d):
    """null[l, c, n] (L, d, N): whether step m + 1 on coordinate c after the
    m steps at lexicographic index index[n] is null under weight row l: its
    tail weight w is 0, or the zero run it continues already wrote c at the
    same tail weight, so it repeats a row of the system."""
    run = np.cumsum(alphas[:, :m][:, ::-1] > 0, axis=1)[:, ::-1] == 0  # (L, m): step m+1's run
    wrote = _patterns(index, d, m).T[:, None, :] == np.arange(d)[:, None]  # (m, d, N)
    return (run[:, :, None, None] & wrote).any(axis=1) | (w[:, m] == 0)[:, None, None]


def _patterns(index: np.ndarray, d: int, K: int) -> np.ndarray:
    """The index vectors (..., K) at the lexicographic positions `index` among
    all d**K of them."""
    return index[..., None] // d ** np.arange(K - 1, -1, -1) % d


def _rules_out(bound, best):
    """True where no score of at least `bound` can beat `best` under a strict
    comparison: bound exceeds best by more than rounding, _OBJECTIVE_RTOL
    max(1, |best|) (elementwise). An infinite bound against an infinite
    best, whose difference is NaN, rules out too: the scores overflow as
    well."""
    return np.logical_not(bound - best <= _OBJECTIVE_RTOL * np.maximum(1.0, np.abs(best)))


def _beats(value, incumbent):
    """True iff value is lower than incumbent by more than a tie (elementwise)."""
    return value + _TIE_RTOL * abs(value) < incumbent


def _first_tie(vals: np.ndarray) -> np.ndarray:
    """Index of the first entry tied with the minimum, along the last axis."""
    low = vals.min(axis=-1, keepdims=True)
    return np.argmax(vals <= low + _TIE_RTOL * abs(low), axis=-1)


def _keep(best_val: np.ndarray, best: np.ndarray, vals: np.ndarray, index: np.ndarray,
          fan: int = 1) -> None:
    """The tie rule, for a piece of candidates vals (L, fan * N) of L weight
    rows, candidate c * N + j at lexicographic index index[j] * fan + c:
    each row's least-index candidate within _TIE_RTOL of its minimum
    replaces the row's incumbent, objective best_val[l] at index best[l]
    (updated in place), if it beats it, or ties it from a smaller index. So
    ties resolve to the lexicographically least pattern, in whatever order
    the pieces come. Only rows whose minimum beats or ties the incumbent are
    searched for their candidate, and only candidates get an index."""
    def index_of(p):  # the lexicographic indices of the candidates at positions p
        return index[p % index.size] * fan + p // index.size

    low = vals.min(axis=1)
    rows = np.flatnonzero(np.isfinite(low) & ~_beats(best_val, low))
    if rows.size:
        piece, low = vals[rows], low[rows, None]
        tie = piece <= low + _TIE_RTOL * abs(low)
        at = tie.argmax(axis=1)
        if np.count_nonzero(tie) > rows.size:  # a row ties several candidates: least index
            cols = np.flatnonzero(tie.any(axis=0))
            at = cols[np.where(tie[:, cols], index_of(cols), np.iinfo(np.int64).max).argmin(axis=1)]
        tied, i, held = piece[np.arange(rows.size), at], index_of(at), best_val[rows]
        win = _beats(tied, held) | (i < best[rows]) & ~_beats(held, tied)
        best_val[rows[win]], best[rows[win]] = tied[win], i[win]


def _enum_direct(stats: SufficientStats, base: LinearModel, K: int, alpha: np.ndarray,
                 endpoint: LinearModel | None = None):
    """Exhaustive search by batched inner solves (solve_patterns) over all
    d^K patterns, free or pinned to an `endpoint` the caller has checked K
    steps can reach: the fallback for the rows _enum_fast marks broken, and
    for the pinned rows it does not take, K = 1 and a last weight of 0. Returns
    (objective, pattern) of the best pattern under the tie rule (_keep),
    a chunk of consecutive lexicographic indices at a time.
    """
    d = stats.d
    target = None if endpoint is None else endpoint.coefficients
    best_val, best = np.full(1, math.inf), np.zeros(1, dtype=np.int64)
    total, chunk = d**K, max(1, _CHUNK_ENTRIES // (K * K))
    for s in range(0, total, chunk):
        index = np.arange(s, min(s + chunk, total))
        vals = solve_patterns(stats, base.coefficients, _patterns(index, d, K), alpha, target)[1]
        _keep(best_val, best, vals[None], index)
    if best_val[0] == math.inf:
        raise InfeasibleError("no index pattern of this length reaches the target")
    return float(best_val[0]), _patterns(best[0], d, K)


def _l1_ball(d: int, K: int):
    """The integer vectors z with ||z||_1 <= K, sorted by norm: each a row of
    atoms (j << bits) + K + z_j, one per nonzero, in coordinate order and
    padded with coordinate d to min(K, d) atoms, so memory grows with the
    ball's size times min(K, d), not times d.

    Returns (atoms, bits, layer, find): layer[k] counts the vectors of norm
    at most k, and find(rows) gives the positions of rows of atoms (in
    coordinate order, zero values allowed). find goes through a vector's
    lexicographic rank in the ball (values ordered -K..0, then K..1), from a
    table of ball sizes, so no key overflows for any d.
    """
    s, bits = min(K, d), (2 * K).bit_length()
    mask = (1 << bits) - 1
    size = np.ones((d, K + 1), dtype=np.int64)  # size[m, t]: vectors of Z^m with norm <= t
    for m in range(1, d):
        size[m] = 2 * np.cumsum(size[m - 1]) - size[m - 1]
    cum = np.pad(np.cumsum(size, axis=1), ((0, 0), (1, 0)))  # cum[m, t]: vectors with norm < t
    # Coordinate c with value v, norm L left before it: the vectors that agree
    # before c and precede v there, and the zeros before c, telescoped:
    # lead[c, L] - lead[c, L - |v|] + (v > 0) after[c, L], plus lead[d, L] at the end.
    lead = np.pad(np.cumsum(cum[::-1, :-1], axis=0), ((1, 0), (0, 0)))
    after = np.pad(cum[::-1, 1:], ((0, 1), (0, 0)))

    def rank(rows):
        r, left = np.zeros(len(rows), dtype=np.int64), np.full(len(rows), K)
        for a in rows.T:
            c, v = a >> bits, (a & mask) - K
            r += lead[c, left] + (v > 0) * after[c, left]
            left = left - abs(v)
            r -= lead[c, left]
        return r + lead[d, left]

    atoms, lefts, last = [np.full((1, s), (d << bits) + K)], [np.array([K])], np.array([-1])
    for n in range(s):  # each vector followed by each later coordinate's nonzero values
        rows = np.repeat(np.arange(last.size), (d - 1 - last) * 2 * lefts[-1])
        q, left = np.arange(rows.size) - rows.searchsorted(rows), lefts[-1][rows]
        last, q = last[rows] + 1 + q // (2 * left), q % (2 * left)
        v = q - left + (q >= left)
        atoms.append(atoms[-1][rows])
        atoms[-1][:, n] = (last << bits) + K + v
        lefts.append(left - abs(v))
    del rows, q, left, last, v  # as large as the last level: free them before the sort
    norm = K - np.concatenate(lefts)
    atoms = np.concatenate(atoms)[np.argsort(norm, kind="stable")]
    position = np.empty(len(atoms), dtype=np.int64)
    position[rank(atoms)] = np.arange(len(atoms))
    return atoms, bits, np.cumsum(np.bincount(norm)), lambda rows: position[rank(rows)]


def _ball_costs(stats: SufficientStats, base: LinearModel, atoms: np.ndarray, bits: int,
                K: int) -> np.ndarray:
    """cost(base + z) for the vectors z of _l1_ball(d, K), as
    cost(base) + 2 z'(G base - cross) + z'Gz over z's nonzeros."""
    mask = (1 << bits) - 1
    gram = np.pad(stats.gram, (0, 1))
    slope = np.pad(stats.gram @ base.coefficients - stats.cross, (0, 1))
    costs = np.full(len(atoms), cost_of(stats, base.coefficients))
    for i, a in enumerate(atoms.T):
        c, v = a >> bits, (a & mask) - K
        cross = sum(((b & mask) - K) * gram[b >> bits, c] for b in atoms.T[:i])
        costs += v * (2 * slope[c] + v * gram[c, c] + 2 * cross)
    return np.maximum(costs, 0.0)


def _check_unit_budget(d: int, K: int, budget: int) -> None:
    """Raise BudgetError if _unit_steps would score more state moves than the
    budget: 2d+1 from each state within k < K steps of the origin."""
    moves = (2 * d + 1) * sum(2**i * math.comb(d, i) * math.comb(K, i + 1)
                               for i in range(min(d + 1, K)))
    if moves > budget:
        raise BudgetError(f"unit-step search needs {_amount(moves, math.log10(moves))} state "
                          f"moves, over the budget of {budget:,}; raise the budget")


def _unit_steps(stats: SufficientStats, base: LinearModel, K: int, alpha: np.ndarray,
                endpoint: LinearModel | None = None):
    """The optimal unit-step path, free or pinned to `endpoint`, by dynamic
    programming over the states base + z, z in the L1 ball of radius K
    (_l1_ball), where the states within k steps of the origin (layer k)
    come first.

    A backward pass gives each state's cost-to-go J_k(z), the minimum over
    its 2d+1 moves of alpha_{k+1} cost(z') + J_{k+1}(z'), from J_K = 0, or
    when pinned 0 only at the integer vector within 1e-9 of target - base.
    The forward pass from the origin follows the unit tie rule: each step
    takes the first move within _TIE_RTOL of the best, in (coordinate, sign)
    order, a stay counting as (0, 0). The caller checks the budget first
    (_check_unit_budget), and that K steps can reach `endpoint`.
    """
    d = stats.d
    atoms, bits, layer, find = _l1_ball(d, K)
    costs = _ball_costs(stats, base, atoms, bits, K)
    coord = np.insert(np.repeat(np.arange(d), 2), 1, 0)  # the moves, in (coordinate, sign) order
    sign = np.insert(np.tile([-1, 1], d), 1, 0)
    inner = atoms[:layer[K - 1]]
    succ = np.empty((2 * d + 1, len(inner)), dtype=np.int64)
    for m, c, sg in zip(succ, coord, sign):
        hit = inner >> bits == c
        rows = inner + sg * hit
        rows[~hit.any(axis=1), -1] = (c << bits) + K + sg  # free: an inner state has norm < K
        m[:] = find(np.sort(rows, axis=1))
    togo = [np.zeros(len(atoms))]
    if endpoint is not None:
        togo[0][:] = np.inf
        z = np.round(endpoint.coefficients - base.coefficients)
        nz = np.flatnonzero(z)
        at = np.full((1, atoms.shape[1]), (d << bits) + K)
        at[0, :nz.size] = (nz << bits) + K + z[nz].astype(np.int64)
        togo[0][find(at)] = 0.0
    for k in range(K - 1, -1, -1):  # move by move, so temporaries stay one layer long
        best = np.full(layer[k], np.inf)
        for m in succ[:, :layer[k]]:
            np.minimum(best, alpha[k] * costs[m] + togo[0][m], out=best)
        togo.insert(0, best)
    if togo[0][0] == np.inf:  # costs that overflow leave no finite path
        raise InfeasibleError("no unit-step path of this length reaches the target")
    state, steps = 0, []
    for k in range(K):
        nxt = succ[:, state]
        steps.append(int(_first_tie(alpha[k] * costs[nxt] + togo[k + 1][nxt])))
        state = nxt[steps[-1]]
    return path_from_deltas(base, coord[steps], sign[steps].astype(float))


# Costs that overflow leave no finite loss, which raises below.
@np.errstate(over="ignore", invalid="ignore")
def _subset_steps(stats: SufficientStats, base: LinearModel, endpoint: LinearModel,
                  alpha: np.ndarray) -> CoordinatePath:
    """The optimal path pinned to `endpoint` of exactly its complexity c
    steps, under the weights alpha (c,).

    Such a path writes each changed coordinate (C, ascending) once, to its
    target value, so model k is the base with a set S_k of k of them at
    target, and the loss sum_k alpha_k cost(S_k) depends on the chain of
    sets only: a shortest path over the 2^c subsets (Held & Karp), with no
    pivot, whatever the weights and the gram. Every write is a last write,
    so each step moves its coordinate by e = target - base, which leaves no
    step size to solve. Subset s (bit j for C[j]) costs
    c0 + x'(G_CC x - 2 r_C) with x = bits(s) e_C, clamped at 0. One subset
    size at a time, from C down, a backward pass gives V(s) = min over j
    not in s of alpha_{|s|+1} cost(s + j) + V(s + j), from V(C) = 0, and
    records the move of the unit tie rule, the least j within _TIE_RTOL of
    the best, which the forward pass follows from the empty set. Raises
    InfeasibleError if no loss is finite.
    """
    beta, target = base.coefficients, endpoint.coefficients
    C = np.flatnonzero(target != beta)
    c, e = C.size, (target - beta)[C]
    r, G = stats.residual_cross(beta)[C], stats.gram[np.ix_(C, C)]
    c0 = cost_of(stats, beta)
    bits = 1 << np.arange(c)
    size = np.zeros(1, dtype=np.int64)
    for _ in range(c):
        size = np.concatenate([size, size + 1])
    layers = np.split(np.argsort(size, kind="stable"), np.cumsum(np.bincount(size))[:-1])
    cost, togo, move = np.zeros(2**c), np.zeros(2**c), np.zeros(2**c, dtype=np.int64)
    for k in range(c, 0, -1):
        X = (layers[k][:, None] & bits > 0) * e
        cost[layers[k]] = np.maximum(c0 + np.einsum("sj,sj->s", X @ G - 2 * r, X), 0.0)
        nxt = layers[k - 1][:, None] | bits
        vals = alpha[k - 1] * cost[nxt] + togo[nxt]
        vals[nxt == layers[k - 1][:, None]] = np.inf  # j is in the set already
        togo[layers[k - 1]] = vals.min(axis=1)
        move[layers[k - 1]] = _first_tie(vals)
    if not np.isfinite(togo[0]):
        raise InfeasibleError("no index pattern of this length reaches the target")
    state, steps = 0, []
    for _ in range(c):
        steps.append(move[state])
        state |= bits[steps[-1]]
    return path_from_deltas(base, C[steps], e[steps])


def exact_path(stats: SufficientStats, base: LinearModel, cfg: OptimizerConfig) -> CoordinatePath:
    """Globally optimal path of length cfg.K for sum_k alpha_k * cost(model_k).

    One of three searches runs: unit steps, a dynamic program over the L1
    ball's states (_unit_steps); continuous steps pinned at K = the target's
    complexity c, a dynamic program over the subsets of the changed
    coordinates (_subset_steps, whose c 2^(c-1) moves the d^K budget
    bounds); any other continuous search, the d^K patterns (exact_paths).
    Respects cfg.endpoint. Raises BudgetError if the work exceeds cfg.budget
    (check_budget, _check_unit_budget), before anything of size K is built,
    then InputError for invalid weights and InfeasibleError if K steps cannot
    reach the endpoint, at every K: the searches check none of these again.
    They raise InfeasibleError if no path reaches the endpoint.
    """
    K = cfg.K
    check_base(stats, base)
    continuous = cfg.step_mode == "continuous"
    (check_budget if continuous else _check_unit_budget)(stats.d, K, cfg.budget)
    alpha = as_weights(cfg.schedule, K)
    if cfg.endpoint is not None:
        _check_reachable(base, cfg.endpoint, K)
        z = cfg.endpoint.coefficients - base.coefficients  # unit steps reach integer z, |z|_1 <= K
        if not (continuous or np.all(abs(z - np.round(z)) <= 1e-9) and abs(np.round(z)).sum() <= K):
            raise InfeasibleError("no unit-step path of this length reaches the target")
    if K == 0:
        return CoordinatePath(base, ())
    if not continuous:
        return _unit_steps(stats, base, K, alpha, cfg.endpoint)
    if cfg.endpoint is not None and model_complexity(base, cfg.endpoint) == K:
        return _subset_steps(stats, base, cfg.endpoint, alpha)
    return exact_paths(stats, base, alpha[None], cfg.endpoint)[0]


def _check_reachable(base: LinearModel, target: LinearModel, K: int) -> None:
    changed = model_complexity(base, target)
    if changed > K:
        raise InfeasibleError(
            f"target differs from base in {changed} coordinates; K={K} steps cannot reach it"
        )


def _best_subset_floor(stats: SufficientStats, base: LinearModel, K_max: int,
                       budget: int) -> np.ndarray:
    """Lower bounds floor[k], k = 0..K_max, non-increasing in k, on the cost
    of every model that differs from base in at most k coordinates (the
    best-subset cost C*(k)); floor[0] is cost(base).

    Size k solves every k-subset S from the base, G_SS delta = r_S with
    r = g - G base, and takes the least attained cost v less its rounding
    band, 8 k eps (sum_{j in S} |delta_j| sqrt(G_jj))^2 + 1e-12 |v|. Sizes
    from d on, and those past the subsets the budget allows in all, get the
    full least-squares fit's bound: no C*(k) is below it. Subsets of every
    size, ascending, and the full fit share solve_batch calls: each stack
    holds at most _CHUNK_ENTRIES entries, its items padded to its largest
    size by an identity block scaled to the item's largest diagonal entry of
    G_SS, which solves to zero steps and leaves the item's largest
    eigenvalue, so its pinv cut-off, as it is. Costs are clamped at 0, so
    the floor is too.
    """
    d = stats.d
    Gx, r = np.zeros((d + 1, d + 1)), np.zeros(d + 1)  # coordinate d pads a stack
    Gx[:d, :d], r[:d] = stats.gram, stats.residual_cross(base.coefficients)
    gd = np.diag(Gx)
    c0 = cost_of(stats, base.coefficients)
    sizes, solved = [], 0
    for k in range(1, min(K_max + 1, d)):
        solved += math.comb(d, k)
        if solved > budget:
            break
        sizes.append(k)
    queue = [[k, math.comb(d, k)] for k in sizes + [d]]  # [size, subsets left]
    subsets = itertools.chain.from_iterable(itertools.chain.from_iterable(
        itertools.combinations(range(d), k) for k in sizes + [d]))
    least = np.full(d + 1, np.inf)  # by size
    while queue:
        parts, n = [], 0
        while queue and (take := min(queue[0][1], max(1, _CHUNK_ENTRIES // queue[0][0]**2) - n)) > 0:
            parts.append((queue[0][0], take))
            n, queue[0][1] = n + take, queue[0][1] - take
            if not queue[0][1]:
                queue.pop(0)
        ks = np.repeat(*np.transpose(parts))
        m = parts[-1][0]
        S = np.full((n, m), d)
        S[ks[:, None] > np.arange(m)] = np.fromiter(subsets, np.intp, count=ks.sum())
        H, b = Gx[S[:, :, None], S[:, None, :]], r[S]
        H.reshape(n, -1)[:, ::m + 1] += (S == d) * gd[S].max(axis=1, keepdims=True)
        delta, Hd = solve_batch(H, b)
        v = attained_objectives(c0, H, b, delta, Hd)
        spread = np.einsum("bk,bk->b", np.abs(delta), np.sqrt(gd)[S])
        np.minimum.at(least, ks, v - 8 * ks * _EPS * spread * spread - 1e-12 * np.abs(v))
    floor = np.full(K_max + 1, least[d])
    floor[0] = c0
    floor[1:len(sizes) + 1] = least[1:len(sizes) + 1]
    return np.maximum(np.minimum.accumulate(floor), 0.0)


def _cost_floor_near(stats: SufficientStats, model: LinearModel, ulps: int) -> float:
    """A lower bound on the evaluated cost of any model within `ulps` ulps
    of `model` in each coordinate: cost(model) less 8 (ulps + d) eps times
    E[y^2] + 2 |t|'|g| + (sum_j |t_j| sqrt(G_jj))^2 at its coefficients t,
    the scale both of the rounding in evaluating a cost there and of the
    cost's change over those ulps."""
    t = np.abs(model.coefficients)
    scale = (stats.target_second_moment + 2 * t @ np.abs(stats.cross)
             + (t @ np.sqrt(np.diag(stats.gram))) ** 2)
    return float(cost(stats, model) - 8 * (ulps + stats.d) * _EPS * scale)


def check_budget(d: int, K: int, budget: int) -> None:
    """Raise BudgetError if the d^K patterns of an exact continuous search
    exceed the budget; a power far over it is only taken in log space."""
    digits = K * math.log10(d)
    n = d**K if digits < max(15.0, math.log10(budget) + 1) else math.inf
    if n > budget:
        raise BudgetError(f"exact search needs {_amount(n, digits)} inner solves, over the "
                          f"budget of {budget:,}; raise the budget or use local_improvement")


def _amount(n, digits: float) -> str:
    """A count n of `digits` decimal digits, exact up to 15 digits."""
    return f"{n:,}" if digits < 15 else f"about 10^{digits:.1f}"


def exact_paths(stats: SufficientStats, base: LinearModel, alphas: np.ndarray,
                endpoint: LinearModel | None = None) -> list[CoordinatePath]:
    """exact_path's search of the d^K patterns, free or pinned to `endpoint`,
    under each row of a stack of weight rows alphas (L, K), K >= 1, as its
    schedule. Its callers, exact_path and pareto._solve_grid, check first
    that the rows are valid (as_weights), that d^K is within the budget
    (check_budget, an upper bound) and that K steps can reach the endpoint
    (_check_reachable).

    Two routes serve the rows, and one mask sends them: every free row,
    and every pinned row with K >= 2 and a positive last weight, share one
    _enum_fast pass, whatever the gram and zero weights. The rest, and the
    rows that pass marks as broken, run _enum_direct one at a time (a
    pinned step at tail weight 0 still moves the endpoint, which no null
    step expresses). Each row's winning pattern, from either route, is then
    solved by one solve_patterns call under its own weight row, so every
    path is bitwise the one a one-row call returns.
    """
    K = alphas.shape[1]
    target = None if endpoint is None else endpoint.coefficients
    fast = (alphas[:, -1] > 0) & (K >= 2) if target is not None else np.ones(len(alphas), bool)
    ivs = np.zeros(alphas.shape, dtype=np.int64)
    if fast.any():
        _, ivs[fast], broken = _enum_fast(stats, base.coefficients, K, alphas[fast], target)
        fast[np.flatnonzero(fast)[broken]] = False
    for j in np.flatnonzero(~fast):
        ivs[j] = _enum_direct(stats, base, K, alphas[j], endpoint)[1]
    deltas = solve_patterns(stats, base.coefficients, ivs, alphas, target)[0]
    return [path_from_deltas(base, iv, delta) for iv, delta in zip(ivs, deltas)]


# ---------------------------------------------------------------------------
# Local improvement heuristic
# ---------------------------------------------------------------------------


def _default_iv0(stats: SufficientStats, base: LinearModel, cfg: OptimizerConfig) -> np.ndarray:
    if cfg.endpoint is None:
        return np.asarray([i for i, _ in greedy_path(stats, base, cfg.K).steps], dtype=int)
    # Endpoint mode needs the support covered; install it in direct-path
    # order, then cycle to fill the remaining slots.
    _check_reachable(base, cfg.endpoint, cfg.K)
    support = np.nonzero(cfg.endpoint.coefficients - base.coefficients)[0]
    if len(support) == 0:
        return np.zeros(cfg.K, dtype=int)
    order = _install_order(stats, base, cfg.endpoint, support, len(support))
    return np.resize(np.asarray(order, dtype=int), cfg.K)


def _solve_small(S: np.ndarray, s: np.ndarray):
    """Solve a stack of small PSD systems S y = s, (..., q, q) and (..., q),
    by Gaussian elimination without pivoting; returns (y, the pivots (..., q))."""
    S, s = S.copy(), s.copy()
    q = s.shape[-1]
    for j in range(q - 1):
        f = S[..., j + 1:, j] / S[..., j, j, None]
        S[..., j + 1:, j + 1:] -= f[..., :, None] * S[..., None, j, j + 1:]
        s[..., j + 1:] -= f * s[..., j, None]
    piv = np.diagonal(S, axis1=-2, axis2=-1)
    y = s / piv
    for j in range(q - 2, -1, -1):
        y[..., j] -= (S[..., j, j + 1:] * y[..., j + 1:]).sum(axis=-1) / piv[..., j]
    return y, piv


class _Screen:
    """Screened objectives of local-search reassignments, for a free endpoint
    and positive weights alpha; `assignments` (m, q) are the d^q coordinate
    tuples in lexicographic order.

    Iteration i of a window moves the sorted positions P = positions[i] of
    the incumbent iv, and its other positions A keep their coordinates, so
    its candidates share one block H_AA of the inner matrix. One batched
    solve with H_AA, whose right-hand sides are b_A and the columns H_AP of
    every coordinate c at each moving position p, min(w_a, w_p) G[iv_a, c],
    leaves each reassignment a q x q Schur complement
    S = H_PP - H_PA H_AA^-1 H_AP with s = b_P - H_PA H_AA^-1 b_A, and the
    objective top - b_A'z - s'S^-1 s, z = H_AA^-1 b_A, top = sum(alpha)
    cost(base).
    """

    def __init__(self, stats: SufficientStats, base: np.ndarray, alpha: np.ndarray,
                 assignments: np.ndarray):
        d, q = stats.d, assignments.shape[1]
        self.G, self.d, self.q = stats.gram, d, q
        self.w = tail_weights(alpha)
        self.W = np.minimum(self.w[:, None], self.w[None, :])
        self.r = stats.residual_cross(base)
        self.top = float(alpha.sum()) * cost_of(stats, base)
        self.cols = np.arange(q) * d + assignments  # each moved position's column (p, c)
        self.pairs = self.cols[:, :, None] * (q * d) + self.cols[:, None, :]
        self.G_PP = self.G[assignments[:, :, None], assignments[:, None, :]]
        self.gd_P = np.diag(self.G)[assignments]
        self.place = d ** np.arange(q - 1, -1, -1)

    # A zero-variance coordinate makes a pivot 0; such windows are not screened.
    @np.errstate(divide="ignore", invalid="ignore")
    def __call__(self, iv: np.ndarray, positions: np.ndarray, margin: float):
        """(vals, sure), both (n, m), for the n iterations' positions (n, q),
        or None if a pivot of H_AA or S falls to _PIVOT_RTOL of its scale.

        The candidate that reproduces iv gets +inf. A value is sure unless its
        rounding, about K eps (sum_k |delta_k| sqrt(H_kk))^2 for its step sizes
        delta (bounded here through z and the solved columns), may exceed
        margin / 32, as it can far along a near-null direction: the screen
        and solve_patterns each round by a small multiple of that, and a sure
        value must stay within half a margin of solve_patterns'.
        """
        n, q, d, K = positions.shape[0], self.q, self.d, iv.shape[0]
        keep = np.ones((n, K), dtype=bool)
        keep[np.arange(n)[:, None], positions] = False
        A = np.nonzero(keep)[1].reshape(n, K - q)
        Gi = self.G[iv]
        H = (self.W * Gi[:, iv])[A[:, :, None], A[:, None, :]]
        hd = H.reshape(n, -1)[:, ::K - q + 1]
        rhs = np.empty((n, K - q, 1 + q * d))
        rhs[:, :, 0] = (self.w * self.r[iv])[A]
        rhs[:, :, 1:] = (self.W[:, :, None] * Gi[:, None, :])[
            A[:, :, None], positions[:, None, :]].reshape(n, K - q, q * d)
        try:
            chol = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            return None
        if not (chol.reshape(n, -1)[:, ::K - q + 1] ** 2 > _PIVOT_RTOL * hd).all():
            return None
        X = np.linalg.solve(H, rhs)
        z, XP, BP = X[:, :, 0], X[:, :, 1:], rhs[:, :, 1:]
        wP = self.w[positions]
        s = ((wP[:, :, None] * self.r).reshape(n, q * d)
             - np.einsum("nkj,nk->nj", BP, z))[:, self.cols]
        U = np.matmul(BP.transpose(0, 2, 1), XP).reshape(n, -1)
        S = np.minimum(wP[:, :, None], wP[:, None, :])[:, None] * self.G_PP - U[:, self.pairs]
        hP = wP[:, None, :] * self.gd_P
        y, piv = _solve_small(S, s)
        if not (piv > _PIVOT_RTOL * hP).all():
            return None
        vals = self.top - np.einsum("nk,nk->n", rhs[:, :, 0], z)[:, None] - (s * y).sum(axis=-1)
        vals[np.arange(n), iv[positions] @ self.place] = np.inf
        xi = np.matmul(np.abs(X).transpose(0, 2, 1), np.sqrt(hd)[:, :, None])[:, :, 0]
        spread = xi[:, :1] + (np.abs(y) * (xi[:, 1:][:, self.cols] + np.sqrt(hP))).sum(axis=-1)
        return vals, K * _EPS * spread * spread <= margin / 32


def _draw_positions(rng: np.random.Generator, K: int, q: int, n: int) -> list[tuple]:
    """The next n draws of np.sort(rng.choice(K, size=q, replace=False)), as
    tuples, from one rng.integers call.

    choice runs Floyd's algorithm: for j = K-q .. K-1 it draws v in [0, j]
    and picks v, or j if v is picked already. It then shuffles the q picks
    with q-1 more draws, in [0, i] for i = q-1 .. 1; the sort undoes them,
    but they consume the stream all the same. integers with these bounds,
    one per column, makes the same bounded draws in the same order. choice
    switches to a tail shuffle when K > 10,000 and q > K // 50; a search
    gets there only at d = 1, where every candidate is the same pattern.
    """
    highs = np.r_[np.arange(K - q + 1, K + 1), np.arange(q, 1, -1)]
    picks = rng.integers(0, highs, size=(n, 2 * q - 1))[:, :q]
    for c in range(1, q):
        taken = (picks[:, :c] == picks[:, c, None]).any(axis=1)
        picks[taken, c] = K - q + c
    picks.sort(axis=1)
    return list(map(tuple, picks.tolist()))


def local_improvement(stats: SufficientStats, base: LinearModel, cfg: OptimizerConfig,
                      iv0=None) -> CoordinatePath:
    """Randomized batch local search over index vectors, warm-started.

    Per iteration, at most cfg.T of them, draw q step positions uniformly
    without replacement and scan all d^q coordinate reassignments of those
    positions, inner-solving each candidate; the first best candidate
    replaces the incumbent only when it improves the objective by more than
    1e-12 (guards against cycling). Improvements carry over to the next
    iteration, and cfg.patience consecutive iterations without one end the
    search, as does having scored every set of q positions against the
    incumbent. Reproducible for a fixed cfg.seed.

    Iterations are scored a window at a time: the candidates of several
    consecutive iterations, each built against the current incumbent, are
    scored together, and the iterations are then replayed in order under the
    rules above. An iteration's positions never depend on results, so they
    are drawn in iteration order into a queue, a block at a time
    (_draw_positions). An improvement ends its window: the rest of the
    window was built against the old incumbent, so its queued positions are
    scored again against the new one. An iteration whose positions were
    already scored against the incumbent is skipped: its candidates, and so
    their objectives, are the same, and they did not improve (after an
    improvement, its own positions count as scored). Once
    all C(K, q) sets count as scored, no later iteration can improve, so a
    window without improvement then ends the search. A window scores up to
    _WINDOW_CANDIDATES candidates.

    With a free endpoint and positive weights, each window is screened
    first (_Screen: one solve with the block of the positions that stay,
    then a q x q Schur complement per candidate), and the screen only rules
    candidates out. It skips the candidate that reproduces the incumbent.
    An iteration whose least screened value exceeds best_obj - 1e-12 by
    more than a rounding margin, 1e-9 max(1, |best_obj|), cannot improve.
    Otherwise the candidates within the margin of its least screened value,
    and any whose screened value may be off by more than the margin allows,
    are scored by solve_patterns in their original order, and only those
    objectives decide the argmin, the improvement and the step sizes.
    Windows whose H_AA or S pivots fall to _PIVOT_RTOL of their scale,
    schedules with a zero weight and pinned endpoints score every candidate
    with solve_patterns instead. Windows start full, except in free searches
    with a zero weight, where full windows measured 1.19-1.54x slower on a
    2-core VM: there windows start one iteration wide and double after a
    window without improvement.
    solve_patterns computes each item on its own, so every objective that
    decides, and hence the path, is bitwise that of a search that scores
    each iteration's d^q candidates in one call.
    """
    K = cfg.K
    check_base(stats, base)
    if K == 0:
        return exact_path(stats, base, cfg)
    if cfg.step_mode != "continuous":
        raise InputError("local_improvement supports continuous steps only")
    if iv0 is None:
        iv = _default_iv0(stats, base, cfg)
    else:
        iv = check_index_vector(iv0, stats.d)
        if iv.shape[0] != K:
            raise InputError(f"iv0 has length {iv.shape[0]}, expected K={K}")
    alpha = as_weights(cfg.schedule, K)

    target = None if cfg.endpoint is None else cfg.endpoint.coefficients
    if target is not None:
        check_endpoint(stats, base, iv, cfg.endpoint)
    deltas, vals = solve_patterns(stats, base.coefficients, iv[None], alpha, target)
    best_obj, best_iv, best_delta = float(vals[0]), iv, deltas[0]
    assignments = np.asarray(list(itertools.product(range(stats.d), repeat=cfg.q)), dtype=int)
    m = assignments.shape[0]
    cap = max(1, _WINDOW_CANDIDATES // m)
    screen = (_Screen(stats, base.coefficients, alpha, assignments)
              if target is None and np.all(alpha > 0) else None)
    # Iterations to score in a window after an improvement (see above).
    first = 1 if target is None and screen is None else cap
    rng = np.random.default_rng(cfg.seed)
    queue = []  # drawn positions of the iterations not yet replayed
    tried = set()  # positions scored against the incumbent without improvement
    n_sets = math.comb(K, cfg.q)
    done = stale = 0
    width = first
    while done < cfg.T:
        # The window runs until it holds `width` iterations to score. One whose
        # positions were scored against this incumbent cannot improve: its
        # candidates, and so their objectives, are the same. Once every set
        # was scored, no later iteration can improve.
        end = cfg.T - done if cfg.patience is None else min(cfg.T - done, cfg.patience - stale)
        live, n = [], 0
        while len(live) < width and n < end and len(tried) < n_sets:
            if n == len(queue):
                queue += _draw_positions(rng, K, cfg.q, min(_DRAW_BLOCK, cfg.T - done - n))
            if queue[n] not in tried:
                tried.add(queue[n])
                live.append(n)
            n += 1
        positions = np.array([queue[i] for i in live], dtype=int).reshape(-1, cfg.q)
        rows = np.arange(len(live) * m)  # candidate a of the i-th live iteration at i*m + a
        bar = best_obj - 1e-12  # what an improvement must beat
        screened = None
        if screen is not None and live:
            margin = 1e-9 * max(1.0, abs(best_obj))
            screened = screen(best_iv, positions, margin)
        if screened is not None:
            svals, sure = screened
            low = np.where(sure, svals, np.inf).min(axis=1, keepdims=True)
            near = (svals <= low + margin) & (low <= bar + margin)
            pick = near | ~sure
            won = np.flatnonzero(low < bar - margin)
            if won.size:  # that iteration improves, so none after it is the first to
                pick[won[0] + 1:] = False
            rows = rows[np.flatnonzero(pick)]
        ivs = np.repeat(best_iv[None, :], rows.size, axis=0)
        ivs[np.arange(rows.size)[:, None], positions[rows // m]] = assignments[rows % m]
        vals = np.full(len(live) * m, np.inf)
        if rows.size:
            deltas, vals[rows] = solve_patterns(stats, base.coefficients, ivs, alpha, target)
        js = np.argmin(vals.reshape(-1, m), axis=1) + m * np.arange(len(live))
        hits = np.flatnonzero(vals[js] < bar)
        t = live[hits[0]] if hits.size else n  # iterations without improvement first
        if cfg.patience is not None and t and stale + t >= cfg.patience:
            break  # patience ran out within the window, before any improvement
        if t == n:
            if len(tried) == n_sets:
                break  # the incumbent is final
            stale += n
            width = min(2 * width, cap)
        else:
            j = js[hits[0]]
            k = np.searchsorted(rows, j)
            best_obj, best_iv, best_delta = float(vals[j]), ivs[k], deltas[k]
            stale = 0
            width = first
            n = t + 1  # the rest of the window is scored again
            tried = {queue[t]}  # its candidates are the new incumbent's with these positions
        done += n
        del queue[:n]
    return path_from_deltas(base, best_iv, best_delta)


# ---------------------------------------------------------------------------
# Best explanations (fixed endpoint over a range of lengths)
# ---------------------------------------------------------------------------


def best_explanation(stats: SufficientStats, base: LinearModel, target: LinearModel,
                     schedule: WeightSchedule, K_max: int,
                     budget: int = DEFAULT_BUDGET) -> CoordinatePath:
    """Cheapest path from base that ends exactly at target, over lengths
    model_complexity .. K_max. The path's weighted_loss is the model's
    interpretability loss (a lower bound holds only up to K_max; longer
    explanations are not searched). Raises BudgetError before any search if
    the longest length's d**K_max patterns exceed the budget.

    The first length, the target's complexity c, is always searched. If
    K_max > c, a best-subset cost floor is then computed once
    (_best_subset_floor, solving no more subsets than d**c, a d-th of the
    d**(c+1) patterns of the first length it can rule out, nor more than
    the budget). Model k of a path differs from the
    base in at most k coordinates, so it costs at least floor[k], and model
    K is the target: no length-K path scores below sum_{k<K} alpha_k
    floor[k] + alpha_K cost(target). A longer length is searched unless
    that bound exceeds the best loss so far by more than _OBJECTIVE_RTOL
    max(1, |best|) (_rules_out, the sweep's rule too); a length replaces
    the incumbent only on a lower loss (_beats), so the path is the one a
    search of every length returns. The floor's rounding band covers its
    terms, and the target term has its own (_cost_floor_near): the loss
    evaluates the path's final model, which is the target only up to the
    rounding of its summed steps, and on near-collinear grams, where the
    fit's coefficients run to 1e6, such a model evaluated 4.7e-4 below
    cost(target). The band covers a final model within K_max ulps of the
    target in each coordinate; steps that overshoot a coordinate far along
    a near-null direction can leave it further off, which the margin covers
    unless that drift reaches 1e-9 max(1, |best|). No term is below 0, so
    once sum_{k<K} alpha_k floor[k] alone rules out, every longer length
    does too and the loop ends; the weights of all lengths are validated
    after the first search, so a schedule too short for K_max raises for
    the first length it cannot give, as a search of every length would.
    """
    if K_max < 0:
        raise InputError("K_max must be >= 0")
    check_base(stats, base)
    complexity = model_complexity(base, target)
    if K_max < complexity:
        raise InfeasibleError(f"K_max={K_max} is below the target's complexity {complexity}")
    if complexity == 0:
        # Extra steps can only add nonnegative weighted cost terms.
        return CoordinatePath(base, ())
    check_budget(stats.d, K_max, budget)  # the longest length's count, before any search
    best = (math.inf, None)  # (loss, path); ties keep the shorter path
    for K in range(complexity, K_max + 1):
        if K == complexity + 1:  # after the first search: every length's weights, the bound's terms
            as_weights(schedule, min(K_max, len(schedule.values or range(K_max)) + 1))
            floor = _best_subset_floor(stats, base, K_max - 1, min(budget, stats.d**complexity))
            end = _cost_floor_near(stats, target, K_max)
        if K > complexity:
            alpha = as_weights(schedule, K)
            spent = float(alpha[:-1] @ floor[1:K])
            if _rules_out(spent, best[0]):
                break  # and so does every longer length's
            if _rules_out(spent + float(alpha[-1]) * end, best[0]):
                continue
        cfg = OptimizerConfig(K=K, schedule=schedule, endpoint=target, budget=budget)
        path = exact_path(stats, base, cfg)
        loss = weighted_loss(stats, path, schedule)
        if _beats(loss, best[0]):
            best = (loss, path)
    return best[1]


def explanation_loss(stats: SufficientStats, base: LinearModel, target: LinearModel,
                     schedule: WeightSchedule, K_max: int,
                     budget: int = DEFAULT_BUDGET) -> float:
    """Interpretability loss of the best explanation; +inf when unreachable."""
    try:
        path = best_explanation(stats, base, target, schedule, K_max, budget)
    except InfeasibleError:
        return math.inf
    return weighted_loss(stats, path, schedule)
