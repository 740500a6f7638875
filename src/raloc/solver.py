"""Nonlinear least-squares MAP engine with fixed-lag window support.

Variables live on manifolds (poses) or vector spaces (biases, offset
states); factors supply whitened residual/Jacobian rows. Optimization is
Levenberg-Marquardt on the normal equations with on-manifold updates.
Aged variables are folded into a dense marginal prior by Schur complement
at the current linearization point. A sliding window folds them from the
rows the last solve already formed there (its ``Linearization``), so a
slide evaluates no factor a second time (the sliding-window practice of
Sibley, Matthies & Sukhatme, JFR 2010).

A factor has ``keys`` and ``evaluate(*values) -> Residual`` (see
:mod:`raloc.factors`). One linearization groups the factors by class, in
first-seen order. A class with a stacked form (``stack``) is evaluated once
for all of its factors, on values gathered into (N, ...) arrays; any other
factor is a group of one. Every group's whitened rows are scattered into a
stacked Jacobian ``J`` and residual ``r`` through index arrays; the cost,
``H = J^T J`` and ``g = -J^T r`` all come from those rows. The grouping and
the index arrays (the layout) depend only on the factor tuple and the key
order, so the graph keeps the last one and reuses it across the LM
candidates of one solve. LM linearizes each candidate step once: the
candidate's cost decides acceptance, and an accepted candidate's system
serves the next iteration and the covariance query.

The normal equations are solved by Cholesky in one of two forms (see
``_cholesky``). Windows stay below ``_DENSE_DIM`` tangent dimensions, where
``H`` is dense and one LAPACK factorization is both fastest and
deterministic. A larger system, the whole-log batch graph, keeps ``H``
sparse: its poses form a chain whose block is banded, and every other
variable kind is a narrow border. The pose block is factored banded and the
border through its Schur complement, so the solve is O(n) in the number of
poses rather than O(n^3) (the variable-ordering argument of Dellaert &
Kaess, Square Root SAM, IJRR 2006).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import accumulate
from operator import is_, itemgetter
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dpotrf, dpotrs

from .factors import Residual
from .lie import batch_log_jr_inv, exp, retract_poses

KIND_POSE = "robot_pose"
KIND_BIAS = "anchor_bias"
KIND_OFFSET = "offset_state"

# widest system whose stacked Jacobian is kept dense (see _normal_equations)
_DENSE_DIM = 256

_DIMS = {KIND_POSE: 6, KIND_BIAS: 1, KIND_OFFSET: 6}

_AXES = {
    KIND_POSE: ("rho_x", "rho_y", "rho_z", "phi_x", "phi_y", "phi_z"),
    KIND_BIAS: ("bias",),
    KIND_OFFSET: ("p_x", "p_y", "p_z", "v_x", "v_y", "v_z"),
}


class VariableKey(tuple):
    """Identity of one latent variable: the tuple ``(kind, index, epoch)``.

    ``epoch`` distinguishes successive bias variables for the same anchor;
    the stamp is bookkeeping only and does not participate in identity.
    Keys are dict keys on every assembly hot path, so they hash and compare
    as plain tuples, in C.
    """

    kind = property(itemgetter(0))
    index = property(itemgetter(1))
    epoch = property(itemgetter(2))

    def __new__(cls, kind: str, index: int, epoch: int = 0, stamp: float = 0.0):
        self = super().__new__(cls, (kind, index, epoch))
        self.stamp = stamp
        self.dim = _DIMS[kind]
        return self

    def __getnewargs__(self):
        return (*self, self.stamp)

    @staticmethod
    def pose(index: int, stamp: float) -> "VariableKey":
        return VariableKey(KIND_POSE, index, 0, stamp)

    @staticmethod
    def bias(anchor_id: int, epoch: int = 0) -> "VariableKey":
        return VariableKey(KIND_BIAS, anchor_id, epoch)

    @staticmethod
    def offset(index: int, stamp: float) -> "VariableKey":
        return VariableKey(KIND_OFFSET, index, 0, stamp)

    def __repr__(self) -> str:
        if self.kind == KIND_BIAS:
            return f"bias(a{self.index}, e{self.epoch})"
        short = "pose" if self.kind == KIND_POSE else "offset"
        return f"{short}({self.index}, t={self.stamp:.3f})"


def retract(value, delta: np.ndarray, kind: str):
    """Apply a tangent-space step to a variable of the given kind."""
    if kind == KIND_POSE:
        return value @ exp(delta)
    if kind == KIND_BIAS:
        return float(value) + float(delta[0])
    return np.asarray(value, dtype=float) + delta


class MarginalPrior:
    """Dense prior over the variables bordering a marginalized set.

    Holds the Schur-complement information matrix and vector on the joint
    tangent space at a frozen linearization point, and evaluates as a
    square-root residual so the solver can treat it like any other factor.
    Rank deficiency is handled by truncating non-positive eigenvalues.
    """

    def __init__(self, keys, info: np.ndarray, info_vec: np.ndarray, lin_point: dict):
        self.keys = tuple(keys)
        self.info = 0.5 * (info + info.T)
        self.info_vec = np.asarray(info_vec, dtype=float)
        self.lin_point = dict(lin_point)
        eigval, eigvec = np.linalg.eigh(self.info)
        # the threshold is >= 0, so this also drops non-positive eigenvalues
        keep = eigval > eigval.max(initial=0.0) * 1e-12
        root = np.sqrt(eigval[keep])
        self._sqrt = (eigvec[:, keep] * root).T
        with np.errstate(divide="ignore", invalid="ignore"):
            self._rhs = (eigvec[:, keep].T @ self.info_vec) / root
        # pose keys take a batched log of lin^-1 value, with Jr^-1 of it as
        # their Jacobian factor; the others a plain difference, identity
        dims = [k.dim for k in self.keys]
        offsets = list(accumulate(dims, initial=0))
        is_pose = [k.kind == KIND_POSE for k in self.keys]
        self._poses = [i for i, pose in enumerate(is_pose) if pose]
        self._vectors = [i for i, pose in enumerate(is_pose) if not pose]
        pose_cols = np.repeat(np.array(is_pose, dtype=bool), dims)
        self._pose_cols = np.flatnonzero(pose_cols)
        self._vector_cols = np.flatnonzero(~pose_cols)
        self._jacobians = [self._sqrt[:, a:b] for a, b in zip(offsets, offsets[1:])]
        # (poses, rows, 6) blocks of sqrt that Jr^-1 multiplies
        if self._poses:
            self._pose_sqrt = np.stack([self._jacobians[i] for i in self._poses])
            self._lin_inv = _stacked_poses(
                [self.lin_point[self.keys[i]].inverse() for i in self._poses]
            )
        self._lin_vector = _flat([self.lin_point[self.keys[i]] for i in self._vectors])

    def __len__(self) -> int:
        return self._sqrt.shape[0]

    def evaluate(self, *values) -> Residual:
        """Already-whitened rows ``sqrt @ d - rhs`` of the tangent difference ``d``."""
        d = np.empty(self._sqrt.shape[1])
        d[self._vector_cols] = _flat([values[i] for i in self._vectors]) - self._lin_vector
        jacobians = list(self._jacobians)
        if self._poses:
            R, p = _stacked_poses([values[i] for i in self._poses])
            Li, li = self._lin_inv
            deltas, jr_inv = batch_log_jr_inv(Li @ R, (Li @ p[:, :, None])[:, :, 0] + li)
            d[self._pose_cols] = deltas.reshape(-1)
            blocks = self._pose_sqrt @ jr_inv
            for i, block in zip(self._poses, blocks):
                jacobians[i] = block
        value = self._sqrt @ d - self._rhs
        return Residual(value, tuple(jacobians), None)


def _flat(values: list) -> np.ndarray:
    # biases are floats and offset states 6-vectors; mixed kinds concatenate
    try:
        return np.array(values, dtype=float).reshape(-1)
    except ValueError:
        return np.concatenate([np.ravel(v) for v in values])


def _stacked_poses(poses) -> tuple[np.ndarray, np.ndarray]:
    return np.array([T.rotation for T in poses]), np.array([T.position for T in poses])


@dataclass(frozen=True, eq=False)
class Linearization:
    """Gauss-Newton system of a graph at one set of values, and the rows behind it.

    ``H`` and ``g`` are laid out by ``keys``/``offsets``; ``H`` is a dense
    array up to ``_DENSE_DIM`` columns and a sparse array past it. ``point`` and
    ``factors`` are the exact value and factor objects the system was built
    from, ``point`` in ``keys`` order; ``is_current`` compares them by
    identity, so a system is never reused once a value or factor has changed.
    ``r`` and ``entries`` are the whitened residual and Jacobian entries, and
    ``layout``/``index`` say which factor, row and column each belongs to, so
    ``marginalize`` can re-read the rows of some factors without evaluating
    them again. A sparse system keeps no ``entries`` (None): only the
    whole-log batch solve, which marginalizes nothing, is that wide, and
    holding them would raise its peak memory.
    """

    cost: float
    H: np.ndarray | scipy.sparse.sparray
    g: np.ndarray
    keys: list
    offsets: dict
    point: tuple
    factors: tuple
    r: np.ndarray
    entries: np.ndarray | None
    layout: _Layout
    index: _Index

    def is_current(self, graph: FactorGraph) -> bool:
        """Whether a fresh whole-graph assembly would rebuild exactly this system."""
        return (
            _identical(self.keys, graph.values)
            and _identical(self.point, graph.values.values())
            and _identical(self.factors, graph.factors)
        )


def _identical(a, b) -> bool:
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and all(map(is_, a, b))


class FactorGraph:
    """Keyed variables plus factors; owns the current estimates.

    Single-owner object: one graph per estimator instance. Two independent
    graphs never share state and may be driven from separate contexts.
    """

    def __init__(self):
        self.values: dict[VariableKey, object] = {}
        self.factors: list = []
        self._layout: _Layout | None = None

    def add_variable(self, key: VariableKey, value) -> None:
        if key in self.values:
            raise ValueError(f"duplicate variable {key}")
        self.values[key] = value

    def add_factor(self, factor) -> None:
        for key in factor.keys:
            if key not in self.values:
                raise ValueError(f"factor references unknown variable {key}")
        self.factors.append(factor)

    def cost(self, values: dict | None = None) -> float:
        values = self.values if values is None else values
        rows = self._layout_for(tuple(self.factors), list(values)).whitened(values)
        r = _concat([wr for wr, _ in rows])
        return 0.5 * float(r @ r)

    def linearize(self, values: dict | None = None, keys=None, factors=None) -> Linearization:
        """Evaluate every factor once and form the Gauss-Newton system.

        Each group's whitened rows go into one stacked Jacobian ``J`` and
        residual ``r`` over the key ordering (default: the order of
        ``values``); ``H = J^T J``, ``g = -J^T r`` and ``cost = |r|^2 / 2``
        all come from those rows. ``values`` defaults to the graph's own
        estimates and ``factors`` to all of its factors.
        """
        values = self.values if values is None else values
        factors = tuple(self.factors if factors is None else factors)
        layout = self._layout_for(factors, list(values if keys is None else keys))
        r, entries, H, g = layout.system(layout.whitened(values))
        point = tuple(values.values() if keys is None else (values[k] for k in layout.keys))
        return Linearization(
            0.5 * float(r @ r), H, g, layout.keys, layout.offsets, point, factors,
            r, None if scipy.sparse.issparse(H) else entries, layout, layout.index,
        )

    def _layout_for(self, factors: tuple, keys: list) -> "_Layout":
        layout = self._layout
        if layout is None or not (
            _identical(layout.factors, factors) and _identical(layout.keys, keys)
        ):
            layout = self._layout = _Layout(factors, keys)
        return layout

    def _stepped(self, step: np.ndarray, keys, offsets) -> dict:
        out = dict(self.values)
        poses = []
        for key in keys:
            if key.kind == KIND_POSE:
                poses.append(key)
            else:
                a = offsets[key]
                out[key] = retract(out[key], step[a : a + key.dim], key.kind)
        if poses:
            cols = np.array([offsets[k] for k in poses])[:, None] + np.arange(6)
            out.update(zip(poses, retract_poses([out[k] for k in poses], step[cols])))
        return out


class _Index(NamedTuple):
    """Where a layout's Jacobian entries and rows sit, for one set of group row counts.

    ``rows``/``cols`` are every entry's row and column in the order
    ``_Layout.system`` ravels them, ``flat`` the two as one index into a dense
    ``J``, and ``row_factor`` the position in the factor tuple of the factor
    that owns each row.
    """

    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray
    row_factor: np.ndarray


class _Layout:
    """How one factor tuple over one key order is evaluated and scattered.

    Factors are grouped by class in first-seen order. A class with a stacked
    form becomes one stacked instance; the values its ``evaluate`` reads are
    gathered per call from one table per variable kind (poses as rotation
    and position arrays) through index arrays. Any other factor is a group
    of one that reads its values directly. ``key_factor``/``columns`` hold
    the position in the factor tuple and the first column of every factor
    key. The row and column of every Jacobian entry, and the factor of every
    row (``index``), follow from the groups' row counts, which the first
    evaluation supplies; they are rebuilt only if those counts change.
    """

    def __init__(self, factors: tuple, keys: list):
        self.factors = factors
        self.keys = keys
        self.offsets, self.dim = {}, 0
        where, tables = {}, {}  # key: (first column, row in its kind's table)
        for key in keys:
            table = tables.setdefault(key.kind, [])
            where[key] = (self.dim, len(table))
            self.offsets[key] = self.dim
            self.dim += _DIMS[key.kind]
            table.append(key)
        members = {}  # group: positions of its factors in ``factors``
        for i, f in enumerate(factors):
            cls = type(f)
            members.setdefault(cls if hasattr(cls, "stack") else id(f), []).append(i)
        # a slot is one argument of one group's evaluate: its group, factor
        # count, width and first entry in ``at``, the (column, table row) of
        # every factor's key
        self.groups = []  # (kernel, per argument (kind, table rows) or None)
        slots, at, key_factor = [], [], []
        for positions in members.values():
            group = [factors[i] for i in positions]
            cls = type(group[0])
            gathers = [] if hasattr(cls, "stack") else None
            for slot_keys in zip(*(f.keys for f in group)):
                try:
                    slot_at = [where[k] for k in slot_keys]
                except KeyError as err:
                    raise ValueError(
                        f"factor key {err.args[0]} outside the requested ordering"
                    ) from None
                kind = slot_keys[0].kind
                slots.append((len(self.groups), len(group), _DIMS[kind], len(at)))
                at.extend(slot_at)
                key_factor.extend(positions)
                if gathers is not None:
                    gathers.append((kind, np.array([row for _, row in slot_at])))
            self.groups.append((group[0] if gathers is None else cls.stack(group), gathers))
        self.columns = np.array(at, dtype=int).reshape(-1, 2)[:, 0]
        self.key_factor = np.array(key_factor, dtype=int)
        self.slot_group, self.slot_count, self.slot_width, self.slot_start = (
            np.array(slots, dtype=int).reshape(-1, 4).T
        )
        self.group_factors = [np.array(p, dtype=int) for p in members.values()]
        used = {kind for _, gathers in self.groups for kind, _ in gathers or ()}
        self.tables = {kind: tables[kind] for kind in used}
        self.sizes = None
        self.index = None

    def whitened(self, values: dict) -> list:
        """Each group's whitened rows and Jacobians, in group order."""
        tables = {}
        for kind, keys in self.tables.items():
            vals = [values[k] for k in keys]
            tables[kind] = _stacked_poses(vals) if kind == KIND_POSE else np.array(vals, float)
        out = []
        for kernel, gathers in self.groups:
            if gathers is None:
                res = kernel.evaluate(*[values[k] for k in kernel.keys])
            else:
                res = kernel.evaluate(*[
                    (tables[kind][0].take(idx, 0), tables[kind][1].take(idx, 0))
                    if kind == KIND_POSE else tables[kind].take(idx, 0)
                    for kind, idx in gathers
                ])
            out.append(res.whitened())
        return out

    def system(self, rows: list):
        """``r``, the Jacobian entries, ``H = J^T J`` and ``g = -J^T r`` from the groups' rows."""
        sizes = [wr.size for wr, _ in rows]
        if sizes != self.sizes:
            self.index = self._index(sizes)
            self.sizes = sizes
        r = _concat([wr for wr, _ in rows])
        entries = _concat([wj.ravel() for _, wjs in rows for wj in wjs])
        index = self.index
        return (r, entries) + _normal_equations(
            r, entries, index.rows, index.cols, self.dim, index.flat
        )

    def _index(self, sizes: list) -> _Index:
        """Row and column of every Jacobian entry, in the order ``system`` ravels them.

        A group of n factors and M rows gives each factor M / n rows; an
        argument of width d then holds M * d entries, row-major.
        """
        sizes = np.array(sizes, dtype=int)
        group = self.slot_group
        height = sizes[group] // self.slot_count
        count = sizes[group] * self.slot_width
        first = (np.cumsum(sizes) - sizes)[group]
        slot = np.repeat(np.arange(len(count)), count)
        entry = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        within, j = np.divmod(entry, self.slot_width[slot])
        rows = first[slot] + within
        cols = self.columns[self.slot_start[slot] + within // height[slot]] + j
        row_factor = np.concatenate([
            np.repeat(positions, size // len(positions))
            for positions, size in zip(self.group_factors, sizes)
        ] or [np.zeros(0, int)])
        return _Index(rows, cols, rows * self.dim + cols, row_factor)


def _normal_equations(r, entries, rows, cols, dim: int, flat=None):
    """``H = J^T J`` and ``g = -J^T r`` of the Jacobian with ``entries`` at ``rows``/``cols``.

    Window-sized systems stack a dense ``J`` and return a dense ``H``. Past
    ``_DENSE_DIM`` columns a dense product would cost rows x columns^2 flops
    and a dense ``H`` columns^2 memory while ``J`` is almost all zeros, so
    ``J`` is stacked sparse there (the batch reference solution) and ``H``
    stays the sparse product, which ``_cholesky`` factors by its structure.
    """
    shape = (r.size, dim)
    if dim <= _DENSE_DIM or not entries.size:
        flat = rows * dim + cols if flat is None else flat
        J = np.bincount(flat, entries, minlength=r.size * dim).reshape(shape)
    else:
        J = scipy.sparse.csr_array((entries, (rows, cols)), shape=shape)
    return J.T @ J, -(J.T @ r)


def _concat(parts: list) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0)


def _dense(M) -> np.ndarray:
    return M.toarray() if scipy.sparse.issparse(M) else M


def _cholesky(H, keys, shift=0.0):
    """Factor ``H + diag(shift)`` and return the function that solves against it.

    ``keys`` lay out ``H``'s columns. A dense ``H`` takes one LAPACK Cholesky.
    A sparse one is ordered poses first, in key order, and every other kind
    last as the border. The pose block is factored banded, with the band
    read from its sparsity pattern; the border is eliminated through the
    dense Cholesky of its Schur complement. The solve takes a vector or a
    matrix of right-hand sides. Either form raises ``LinAlgError`` on a
    system that is not positive definite and ``ValueError`` on a non-finite
    one.
    """
    if not scipy.sparse.issparse(H):
        A = np.array(H, dtype=float, order="F")
        A.flat[:: A.shape[0] + 1] += shift
        return _dense_cholesky(A)
    n = H.shape[0]
    pose = np.repeat([k.kind == KIND_POSE for k in keys], [k.dim for k in keys])
    order = np.concatenate([np.flatnonzero(pose), np.flatnonzero(~pose)])
    m = int(pose.sum())
    nb = n - m
    where = np.empty(n, dtype=int)
    where[order] = np.arange(n)
    coo = H.tocoo()
    coo.sum_duplicates()
    if not np.isfinite(coo.data).all():
        raise ValueError("array must not contain infs or NaNs")
    r, c, v = where[coo.row], where[coo.col], coo.data
    shift = np.broadcast_to(shift, (n,))[order]
    band = (r < m) & (c <= r)
    kd = int((r[band] - c[band]).max(initial=0))
    ab = np.zeros((kd + 1, m))
    ab[r[band] - c[band], c[band]] = v[band]
    ab[0] += shift[:m]
    border_cols = c >= m
    W = np.zeros((n, nb))
    W[r[border_cols], c[border_cols] - m] = v[border_cols]
    B, C = W[:m], W[m:]
    C.flat[:: nb + 1] += shift[m:]
    chol = (scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False), True)
    X = scipy.linalg.cho_solve_banded(chol, B, check_finite=False)
    border = _dense_cholesky(C - B.T @ X) if nb else lambda y: y

    def solve(y):
        y = np.asarray(y, dtype=float)[order]
        z = scipy.linalg.cho_solve_banded(chol, y[:m], check_finite=False)
        xb = border(y[m:] - X.T @ y[:m])
        x = np.empty_like(y)
        x[order] = np.concatenate([z - X @ xb, xb])
        return x

    return solve


def _dense_cholesky(A: np.ndarray):
    """LAPACK Cholesky of ``A``'s lower triangle, in place if ``A`` is Fortran-ordered."""
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    factor, info = dpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return lambda y: dpotrs(factor, y, lower=1)[0]


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 20
    rel_cost_tol: float = 1e-6
    abs_step_tol: float = 1e-8
    damping: float = 1e-4
    damping_ceiling: float = 1e8


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    iterations: int
    final_cost: float
    # the system at the returned estimates; hand it to marginal_covariances
    linearization: Linearization | None = field(default=None, compare=False, repr=False)


def optimize(graph: FactorGraph, opts: SolverOptions = SolverOptions()) -> SolveReport:
    """Levenberg-Marquardt to convergence; never raises on bad conditioning.

    Each candidate step is linearized once: its cost decides acceptance and,
    when accepted, its ``H`` and ``g`` drive the next iteration. Steps that
    fail to factorize or to decrease the cost raise the damping; hitting the
    damping ceiling yields a non-converged report instead of an exception so
    a streaming pipeline can carry on.
    """
    lin = graph.linearize()
    lam = opts.damping
    iterations = 0
    for _ in range(opts.max_iters):
        diag = np.maximum(lin.H.diagonal(), 1e-12)
        while True:
            try:
                step = _cholesky(lin.H, lin.keys, lam * diag)(lin.g)
            except (np.linalg.LinAlgError, ValueError):
                # non-PD or non-finite normal equations: damp harder
                step = None
            if step is not None and np.all(np.isfinite(step)):
                if float(np.linalg.norm(step)) < opts.abs_step_tol:
                    return SolveReport(True, iterations, lin.cost, lin)
                candidate = graph._stepped(step, lin.keys, lin.offsets)
                trial = graph.linearize(candidate)
                if trial.cost <= lin.cost + 1e-15:
                    break
            lam *= 10.0
            if lam > opts.damping_ceiling:
                return SolveReport(False, iterations, lin.cost, lin)
        graph.values = candidate
        iterations += 1
        lam = max(lam * 0.3, 1e-12)
        converged = lin.cost - trial.cost <= opts.rel_cost_tol * max(lin.cost, 1e-300)
        lin = trial
        if converged:
            return SolveReport(True, iterations, lin.cost, lin)
    return SolveReport(False, iterations, lin.cost, lin)


def marginalize(
    graph: FactorGraph, drop_keys, linearization: Linearization | None = None
) -> MarginalPrior:
    """Fold the dropped variables into a dense prior on their neighbors.

    Every factor touching a dropped key is removed and its information,
    linearized at the current estimates, is Schur-complemented onto the
    bordering variables. A ``linearization`` (say, the one the last
    ``optimize`` reported) lends its rows: the system of the touched factors
    is re-read from them, at its linearization point and without a new
    layout or evaluation, as long as it kept them (a dense system does),
    every touched factor is one of its factors and every dropped and
    bordering value is the object it was linearized at. Otherwise the
    touched factors are evaluated afresh. The resulting prior is installed
    in the graph (unless it is empty) and returned.
    """
    drop_set = set(drop_keys)
    drop = [k for k in graph.values if k in drop_set]
    missing = drop_set - set(drop)
    if missing:
        raise ValueError(f"cannot marginalize unknown variables {sorted(missing, key=repr)}")

    folded = linearization is not None and _reread(graph, drop, linearization)
    touched, border, H, g = folded or _assemble(graph, drop)
    if H is not None:
        nd = sum(k.dim for k in drop)
        H_dd = H[:nd, :nd]
        try:
            solve = _cholesky(H_dd, drop)
        except np.linalg.LinAlgError:
            warnings.warn("singular block during marginalization; adding ridge")
            solve = _cholesky(H_dd, drop, 1e-10)
        H_bd = _dense(H[nd:, :nd])
        gain = solve(np.column_stack([_dense(H[:nd, nd:]), g[:nd]]))
        info = _dense(H[nd:, nd:]) - H_bd @ gain[:, :-1]
        info_vec = g[nd:] - H_bd @ gain[:, -1]
    else:
        info = np.zeros((0, 0))
        info_vec = np.zeros(0)

    prior = MarginalPrior(
        border, info, info_vec, {k: graph.values[k] for k in border}
    )
    graph.factors = [f for f, t in zip(graph.factors, touched) if not t]
    for key in drop:
        del graph.values[key]
    if border:
        graph.add_factor(prior)
    return prior


def _assemble(graph: FactorGraph, drop: list):
    """The touched-factor flags, border, ``H`` and ``g`` of ``marginalize``, evaluated afresh."""
    drop_set = set(drop)
    touched = [not drop_set.isdisjoint(f.keys) for f in graph.factors]
    factors = [f for f, t in zip(graph.factors, touched) if t]
    touched_keys = {k for f in factors for k in f.keys}
    border = [k for k in graph.values if k not in drop_set and k in touched_keys]
    if not factors:
        return touched, border, None, None
    lin = graph.linearize(keys=drop + border, factors=factors)
    return touched, border, lin.H, lin.g


def _reread(graph: FactorGraph, drop: list, lin: Linearization):
    """The touched-factor flags, border, ``H`` and ``g`` of ``marginalize``, from ``lin``'s rows.

    None when ``lin`` cannot stand for a fresh assembly: the graph's factors
    do not start with ``lin``'s, a factor added since touches a dropped key,
    ``lin`` kept no rows (a sparse system), or a dropped or bordering value
    is not the one ``lin`` was built at.
    """
    n, factors = len(lin.factors), graph.factors
    drop_set = set(drop)
    if (
        len(factors) < n
        or not all(map(is_, lin.factors, factors))
        or not drop_set.isdisjoint([k for f in factors[n:] for k in f.keys])
        or not drop_set <= lin.offsets.keys()
        or lin.entries is None
    ):
        return None
    layout, offsets = lin.layout, lin.offsets
    is_drop = np.zeros(layout.dim, dtype=bool)
    is_drop[[offsets[k] for k in drop]] = True
    touched = np.zeros(n, dtype=bool)
    touched[layout.key_factor[is_drop[layout.columns]]] = True
    near = set(layout.columns[touched[layout.key_factor]].tolist())
    border = [k for k in graph.values if offsets.get(k) in near and k not in drop_set]
    local = drop + border
    at = dict(zip(lin.keys, lin.point))
    if any(graph.values[k] is not at.get(k) for k in local):
        return None

    flags = touched.tolist() + [False] * (len(factors) - n)
    if not touched.any():
        return flags, border, None, None
    # the touched factors' rows, over the columns of drop + border
    columns = [c for k in local for c in range(offsets[k], offsets[k] + k.dim)]
    column = np.empty(layout.dim, dtype=int)
    column[columns] = np.arange(len(columns))
    index = lin.index
    kept = touched[index.row_factor]
    row = np.cumsum(kept) - 1
    entry = kept[index.rows]
    H, g = _normal_equations(
        lin.r[kept], lin.entries[entry], row[index.rows[entry]],
        column[index.cols[entry]], len(columns),
    )
    return flags, border, H, g


def marginal_covariance(graph: FactorGraph, key: VariableKey) -> np.ndarray:
    """Tangent-space covariance block of one variable at the current estimate."""
    return marginal_covariances(graph, [key])[key]


def marginal_covariances(
    graph: FactorGraph, query, linearization: Linearization | None = None
) -> dict:
    """Covariance blocks of several variables from one factorization.

    Assembling and factoring the information matrix dominates the cost of a
    covariance query, so callers needing several blocks per solve should ask
    for them together. A ``linearization`` (say, the one ``optimize`` reports)
    is used in place of a fresh assembly while it is still current.
    """
    query = list(query)
    if linearization is None or not linearization.is_current(graph):
        linearization = graph.linearize()
    H, keys, offsets = linearization.H, linearization.keys, linearization.offsets
    for key in query:
        if key not in offsets:
            raise ValueError(f"unknown variable {key}")
    try:
        if H.shape[0] == 0:
            raise np.linalg.LinAlgError("empty system")
        solve = _cholesky(H, keys)
    except np.linalg.LinAlgError:
        _raise_singular(H, keys, offsets)
    rhs = np.zeros((H.shape[0], sum(k.dim for k in query)))
    col = 0
    columns = {}
    for key in query:
        a = offsets[key]
        rhs[a : a + key.dim, col : col + key.dim] = np.eye(key.dim)
        columns[key] = col
        col += key.dim
    cols = solve(rhs)
    out = {}
    for key in query:
        a, c = offsets[key], columns[key]
        block = cols[a : a + key.dim, c : c + key.dim]
        out[key] = 0.5 * (block + block.T)
    return out


class SingularSystem(ValueError):
    """The information matrix of a solve is not positive definite."""


def _raise_singular(H, keys, offsets):
    """Name the unconstrained directions of a non-positive-definite system."""
    H = _dense(H)  # an error path: the eigendecomposition needs it dense
    eigval, eigvec = np.linalg.eigh(H) if H.size else (np.zeros(0), np.zeros((0, 0)))
    tol = max(eigval.max(initial=0.0), 1.0) * 1e-10
    names = []
    for idx in np.flatnonzero(eigval <= tol):
        comp = int(np.argmax(np.abs(eigvec[:, idx])))
        for k in keys:
            a = offsets[k]
            if a <= comp < a + k.dim:
                names.append(f"{k!r}/{_AXES[k.kind][comp - a]}")
                break
    raise SingularSystem(
        "information matrix singular; unconstrained directions: " + ", ".join(names)
    )
