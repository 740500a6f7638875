"""Nonlinear least-squares MAP engine with fixed-lag window support.

Variables live on manifolds (poses) or vector spaces (biases, offset
states); factors supply whitened residual/Jacobian rows. Optimization is
Levenberg-Marquardt on the normal equations with on-manifold updates.
Aged variables are folded into a dense marginal prior by Schur complement
at the current linearization point.

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

The normal equations are solved by dense Cholesky: windows here stay below
a couple hundred tangent dimensions, where dense factorization is both
faster and more deterministic than sparse alternatives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .factors import Residual
from .lie import batch_log_jr_inv, exp, retract_poses

KIND_POSE = "robot_pose"
KIND_BIAS = "anchor_bias"
KIND_OFFSET = "offset_state"

# widest system whose stacked Jacobian is kept dense (see _Layout.system)
_DENSE_DIM = 256

_DIMS = {KIND_POSE: 6, KIND_BIAS: 1, KIND_OFFSET: 6}

_AXES = {
    KIND_POSE: ("rho_x", "rho_y", "rho_z", "phi_x", "phi_y", "phi_z"),
    KIND_BIAS: ("bias",),
    KIND_OFFSET: ("p_x", "p_y", "p_z", "v_x", "v_y", "v_z"),
}


@dataclass(frozen=True)
class VariableKey:
    """Identity of one latent variable.

    ``epoch`` distinguishes successive bias variables for the same anchor;
    the stamp is bookkeeping only and does not participate in identity.
    """

    kind: str
    index: int
    epoch: int = 0
    stamp: float = field(default=0.0, compare=False)

    def __post_init__(self):
        # keys are dict keys on every assembly hot path; hash once
        object.__setattr__(self, "_hash", hash((self.kind, self.index, self.epoch)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def pose(index: int, stamp: float) -> "VariableKey":
        return VariableKey(KIND_POSE, index, 0, stamp)

    @staticmethod
    def bias(anchor_id: int, epoch: int = 0) -> "VariableKey":
        return VariableKey(KIND_BIAS, anchor_id, epoch)

    @staticmethod
    def offset(index: int, stamp: float) -> "VariableKey":
        return VariableKey(KIND_OFFSET, index, 0, stamp)

    @property
    def dim(self) -> int:
        return _DIMS[self.kind]

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
        keep = eigval > max(eigval.max(initial=0.0), 0.0) * 1e-12
        keep &= eigval > 0.0
        root = np.sqrt(eigval[keep])
        self._sqrt = (eigvec[:, keep] * root).T
        with np.errstate(divide="ignore", invalid="ignore"):
            self._rhs = (eigvec[:, keep].T @ self.info_vec) / root
        # pose keys take a batched log of lin^-1 value, with Jr^-1 of it as
        # their Jacobian factor; the others a plain difference, identity
        offsets = np.cumsum([0] + [k.dim for k in self.keys])
        blocks = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
        self._poses = [i for i, k in enumerate(self.keys) if k.kind == KIND_POSE]
        self._vectors = [i for i, k in enumerate(self.keys) if k.kind != KIND_POSE]
        self._pose_cols = _columns(blocks, self._poses)
        self._vector_cols = _columns(blocks, self._vectors)
        self._jacobians = [self._sqrt[:, block] for block in blocks]
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


def _columns(blocks, slots) -> np.ndarray:
    return np.array([c for i in slots for c in range(blocks[i].start, blocks[i].stop)], int)


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
    """Gauss-Newton system of a graph at one set of values.

    ``H`` and ``g`` are laid out by ``keys``/``offsets``. ``point`` and
    ``factors`` are the exact value and factor objects the system was built
    from; ``is_current`` compares them by identity, so a system is never
    reused once a value or factor has changed.
    """

    cost: float
    H: np.ndarray
    g: np.ndarray
    keys: list
    offsets: dict
    point: tuple
    factors: tuple

    def is_current(self, graph: FactorGraph) -> bool:
        """Whether a fresh whole-graph assembly would rebuild exactly this system."""
        return (
            _identical(self.keys, graph.values)
            and _identical(self.point, graph.values.values())
            and _identical(self.factors, graph.factors)
        )


def _identical(a, b) -> bool:
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


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
        r, H, g = layout.system(layout.whitened(values))
        return Linearization(
            0.5 * float(r @ r), H, g, layout.keys, layout.offsets, tuple(values.values()),
            factors,
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


class _Layout:
    """How one factor tuple over one key order is evaluated and scattered.

    Factors are grouped by class in first-seen order. A class with a stacked
    form becomes one stacked instance; the values its ``evaluate`` reads are
    gathered per call from one table per variable kind (poses as rotation
    and position arrays) through index arrays. Any other factor is a group
    of one that reads its values directly. The row and column of every
    Jacobian entry follow from the groups' row counts, which the first
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
        members = {}
        for f in factors:
            cls = type(f)
            members.setdefault(cls if hasattr(cls, "stack") else id(f), []).append(f)
        # a slot is one argument of one group's evaluate: its group, factor
        # count, width and first entry in ``at``, the (column, table row) of
        # every factor's key
        self.groups = []  # (kernel, per argument (kind, table rows) or None)
        slots, at = [], []
        for group in members.values():
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
                if gathers is not None:
                    gathers.append((kind, np.array([row for _, row in slot_at])))
            self.groups.append((group[0] if gathers is None else cls.stack(group), gathers))
        self.columns = np.array(at, dtype=int).reshape(-1, 2)[:, 0]
        self.slot_group, self.slot_count, self.slot_width, self.slot_start = (
            np.array(slots, dtype=int).reshape(-1, 4).T
        )
        used = {kind for _, gathers in self.groups for kind, _ in gathers or ()}
        self.tables = {kind: tables[kind] for kind in used}
        self.sizes = None

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
        """``r``, ``H = J^T J`` and ``g = -J^T r`` from the groups' whitened rows.

        Window-sized systems stack a dense ``J``. Past ``_DENSE_DIM`` columns
        a dense product would cost rows x columns^2 flops while ``J`` is
        almost all zeros, so ``J`` is stacked sparse there (the batch
        reference solution).
        """
        sizes = [wr.size for wr, _ in rows]
        if sizes != self.sizes:
            self._index(sizes)
            self.sizes = sizes
        r = _concat([wr for wr, _ in rows])
        data = _concat([wj.ravel() for _, wjs in rows for wj in wjs])
        shape = (r.size, self.dim)
        if self.dim <= _DENSE_DIM or not data.size:
            J = np.bincount(self.flat, data, minlength=r.size * self.dim).reshape(shape)
            return r, J.T @ J, -(J.T @ r)
        J = scipy.sparse.csr_array((data, (self.rows, self.cols)), shape=shape)
        return r, (J.T @ J).toarray(), -(J.T @ r)

    def _index(self, sizes: list) -> None:
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
        self.rows = first[slot] + within
        self.cols = self.columns[self.slot_start[slot] + within // height[slot]] + j
        self.flat = self.rows * self.dim + self.cols


def _concat(parts: list) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0)


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
        diag = np.maximum(np.diag(lin.H), 1e-12)
        while True:
            try:
                chol = scipy.linalg.cho_factor(lin.H + lam * np.diag(diag), lower=True)
                step = scipy.linalg.cho_solve(chol, lin.g)
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


def marginalize(graph: FactorGraph, drop_keys) -> MarginalPrior:
    """Fold the dropped variables into a dense prior on their neighbors.

    Every factor touching a dropped key is removed and its information,
    linearized at the current estimates, is Schur-complemented onto the
    bordering variables. The resulting prior is installed in the graph
    (unless it is empty) and returned.
    """
    drop_set = set(drop_keys)
    drop = [k for k in graph.values if k in drop_set]
    missing = drop_set - set(drop)
    if missing:
        raise ValueError(f"cannot marginalize unknown variables {sorted(missing, key=repr)}")

    touched = [f for f in graph.factors if any(k in drop_set for k in f.keys)]
    touched_keys = {k for f in touched for k in f.keys}
    border = [k for k in graph.values if k not in drop_set and k in touched_keys]

    if touched:
        local = drop + border
        lin = graph.linearize(keys=local, factors=touched)
        H, g = lin.H, lin.g
        nd = sum(k.dim for k in drop)
        H_dd = H[:nd, :nd]
        try:
            chol = scipy.linalg.cho_factor(H_dd, lower=True)
        except np.linalg.LinAlgError:
            warnings.warn("singular block during marginalization; adding ridge")
            chol = scipy.linalg.cho_factor(H_dd + 1e-10 * np.eye(nd), lower=True)
        gain = scipy.linalg.cho_solve(chol, np.column_stack([H[:nd, nd:], g[:nd]]))
        info = H[nd:, nd:] - H[nd:, :nd] @ gain[:, :-1]
        info_vec = g[nd:] - H[nd:, :nd] @ gain[:, -1]
    else:
        info = np.zeros((0, 0))
        info_vec = np.zeros(0)

    prior = MarginalPrior(
        border, info, info_vec, {k: graph.values[k] for k in border}
    )
    graph.factors = [f for f in graph.factors if f not in touched]
    for key in drop:
        del graph.values[key]
    if border:
        graph.add_factor(prior)
    return prior


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
        if H.size == 0:
            raise np.linalg.LinAlgError("empty system")
        factor = scipy.linalg.cho_factor(H, lower=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        _raise_singular(H, keys, offsets)
    rhs = np.zeros((H.shape[0], sum(k.dim for k in query)))
    col = 0
    columns = {}
    for key in query:
        a = offsets[key]
        rhs[a : a + key.dim, col : col + key.dim] = np.eye(key.dim)
        columns[key] = col
        col += key.dim
    cols = scipy.linalg.cho_solve(factor, rhs)
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
