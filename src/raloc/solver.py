"""Nonlinear least-squares MAP engine with fixed-lag window support.

Variables live on manifolds (poses) or vector spaces (biases, offset
states); factors supply whitened residual/Jacobian rows. Optimization is
Levenberg-Marquardt on the normal equations with on-manifold updates.
Aged variables are folded into a dense marginal prior by Schur complement
at the current linearization point.

One linearization evaluates every factor once and writes its whitened rows
into a stacked Jacobian ``J`` and residual ``r``; the cost, ``H = J^T J``
and ``g = -J^T r`` all come from those rows. LM linearizes each candidate
step once: the candidate's cost decides acceptance, and an accepted
candidate's system serves the next iteration and the covariance query.

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
from .lie import exp, log, right_jacobian_inv

KIND_POSE = "robot_pose"
KIND_BIAS = "anchor_bias"
KIND_OFFSET = "offset_state"

# widest system whose stacked Jacobian is kept dense (see _gauss_newton)
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


def local_diff(lin, value, kind: str) -> np.ndarray:
    """Tangent-space difference of value from a linearization point."""
    if kind == KIND_POSE:
        return log(lin.inverse() @ value)
    if kind == KIND_BIAS:
        return np.array([float(value) - float(lin)])
    return np.asarray(value, dtype=float) - np.asarray(lin, dtype=float)


def _diff_jacobian(delta: np.ndarray, kind: str) -> np.ndarray:
    # derivative of local_diff w.r.t. a right perturbation of the value
    if kind == KIND_POSE:
        return right_jacobian_inv(delta)
    return np.eye(delta.size)


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
        self._offsets = np.cumsum([0] + [k.dim for k in self.keys])

    def __len__(self) -> int:
        return self._sqrt.shape[0]

    def evaluate(self, *values):
        deltas = [
            local_diff(self.lin_point[k], v, k.kind) for k, v in zip(self.keys, values)
        ]
        stacked = np.concatenate(deltas) if deltas else np.zeros(0)
        value = self._sqrt @ stacked - self._rhs
        jacobians = []
        for i, key in enumerate(self.keys):
            block = self._sqrt[:, self._offsets[i] : self._offsets[i + 1]]
            jacobians.append(block @ _diff_jacobian(deltas[i], key.kind))
        return Residual(value, tuple(jacobians), np.eye(len(self)))


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
        total = 0.0
        for factor in self.factors:
            res = factor.evaluate(*[values[k] for k in factor.keys])
            wr = res.weight @ res.value
            total += 0.5 * float(wr @ wr)
        return total

    def ordering(self, keys=None) -> tuple[list, dict, int]:
        keys = list(self.values if keys is None else keys)
        offsets = {}
        dim = 0
        for key in keys:
            offsets[key] = dim
            dim += key.dim
        return keys, offsets, dim

    def linearize(self, values: dict | None = None, keys=None, factors=None) -> Linearization:
        """Evaluate every factor once and form the Gauss-Newton system.

        Each factor's whitened rows go into one stacked Jacobian ``J`` and
        residual ``r`` over the key ordering (default: the order of
        ``values``); ``H = J^T J``, ``g = -J^T r`` and ``cost = |r|^2 / 2``
        all come from those rows. ``values`` defaults to the graph's own
        estimates and ``factors`` to all of its factors.
        """
        values = self.values if values is None else values
        factors = tuple(self.factors if factors is None else factors)
        keys, offsets, dim = self.ordering(values if keys is None else keys)
        residuals, blocks = [], []
        m = 0
        for factor in factors:
            wr, wjs = factor.evaluate(*[values[k] for k in factor.keys]).whitened()
            for key, wj in zip(factor.keys, wjs):
                a = offsets.get(key)
                if a is None:
                    raise ValueError(f"factor key {key} outside the requested ordering")
                blocks.append((m, a, wj))
            residuals.append(wr)
            m += wr.size
        r = np.concatenate(residuals) if residuals else np.zeros(0)
        H, g = _gauss_newton(blocks, r, dim)
        return Linearization(
            0.5 * float(r @ r), H, g, keys, offsets, tuple(values.values()), factors
        )

    def _stepped(self, step: np.ndarray, keys, offsets) -> dict:
        out = dict(self.values)
        for key in keys:
            a = offsets[key]
            out[key] = retract(out[key], step[a : a + key.dim], key.kind)
        return out


def _gauss_newton(blocks, r: np.ndarray, dim: int):
    """``H = J^T J`` and ``g = -J^T r`` from whitened blocks ``(row, column, J_block)``.

    Window-sized systems stack a dense ``J``. Past ``_DENSE_DIM`` columns a
    dense product would cost rows x columns^2 flops while ``J`` is almost all
    zeros, so ``J`` is stacked sparse there (the batch reference solution).
    """
    shape = (r.size, dim)
    if dim <= _DENSE_DIM or not blocks:
        J = np.zeros(shape)
        for row, col, block in blocks:
            J[row : row + block.shape[0], col : col + block.shape[1]] += block
        return J.T @ J, -(J.T @ r)
    index = np.concatenate(
        [np.indices(b.shape).reshape(2, -1) + [[row], [col]] for row, col, b in blocks],
        axis=1,
    )
    data = np.concatenate([b.ravel() for _, _, b in blocks])
    J = scipy.sparse.csr_array((data, (index[0], index[1])), shape=shape)
    return (J.T @ J).toarray(), -(J.T @ r)


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
