"""Solver tests: LM behavior, marginalization against direct oracles, and
marginal covariance against the dense inverse."""

import copy
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse

from raloc.factors import (
    Anchor,
    LeverArm,
    OdometryFactor,
    PriorFactor,
    RangeFactor,
    RangeFactorFixedBias,
    RangeMeasurement,
    Residual,
)
from raloc.lie import Pose, exp, log, right_jacobian_inv
from raloc.preintegration import PreintegratedOdometry
from raloc import solver
from raloc.solver import (
    FactorGraph,
    MarginalPrior,
    SolverOptions,
    VariableKey,
    marginal_covariance,
    marginal_covariances,
    marginalize,
    optimize,
)
from raloc.ufls import BiasWalkFactor


def random_pose(rng, trans=1.0, rot=0.2):
    return exp(np.concatenate([trans * rng.normal(size=3), rot * rng.normal(size=3)]))


def odometry(key_i, key_j, delta, sigma_t=0.01, sigma_r=0.005):
    cov = np.diag([sigma_t**2] * 3 + [sigma_r**2] * 3)
    return OdometryFactor(key_i, key_j, PreintegratedOdometry(0.0, 1.0, delta, cov))


def test_variable_key_identity_ignores_stamp():
    a = VariableKey.pose(3, 1.5)
    b = VariableKey.pose(3, 2.5)
    assert a == b and hash(a) == hash(b)
    assert VariableKey.bias(1, 0) != VariableKey.bias(1, 1)
    g = FactorGraph()
    g.add_variable(a, Pose.identity())
    with pytest.raises(ValueError):
        g.add_variable(b, Pose.identity())
    with pytest.raises(ValueError):
        g.add_factor(PriorFactor(VariableKey.pose(9, 0.0), Pose.identity(), np.eye(6)))


def test_variable_keys_differing_only_in_stamp_share_a_dict_slot():
    a = VariableKey.pose(3, 1.5)
    b = VariableKey.pose(3, 2.5)
    assert a is not b and hash(a) == hash(b) == hash((solver.KIND_POSE, 3, 0))
    table = {a: "first"}
    table[b] = "second"
    assert len(table) == 1 and table[a] == "second"
    assert next(iter(table)).stamp == 1.5  # the slot keeps the key that made it
    assert (a.kind, a.index, a.epoch, a.dim, repr(a)) == (solver.KIND_POSE, 3, 0, 6, "pose(3, t=1.500)")
    assert repr(VariableKey.bias(2, 4)) == "bias(a2, e4)" and VariableKey.bias(2, 4).dim == 1


def test_exact_prior_converges_immediately():
    g = FactorGraph()
    key = VariableKey.pose(0, 0.0)
    g.add_variable(key, Pose.identity())
    g.add_factor(PriorFactor(key, Pose.identity(), 0.01 * np.eye(6)))
    report = optimize(g)
    assert report.converged
    assert report.iterations == 0
    assert report.final_cost == pytest.approx(0.0, abs=1e-20)


def test_noiseless_chain_recovers_truth():
    rng = np.random.default_rng(0)
    truth = [Pose.identity()]
    for _ in range(2):
        truth.append(truth[-1] @ random_pose(rng, trans=0.5, rot=0.2))
    keys = [VariableKey.pose(k, float(k)) for k in range(3)]

    g = FactorGraph()
    for k, (key, pose) in enumerate(zip(keys, truth)):
        init = pose @ random_pose(rng, trans=0.2, rot=0.05) if k else pose
        g.add_variable(key, init)
    g.add_factor(PriorFactor(keys[0], truth[0], 1e-6 * np.eye(6)))
    for k in range(2):
        g.add_factor(odometry(keys[k], keys[k + 1], truth[k].inverse() @ truth[k + 1]))

    report = optimize(g)
    assert report.converged
    for key, pose in zip(keys, truth):
        assert np.linalg.norm(log(pose.inverse() @ g.values[key])) < 1e-9


def build_range_graph(rng, n_poses=5, perturb=True):
    """Noiseless 5-pose, 4-anchor instance with bias variables."""
    anchors = [
        Anchor(0, np.array([0.0, 0.0, 2.0])),
        Anchor(1, np.array([6.0, 0.0, 2.5])),
        Anchor(2, np.array([6.0, 6.0, 2.0])),
        Anchor(3, np.array([0.0, 6.0, 3.0])),
    ]
    arm = LeverArm(np.zeros(3))
    truth = [Pose(np.eye(3), np.array([1.0 + 0.8 * k, 2.0 + 0.3 * k, 1.0])) for k in range(n_poses)]
    g = FactorGraph()
    pose_keys = [VariableKey.pose(k, float(k)) for k in range(n_poses)]
    bias_keys = [VariableKey.bias(a.id) for a in anchors]
    for k, key in enumerate(pose_keys):
        init = truth[k] @ random_pose(rng, trans=0.3, rot=0.1) if perturb and k else truth[k]
        g.add_variable(key, init)
    for key in bias_keys:
        g.add_variable(key, 0.1 if perturb else 0.0)
    g.add_factor(PriorFactor(pose_keys[0], truth[0], 1e-6 * np.eye(6)))
    for a, key in zip(anchors, bias_keys):
        g.add_factor(PriorFactor(key, a.bias_prior_mean, np.array([[a.bias_prior_sigma**2]])))
    for k in range(n_poses - 1):
        g.add_factor(odometry(pose_keys[k], pose_keys[k + 1], truth[k].inverse() @ truth[k + 1]))
    for k, pose in enumerate(truth):
        for a, bias_key in zip(anchors, bias_keys):
            dist = float(np.linalg.norm(a.position - pose.position))
            z = RangeMeasurement(float(k), a.id, dist, 0.1)
            g.add_factor(RangeFactor(pose_keys[k], bias_key, z, a, arm))
    return g, pose_keys, bias_keys, truth


def test_range_graph_matches_multistart_descent():
    rng = np.random.default_rng(1)
    g, pose_keys, bias_keys, truth = build_range_graph(rng)
    report = optimize(g)
    assert report.converged

    # oracle: independent multi-start descent over a global parameterization
    def cost_of(params):
        values = {}
        for k, key in enumerate(pose_keys):
            values[key] = exp(params[6 * k : 6 * k + 6])
        for j, key in enumerate(bias_keys):
            values[key] = float(params[6 * len(pose_keys) + j])
        return g.cost(values)

    dim = 6 * len(pose_keys) + len(bias_keys)
    best = None
    for s in range(4):
        start = np.zeros(dim)
        for k, pose in enumerate(truth):
            start[6 * k : 6 * k + 6] = log(pose) + 0.2 * rng.standard_normal(6)
        start[-len(bias_keys):] = 0.1 * rng.standard_normal(len(bias_keys))
        res = scipy.optimize.minimize(cost_of, start, method="L-BFGS-B",
                                      options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-12})
        if best is None or res.fun < best.fun:
            best = res
    for k, key in enumerate(pose_keys):
        oracle_pos = exp(best.x[6 * k : 6 * k + 6]).position
        assert np.linalg.norm(g.values[key].position - oracle_pos) < 1e-6
        assert np.linalg.norm(g.values[key].position - truth[k].position) < 1e-6


def test_cost_monotone_across_accepted_steps():
    rng = np.random.default_rng(2)
    g, _, _, _ = build_range_graph(rng)
    costs = [g.cost()]
    for _ in range(10):
        report = optimize(g, SolverOptions(max_iters=1))
        costs.append(g.cost())
        if report.converged:
            break
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


def test_marginalize_two_pose_oracle():
    rng = np.random.default_rng(3)
    k0, k1 = VariableKey.pose(0, 0.0), VariableKey.pose(1, 1.0)
    t0 = random_pose(rng)
    delta = random_pose(rng, trans=0.5)
    g = FactorGraph()
    g.add_variable(k0, t0)
    g.add_variable(k1, t0 @ delta)
    g.add_factor(PriorFactor(k0, t0, 0.01 * np.eye(6)))
    g.add_factor(odometry(k0, k1, delta))
    optimize(g)
    joint_cov = marginal_covariance(g, k1)
    joint_mean = g.values[k1]

    prior = marginalize(g, [k0])
    assert prior.keys == (k1,)
    assert np.allclose(np.linalg.inv(prior.info), joint_cov, rtol=1e-8, atol=1e-12)
    assert k0 not in g.values and len(g.factors) == 1

    # the reduced graph reproduces the joint solve
    optimize(g)
    assert np.linalg.norm(log(joint_mean.inverse() @ g.values[k1])) < 1e-9
    assert np.allclose(marginal_covariance(g, k1), joint_cov, rtol=1e-8, atol=1e-12)


def test_marginalize_variable_without_factors():
    g = FactorGraph()
    k0, k1 = VariableKey.pose(0, 0.0), VariableKey.pose(1, 1.0)
    g.add_variable(k0, Pose.identity())
    g.add_variable(k1, Pose.identity())
    g.add_factor(PriorFactor(k1, Pose.identity(), np.eye(6)))
    prior = marginalize(g, [k0])
    assert prior.keys == ()
    assert len(prior) == 0
    assert k0 not in g.values
    assert len(g.factors) == 1  # only the untouched prior remains


def test_marginalize_singular_block_ridged():
    rng = np.random.default_rng(4)
    g = FactorGraph()
    pose_key, bias_key = VariableKey.pose(0, 0.0), VariableKey.bias(0)
    g.add_variable(pose_key, Pose.identity())
    g.add_variable(bias_key, 0.0)
    anchor = Anchor(0, np.array([3.0, 0.0, 0.0]))
    z = RangeMeasurement(0.0, 0, 3.0, 0.1)
    g.add_factor(RangeFactor(pose_key, bias_key, z, anchor, LeverArm(np.zeros(3))))
    g.add_factor(PriorFactor(bias_key, 0.0, np.array([[0.04]])))
    with pytest.warns(UserWarning):
        marginalize(g, [pose_key])


def test_marginalize_unknown_key():
    g = FactorGraph()
    with pytest.raises(ValueError):
        marginalize(g, [VariableKey.pose(0, 0.0)])


def test_sliding_window_tracks_batch():
    rng = np.random.default_rng(5)
    n, window = 30, 8
    sigma_t, sigma_r = 0.01, 0.005
    cov = np.diag([sigma_t**2] * 3 + [sigma_r**2] * 3)
    chol = np.linalg.cholesky(cov)
    truth = [Pose.identity()]
    deltas, measured = [], []
    for _ in range(n - 1):
        delta = random_pose(rng, trans=0.4, rot=0.1)
        deltas.append(delta)
        truth.append(truth[-1] @ delta)
        measured.append(delta @ exp(chol @ rng.standard_normal(6)))
    keys = [VariableKey.pose(k, float(k)) for k in range(n)]

    batch = FactorGraph()
    batch.add_variable(keys[0], truth[0])
    batch.add_factor(PriorFactor(keys[0], truth[0], 1e-6 * np.eye(6)))
    for k in range(1, n):
        batch.add_variable(keys[k], batch.values[keys[k - 1]] @ measured[k - 1])
        batch.add_factor(odometry(keys[k - 1], keys[k], measured[k - 1], sigma_t, sigma_r))
    assert optimize(batch, SolverOptions(max_iters=50)).converged
    batch_pos = batch.values[keys[-1]].position
    batch_cov = marginal_covariance(batch, keys[-1])

    fl = FactorGraph()
    fl.add_variable(keys[0], truth[0])
    fl.add_factor(PriorFactor(keys[0], truth[0], 1e-6 * np.eye(6)))
    for k in range(1, n):
        fl.add_variable(keys[k], fl.values[keys[k - 1]] @ measured[k - 1])
        fl.add_factor(odometry(keys[k - 1], keys[k], measured[k - 1], sigma_t, sigma_r))
        optimize(fl)
        live = [key for key in fl.values]
        if len(live) > window:
            marginalize(fl, live[: len(live) - window])
    fl_pos = fl.values[keys[-1]].position
    fl_cov = marginal_covariance(fl, keys[-1])

    scale = max(1.0, float(np.linalg.norm(batch_pos)))
    assert np.linalg.norm(fl_pos - batch_pos) < 0.02 * scale
    assert np.linalg.norm(fl_cov - batch_cov) < 0.02 * np.linalg.norm(batch_cov)


def test_marginal_covariance_single_prior():
    rng = np.random.default_rng(6)
    key = VariableKey.pose(0, 0.0)
    cov = np.diag([0.01, 0.02, 0.03, 0.001, 0.002, 0.003])
    g = FactorGraph()
    g.add_variable(key, random_pose(rng))
    g.add_factor(PriorFactor(key, g.values[key], cov))
    assert np.allclose(marginal_covariance(g, key), cov, rtol=1e-10, atol=1e-14)
    # a second identical prior doubles the information
    g.add_factor(PriorFactor(key, g.values[key], cov))
    assert np.allclose(marginal_covariance(g, key), cov / 2.0, rtol=1e-10, atol=1e-14)


def test_marginal_covariance_matches_dense_inverse():
    rng = np.random.default_rng(7)
    g, pose_keys, bias_keys, _ = build_range_graph(rng, n_poses=4)
    optimize(g)
    lin = g.linearize()
    dense = np.linalg.inv(lin.H)
    for key in [pose_keys[2], bias_keys[1], pose_keys[-1]]:
        a = lin.offsets[key]
        block = dense[a : a + key.dim, a : a + key.dim]
        assert np.allclose(marginal_covariance(g, key), block, rtol=1e-8, atol=1e-10)


def test_gauge_free_graph_reports_unconstrained_directions():
    rng = np.random.default_rng(8)
    g = FactorGraph()
    keys = [VariableKey.pose(k, float(k)) for k in range(3)]
    poses = [Pose.identity()]
    for k in range(2):
        poses.append(poses[-1] @ random_pose(rng))
    for key, pose in zip(keys, poses):
        g.add_variable(key, pose)
    for k in range(2):
        g.add_factor(odometry(keys[k], keys[k + 1], poses[k].inverse() @ poses[k + 1]))
    with pytest.raises(ValueError) as err:
        marginal_covariance(g, keys[0])
    message = str(err.value)
    assert "unconstrained" in message
    assert message.count("/") >= 6


class NanFactor:
    """Deliberately broken factor to exercise the damping-ceiling path."""

    def __init__(self, key):
        self.keys = (key,)

    def evaluate(self, pose):
        return Residual(np.array([1.0]), (np.full((1, 6), np.nan),), np.eye(1))


def test_unsolvable_step_reports_nonconvergence():
    g = FactorGraph()
    key = VariableKey.pose(0, 0.0)
    g.add_variable(key, Pose.identity())
    g.add_factor(NanFactor(key))
    report = optimize(g)
    assert not report.converged
    assert report.iterations == 0


@pytest.mark.parametrize("dense_dim", [256, 0], ids=["dense", "structured"])
def test_covariance_query_of_a_non_finite_system_is_a_value_error(dense_dim, monkeypatch):
    monkeypatch.setattr(solver, "_DENSE_DIM", dense_dim)
    g = FactorGraph()
    key = VariableKey.pose(0, 0.0)
    g.add_variable(key, Pose.identity())
    g.add_factor(NanFactor(key))
    with pytest.raises(ValueError, match="infs or NaNs") as err:
        marginal_covariances(g, [key])
    assert not isinstance(err.value, np.linalg.LinAlgError)


def test_max_iters_exhaustion_reports_nonconvergence():
    rng = np.random.default_rng(9)
    g, _, _, _ = build_range_graph(rng)
    report = optimize(g, SolverOptions(max_iters=1, rel_cost_tol=0.0))
    assert report.iterations == 1
    assert not report.converged


def test_marginal_prior_quadratic_energy():
    # the square-root residual must reproduce 0.5 d^T L d - g^T d up to a constant
    rng = np.random.default_rng(10)
    key = VariableKey.offset(0, 0.0)
    a = rng.normal(size=(6, 6))
    info = a @ a.T + 6 * np.eye(6)
    info_vec = rng.normal(size=6)
    lin = rng.normal(size=6)
    prior = MarginalPrior([key], info, info_vec, {key: lin})
    for _ in range(5):
        d = rng.normal(size=6)
        res = prior.evaluate(lin + d)
        energy = res.cost()
        res0 = prior.evaluate(lin)
        base = res0.cost()
        expected = 0.5 * d @ info @ d - info_vec @ d
        assert energy - base == pytest.approx(expected, rel=1e-9, abs=1e-9)


class CountingFactor:
    """Pass-through wrapper that counts how often a factor is evaluated."""

    def __init__(self, factor):
        self.factor = factor
        self.keys = factor.keys
        self.calls = 0

    def evaluate(self, *values):
        self.calls += 1
        return self.factor.evaluate(*values)


def test_optimize_evaluates_each_factor_once_per_candidate():
    # one pose with ranges to four anchors and their bias variables, started
    # next to an anchor under a loose position prior so that LM rejects some
    # candidate steps: those must be evaluated once each as well
    rng = np.random.default_rng(11)
    g, pose_keys, bias_keys, truth = build_range_graph(rng, n_poses=1)
    key = pose_keys[0]
    g.factors = [f for f in g.factors if key not in f.keys or isinstance(f, RangeFactor)]
    g.add_factor(PriorFactor(key, truth[0], np.diag([100.0] * 3 + [1e-4] * 3)))
    g.values[key] = Pose(np.eye(3), np.array([6.0, 0.03, 2.54]))
    g.factors = [CountingFactor(f) for f in g.factors]
    candidates = []
    stepped = g._stepped

    def counted_step(*args):
        candidates.append(args)
        return stepped(*args)

    g._stepped = counted_step
    report = optimize(g)
    assert report.converged and report.iterations >= 2
    assert len(candidates) > report.iterations  # some candidates were rejected
    # once at the start, then once per candidate: its cost and its H, g
    assert {f.calls for f in g.factors} == {1 + len(candidates)}

    # the covariance query reuses the final system instead of assembling anew
    query = pose_keys + bias_keys
    reused = marginal_covariances(g, query, report.linearization)
    assert {f.calls for f in g.factors} == {1 + len(candidates)}
    fresh = marginal_covariances(g, query)
    assert {f.calls for f in g.factors} == {2 + len(candidates)}
    for k in query:
        assert np.array_equal(reused[k], fresh[k])
    assert np.array_equal(report.linearization.H, g.linearize().H)


def test_covariance_query_rejects_a_stale_linearization():
    rng = np.random.default_rng(12)
    g, pose_keys, _, _ = build_range_graph(rng, n_poses=3)
    lin = optimize(g).linearization
    key = pose_keys[-1]
    assert lin.is_current(g)

    # a value changed in place of the one linearized at
    moved = g.values[key] @ exp(np.full(6, 1e-3))
    g.values = {**g.values, key: moved}
    assert not lin.is_current(g)
    assert np.array_equal(
        marginal_covariances(g, [key], lin)[key], marginal_covariance(g, key)
    )

    # a factor added after the solve
    lin = g.linearize()
    g.add_factor(PriorFactor(key, moved, 1e-4 * np.eye(6)))
    assert not lin.is_current(g)
    assert np.array_equal(
        marginal_covariances(g, [key], lin)[key], marginal_covariance(g, key)
    )


def blockwise_normal_equations(graph, keys):
    """Reference assembly: H and g accumulated one block pair at a time."""
    offsets = dict(zip(keys, np.cumsum([0] + [k.dim for k in keys])))
    dim = sum(k.dim for k in keys)
    H, g, cost = np.zeros((dim, dim)), np.zeros(dim), 0.0
    for factor in graph.factors:
        wr, wjs = factor.evaluate(*[graph.values[k] for k in factor.keys]).whitened()
        cost += 0.5 * float(wr @ wr)
        for ka, ja in zip(factor.keys, wjs):
            a = offsets[ka]
            g[a : a + ka.dim] -= ja.T @ wr
            for kb, jb in zip(factor.keys, wjs):
                b = offsets[kb]
                H[a : a + ka.dim, b : b + kb.dim] += ja.T @ jb
    return H, g, cost


def build_mixed_graph(rng, n_poses):
    """The range graph plus every other stacked kind and a factor with no stacked form.

    Anchor 4 ranges hold a fixed bias. Anchor 5 ranges carry a Huber cap and
    read a second bias epoch of anchor 1, linked by a bias walk; every other
    one of them is 3 m off, so Huber reweights only those rows. An odometry
    factor wrapped in ``CountingFactor`` has no stacked form.
    """
    g, pose_keys, bias_keys, truth = build_range_graph(rng, n_poses=n_poses)
    arm = LeverArm(np.array([0.1, -0.05, 0.02]))
    fixed = Anchor(4, np.array([3.0, -2.0, 1.0]))
    capped = Anchor(5, np.array([-1.0, 4.0, 2.0]))
    epoch = VariableKey.bias(1, 1)
    g.add_variable(epoch, 0.12)
    g.add_factor(BiasWalkFactor(bias_keys[1], epoch, 0.05))
    for k, (key, pose) in enumerate(zip(pose_keys, truth)):
        antenna = pose.rotation @ arm.offset + pose.position
        z = RangeMeasurement(k, 4, float(np.linalg.norm(fixed.position - antenna)) + 0.03, 0.1)
        g.add_factor(RangeFactorFixedBias(key, z, fixed, arm, bias=0.03))
        spike = 3.0 if k % 2 else 0.0
        z = RangeMeasurement(k, 5, float(np.linalg.norm(capped.position - antenna)) + spike, 0.1)
        g.add_factor(RangeFactor(key, epoch, z, capped, arm, huber_delta=10.0))
    g.add_factor(CountingFactor(
        odometry(pose_keys[1], pose_keys[3], truth[1].inverse() @ truth[3])
    ))
    return g, pose_keys, bias_keys, truth


@pytest.mark.parametrize(
    "stacking, graph",
    [("dense", "range"), ("sparse", "range"), ("dense", "mixed")],
    ids=["dense", "sparse", "mixed"],
)
def test_stacked_assembly_matches_blockwise_reference(stacking, graph, monkeypatch):
    if stacking == "sparse":
        monkeypatch.setattr(solver, "_DENSE_DIM", 0)
    rng = np.random.default_rng(13)
    build = build_mixed_graph if graph == "mixed" else build_range_graph
    g, pose_keys, bias_keys, _ = build(rng, n_poses=6)
    marginalize(g, [pose_keys[0], bias_keys[0]])
    # move every value off the marginal prior's linearization point
    for key in g.values:
        g.values[key] = solver.retract(g.values[key], 0.05 * rng.normal(size=key.dim), key.kind)
    kinds = {type(f).__name__ for f in g.factors}
    assert {"MarginalPrior", "RangeFactor", "OdometryFactor", "PriorFactor"} <= kinds
    if graph == "mixed":
        assert {"RangeFactorFixedBias", "BiasWalkFactor", "CountingFactor"} <= kinds
        weights = [
            float(f.evaluate(*[g.values[k] for k in f.keys]).weight[0, 0, 0])
            for f in g.factors
            if isinstance(f, RangeFactor) and f.keys[1] == VariableKey.bias(1, 1)
        ]
        assert 0 < sum(w < 10.0 for w in weights) < len(weights)

    keys = list(g.values)
    rng.shuffle(keys)
    lin = g.linearize(keys=keys)
    H = solver._dense(lin.H)
    assert isinstance(H, np.ndarray) and (H is lin.H) == (stacking == "dense")
    H_ref, g_ref, cost_ref = blockwise_normal_equations(g, keys)
    assert lin.keys == keys
    assert np.abs(H - H_ref).max() <= 1e-12 * np.abs(H_ref).max()
    assert np.abs(lin.g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    assert lin.cost == pytest.approx(cost_ref, rel=1e-12)
    assert lin.cost == pytest.approx(g.cost(), rel=1e-12)
    again = g.linearize(keys=keys)
    assert np.array_equal(solver._dense(again.H), H) and np.array_equal(again.g, lin.g)


def test_marginal_prior_rows_match_per_key_reference():
    # the batched log and Jr^-1 over the pose keys, against scalar calls per key:
    # J^T J = D^T L D and J^T r = D^T (L d - l), with d the per-key tangent
    # differences and D the block diagonal of their Jr^-1 (identity off poses)
    rng = np.random.default_rng(14)
    keys = [VariableKey.pose(0, 0.0), VariableKey.bias(2), VariableKey.pose(1, 1.0),
            VariableKey.offset(0, 0.0)]
    lin = {keys[0]: random_pose(rng), keys[1]: 0.2, keys[2]: random_pose(rng),
           keys[3]: rng.normal(size=6)}
    a = rng.normal(size=(19, 19))
    info, info_vec = a @ a.T + np.eye(19), rng.normal(size=19)
    prior = MarginalPrior(keys, info, info_vec, lin)
    values = [lin[keys[0]] @ exp(0.2 * rng.normal(size=6)), 0.25,
              lin[keys[2]] @ exp(0.2 * rng.normal(size=6)), lin[keys[3]] + rng.normal(size=6)]
    res = prior.evaluate(*values)
    assert res.weight is None
    deltas, blocks = [], []
    for key, value in zip(keys, values):
        if key.kind == solver.KIND_POSE:
            deltas.append(log(lin[key].inverse() @ value))
            blocks.append(right_jacobian_inv(deltas[-1]))
        else:
            deltas.append(np.atleast_1d(np.asarray(value, dtype=float) - lin[key]))
            blocks.append(np.eye(key.dim))
    d = np.concatenate(deltas)
    D = scipy.linalg.block_diag(*blocks)
    J = np.hstack(res.jacobians)
    assert np.abs(J.T @ J - D.T @ info @ D).max() <= 1e-10 * np.abs(info).max()
    assert np.abs(J.T @ res.value - D.T @ (info @ d - info_vec)).max() <= 1e-10 * np.abs(
        info @ d).max()


def test_linearize_rejects_a_factor_key_outside_the_ordering():
    rng = np.random.default_rng(15)
    g, pose_keys, bias_keys, _ = build_range_graph(rng, n_poses=2)
    with pytest.raises(ValueError, match="outside the requested ordering"):
        g.linearize(keys=pose_keys)


def interleaved_window(rng, monkeypatch):
    """A mixed graph with a marginal prior, its biases between its poses in key order."""
    monkeypatch.setattr(solver, "_DENSE_DIM", 0)
    g, pose_keys, bias_keys, _ = build_mixed_graph(rng, n_poses=8)
    marginalize(g, [pose_keys[0], bias_keys[0]])
    assert any(isinstance(f, MarginalPrior) for f in g.factors)
    others = [k for k in g.values if k.kind != solver.KIND_POSE]
    poses = [k for k in g.values if k.kind == solver.KIND_POSE]
    keys = [k for pair in zip(poses, others + [None] * len(poses)) for k in pair if k]
    assert len(keys) == len(g.values) and keys[1].kind == solver.KIND_BIAS
    lin = g.linearize(keys=keys)
    assert scipy.sparse.issparse(lin.H)
    return g, lin


@pytest.mark.parametrize("damped", [False, True], ids=["undamped", "damped"])
def test_structured_solve_matches_dense_cholesky(damped, monkeypatch):
    rng = np.random.default_rng(16)
    _, lin = interleaved_window(rng, monkeypatch)
    H = lin.H.toarray()
    shift = 1e-2 * np.maximum(H.diagonal(), 1e-12) if damped else 0.0
    chol = scipy.linalg.cho_factor(H + np.diag(np.broadcast_to(shift, H.shape[:1])))
    for rhs in (lin.g, rng.normal(size=(H.shape[0], 5))):
        ref = scipy.linalg.cho_solve(chol, rhs)
        x = solver._cholesky(lin.H, lin.keys, shift)(rhs)
        assert x.shape == rhs.shape
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        dense = solver._cholesky(H, lin.keys, shift)(rhs)
        assert np.abs(dense - ref).max() <= 1e-12 * np.abs(ref).max()


def test_structured_solve_rejects_a_system_that_is_not_positive_definite(monkeypatch):
    rng = np.random.default_rng(17)
    _, lin = interleaved_window(rng, monkeypatch)
    pose_col = lin.offsets[next(k for k in lin.keys if k.kind == solver.KIND_POSE)]
    bias_col = lin.offsets[next(k for k in lin.keys if k.kind == solver.KIND_BIAS)]
    for col in (pose_col, bias_col):  # in the banded block, then in the border
        H = lin.H.tolil()
        H[col, col] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            solver._cholesky(scipy.sparse.csr_array(H), lin.keys)
        with pytest.raises(np.linalg.LinAlgError):
            solver._cholesky(H.toarray(), lin.keys)
    H = lin.H.tolil()
    H[pose_col, pose_col] = np.nan
    with pytest.raises(ValueError):
        solver._cholesky(scipy.sparse.csr_array(H), lin.keys)


def test_structured_covariance_query_matches_dense_inverse(monkeypatch):
    rng = np.random.default_rng(18)
    g, lin = interleaved_window(rng, monkeypatch)
    g.values = {k: g.values[k] for k in lin.keys}
    lin = g.linearize()
    dense = np.linalg.inv(lin.H.toarray())
    query = lin.keys[::3]
    covs = marginal_covariances(g, query, lin)
    for key in query:
        a = lin.offsets[key]
        block = dense[a : a + key.dim, a : a + key.dim]
        assert np.abs(covs[key] - block).max() <= 1e-10 * np.abs(block).max()


@pytest.mark.parametrize("drop", ["bias", "poses"])
def test_structured_marginalization_matches_dense(drop, monkeypatch):
    # a dropped block of biases alone has no banded part, one of poses no border
    priors = []
    for dense_dim in (256, 0):
        monkeypatch.setattr(solver, "_DENSE_DIM", dense_dim)
        g, pose_keys, bias_keys, _ = build_range_graph(np.random.default_rng(21), n_poses=6)
        priors.append(marginalize(g, bias_keys[:1] if drop == "bias" else pose_keys[:2]))
    dense, structured = priors
    assert structured.keys == dense.keys
    assert np.abs(structured.info - dense.info).max() <= 1e-12 * np.abs(dense.info).max()
    assert np.abs(structured.info_vec - dense.info_vec).max() <= 1e-12 * np.abs(
        dense.info_vec).max()


def test_marginalize_falls_back_on_a_sparse_system(monkeypatch):
    # a sparse system keeps no Jacobian entries to re-read
    monkeypatch.setattr(solver, "_DENSE_DIM", 0)
    g, pose_keys, _, _ = build_range_graph(np.random.default_rng(22), n_poses=6)
    lin = optimize(g).linearization
    assert scipy.sparse.issparse(lin.H) and lin.entries is None
    values, factors = dict(g.values), list(g.factors)
    calls = count_linearizations(monkeypatch)
    _, prior = fold_slide(values, factors, pose_keys[:2], lin)
    assert len(calls) == 1
    assert_same_prior(prior, fold_slide(values, factors, pose_keys[:2])[1])


def pose_chain(rng, n, prior=True):
    """``n`` poses tied by odometry, started off the truth, with a prior on the first."""
    truth = [Pose.identity()]
    for _ in range(n - 1):
        truth.append(truth[-1] @ random_pose(rng, trans=0.5, rot=0.1))
    keys = [VariableKey.pose(k, float(k)) for k in range(n)]
    g = FactorGraph()
    for key, pose in zip(keys, truth):
        g.add_variable(key, pose @ random_pose(rng, trans=0.05, rot=0.01))
    if prior:
        g.add_factor(PriorFactor(keys[0], truth[0], 1e-6 * np.eye(6)))
    for k in range(n - 1):
        g.add_factor(odometry(keys[k], keys[k + 1], truth[k].inverse() @ truth[k + 1]))
    return g, keys, truth


def test_gauge_free_structured_system_names_its_directions():
    g, keys, _ = pose_chain(np.random.default_rng(19), 50, prior=False)
    assert scipy.sparse.issparse(g.linearize().H)  # 300 dims
    with pytest.raises(solver.SingularSystem) as err:
        marginal_covariance(g, keys[0])
    assert "unconstrained" in str(err.value)
    assert str(err.value).count("/") == 6


def test_structured_optimize_peaks_below_one_dense_matrix():
    n = 501  # 3,006 tangent dims
    g, keys, truth = pose_chain(np.random.default_rng(20), n)
    dense_bytes = (6 * n) ** 2 * 8
    tracemalloc.start()
    try:
        report = optimize(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak < dense_bytes, f"peak {peak / 1e6:.1f} MB"
    assert np.linalg.norm(g.values[keys[-1]].position - truth[-1].position) < 1e-6


def captured_slides(monkeypatch):
    """Every window slide of a short UFLS replay with a bias walk.

    Each is the graph's values and factors just before the slide, the keys
    it drops and the previous solve's linearization.
    """
    from conftest import replay_ufls

    from raloc import sim, ufls as ufls_module

    slides = []
    fold = ufls_module.marginalize

    def capture(graph, drop, linearization=None):
        slides.append((dict(graph.values), list(graph.factors), list(drop), linearization))
        return fold(graph, drop, linearization)

    monkeypatch.setattr(ufls_module, "marginalize", capture)
    sc = sim.preset_scenario("small", seed=5, duration=6.0)
    ds = sim.simulate(sc)
    config = ufls_module.UflsConfig(initial_pose=ds.truth[0][1], bias_walk_sigma=0.05)
    replay_ufls(ds, ufls_module.Ufls(config, sc.anchors))
    monkeypatch.setattr(ufls_module, "marginalize", fold)
    return slides


def fold_slide(values, factors, drop, linearization=None):
    g = FactorGraph()
    g.values, g.factors = dict(values), list(factors)
    prior = marginalize(g, drop, linearization)
    return g, prior


def count_linearizations(monkeypatch):
    calls = []
    linearize = FactorGraph.linearize

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("factors"))
        return linearize(self, *args, **kwargs)

    monkeypatch.setattr(FactorGraph, "linearize", counted)
    return calls


def test_marginalize_from_the_last_solve_matches_a_fresh_assembly(monkeypatch):
    slides = captured_slides(monkeypatch)

    def wanted(slide):
        values, factors, drop, lin = slide
        drop_set = set(drop)
        touches = [not drop_set.isdisjoint(f.keys) for f in factors]
        ranges = [t for f, t in zip(factors, touches) if isinstance(f, RangeFactor)]
        return (
            lin is not None
            and 0 < sum(ranges) < len(ranges)  # the stacked range group is split
            and any(t and isinstance(f, MarginalPrior) for f, t in zip(factors, touches))
            and any(isinstance(f, BiasWalkFactor) and f.keys[0] in drop_set for f in factors)
        )

    chosen = [slide for slide in slides if wanted(slide)]
    assert chosen, "no slide drops a pose and a stale bias epoch beside a marginal prior"
    calls = count_linearizations(monkeypatch)
    for values, factors, drop, lin in chosen:
        reused_graph, reused = fold_slide(values, factors, drop, lin)
        assert calls == []  # no evaluation: the rows come from the last solve
        fresh_graph, fresh = fold_slide(values, factors, drop)
        assert len(calls) == 1
        calls.clear()
        assert reused.keys == fresh.keys
        assert np.abs(reused.info - fresh.info).max() <= 1e-12 * np.abs(fresh.info).max()
        assert np.abs(reused.info_vec - fresh.info_vec).max() <= 1e-12 * np.abs(
            fresh.info_vec).max()
        assert list(reused_graph.values) == list(fresh_graph.values)
        assert all(a is b for a, b in zip(reused_graph.factors[:-1], fresh_graph.factors[:-1]))
        assert len(reused_graph.factors) == len(fresh_graph.factors)


def stale_slide(monkeypatch):
    slides = [s for s in captured_slides(monkeypatch) if s[3] is not None]
    assert slides
    return slides[len(slides) // 2]


def assert_same_prior(a, b):
    assert a.keys == b.keys
    assert np.array_equal(a.info, b.info) and np.array_equal(a.info_vec, b.info_vec)


def test_marginalize_falls_back_when_a_new_factor_touches_a_dropped_state(monkeypatch):
    values, factors, drop, lin = stale_slide(monkeypatch)
    # a second range to a dropped pose, arriving after the solve
    late = copy.copy(next(f for f in factors if isinstance(f, RangeFactor) and f.keys[0] in drop))
    factors = factors + [late]
    calls = count_linearizations(monkeypatch)
    g, prior = fold_slide(values, factors, drop, lin)
    assert len(calls) == 1 and late in calls[0]  # assembled afresh, the late range included
    assert late not in g.factors
    assert_same_prior(prior, fold_slide(values, factors, drop)[1])


def test_marginalize_falls_back_when_a_value_was_replaced(monkeypatch):
    values, factors, drop, lin = stale_slide(monkeypatch)
    g, _ = fold_slide(values, factors, drop, lin)
    border = next(k for k in g.factors[-1].keys if k.kind == solver.KIND_POSE)
    values = {**values, border: values[border] @ exp(np.full(6, 1e-3))}
    calls = count_linearizations(monkeypatch)
    _, prior = fold_slide(values, factors, drop, lin)
    assert len(calls) == 1
    assert_same_prior(prior, fold_slide(values, factors, drop)[1])
