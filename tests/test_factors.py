"""Factor residual tests; analytic Jacobians are checked against central
finite differences in the tangent space of each variable."""

import numpy as np
import pytest

from raloc.factors import (
    Anchor,
    LeverArm,
    OdometryFactor,
    OffsetMeasurementFactor,
    PriorFactor,
    RangeFactor,
    RangeFactorFixedBias,
    RangeMeasurement,
    Residual,
    WnoaFactor,
    odometry_residual,
    offset_measurement_residual,
    prior_residual,
    range_residual,
    whitener,
    wnoa_process_cov,
    wnoa_residual,
    wnoa_transition,
)
from raloc.lie import Pose, exp
from raloc.preintegration import PreintegratedOdometry
from raloc.ufls import BiasWalkFactor

FD_STEP = 1e-6


def random_pose(rng, trans=2.0, rot=0.4):
    xi = np.concatenate([trans * rng.normal(size=3), rot * rng.normal(size=3)])
    return exp(xi)


def random_cov(rng, dim, scale=0.05):
    a = rng.normal(size=(dim, dim))
    return scale**2 * (a @ a.T / dim + 0.5 * np.eye(dim))


def fd_jacobian(fun, x, dim):
    """Central differences of fun w.r.t. the tangent perturbation of x."""
    value = fun(x)
    out = np.empty((value.size, dim))
    for k in range(dim):
        step = np.zeros(dim)
        step[k] = FD_STEP
        if isinstance(x, Pose):
            hi = fun(x @ exp(step))
            lo = fun(x @ exp(-step))
        elif dim == 1 and np.isscalar(x):
            hi = fun(x + FD_STEP)
            lo = fun(x - FD_STEP)
        else:
            hi = fun(x + step)
            lo = fun(x - step)
        out[:, k] = (hi - lo) / (2.0 * FD_STEP)
    return out


def check_jacobians(residual: Residual, variables, funs):
    for jac, var, fun in zip(residual.jacobians, variables, funs):
        fd = fd_jacobian(fun, var, jac.shape[1])
        assert np.allclose(jac, fd, rtol=1e-5, atol=1e-8), (jac, fd)


def test_range_three_four_five():
    anchor = Anchor(0, np.array([3.0, 4.0, 0.0]))
    z = RangeMeasurement(0.0, 0, 5.0, 0.1)
    res = range_residual(Pose.identity(), 0.0, z, anchor, LeverArm(np.zeros(3)))
    assert res.value[0] == pytest.approx(0.0, abs=1e-12)


def test_range_bias_lengthens_prediction():
    anchor = Anchor(0, np.array([3.0, 4.0, 0.0]))
    z = RangeMeasurement(0.0, 0, 5.0, 0.1)
    res = range_residual(Pose.identity(), 0.2, z, anchor, LeverArm(np.zeros(3)))
    assert res.value[0] == pytest.approx(0.2)
    wr, _ = res.whitened()
    assert wr[0] == pytest.approx(0.2 / 0.1)


def test_range_rotation_invariant_with_zero_arm():
    rng = np.random.default_rng(0)
    anchor = Anchor(0, np.array([1.0, -2.0, 3.0]))
    z = RangeMeasurement(0.0, 0, 4.0, 0.1)
    base = Pose(np.eye(3), np.array([0.5, 0.5, 0.0]))
    r0 = range_residual(base, 0.1, z, anchor, LeverArm(np.zeros(3)))
    for _ in range(10):
        spun = Pose(exp(np.concatenate([np.zeros(3), rng.normal(size=3)])).rotation, base.position)
        r = range_residual(spun, 0.1, z, anchor, LeverArm(np.zeros(3)))
        assert r.value[0] == pytest.approx(r0.value[0], abs=1e-12)
        assert np.allclose(r.jacobians[0][0, 3:], 0.0)


def test_range_rejects_coincident_anchor():
    anchor = Anchor(0, np.zeros(3))
    z = RangeMeasurement(0.0, 0, 1.0, 0.1)
    with pytest.raises(ValueError):
        range_residual(Pose.identity(), 0.0, z, anchor, LeverArm(np.zeros(3)))


def test_range_jacobians_match_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(400):
        pose = random_pose(rng)
        anchor = Anchor(0, pose.position + rng.normal(size=3) * 3.0 + np.array([4.0, 0, 0]))
        arm = LeverArm(rng.normal(size=3) * 0.2)
        bias = float(rng.normal() * 0.3)
        z = RangeMeasurement(0.0, 0, float(rng.uniform(0.5, 10.0)), 0.1)
        res = range_residual(pose, bias, z, anchor, arm)
        check_jacobians(
            res,
            (pose, bias),
            (
                lambda T: range_residual(T, bias, z, anchor, arm).value,
                lambda b: range_residual(pose, b, z, anchor, arm).value,
            ),
        )


def test_odometry_zero_at_exact_motion():
    rng = np.random.default_rng(2)
    ti = random_pose(rng)
    m = PreintegratedOdometry(0.0, 1.0, random_pose(rng), np.eye(6) * 1e-4)
    tj = ti @ m.delta
    res = odometry_residual(ti, tj, m)
    assert np.allclose(res.value, 0.0, atol=1e-12)

    ident = PreintegratedOdometry(0.0, 1.0, Pose.identity(), np.eye(6) * 1e-4)
    res = odometry_residual(Pose.identity(), Pose.identity(), ident)
    assert np.allclose(res.value, 0.0)


def test_odometry_jacobians_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(300):
        ti = random_pose(rng)
        tj = random_pose(rng)
        m = PreintegratedOdometry(0.0, 1.0, random_pose(rng, trans=0.5, rot=0.2), np.eye(6) * 1e-4)
        res = odometry_residual(ti, tj, m)
        check_jacobians(
            res,
            (ti, tj),
            (
                lambda T: odometry_residual(T, tj, m).value,
                lambda T: odometry_residual(ti, T, m).value,
            ),
        )


def test_odometry_weight_whitens_by_cov():
    rng = np.random.default_rng(4)
    cov = random_cov(rng, 6)
    m = PreintegratedOdometry(0.0, 1.0, random_pose(rng), cov)
    res = odometry_residual(Pose.identity(), random_pose(rng), m)
    assert np.allclose(res.weight.T @ res.weight, np.linalg.inv(cov), rtol=1e-8, atol=1e-6)


def test_odometry_degenerate_cov_regularized():
    rng = np.random.default_rng(5)
    m = PreintegratedOdometry(0.0, 1.0, random_pose(rng), np.zeros((6, 6)))
    res = odometry_residual(Pose.identity(), Pose.identity(), m)
    assert np.all(np.isfinite(res.weight))


def test_prior_zero_at_mean():
    rng = np.random.default_rng(6)
    pose = random_pose(rng)
    res = prior_residual(pose, pose, np.eye(6))
    assert np.allclose(res.value, 0.0, atol=1e-12)
    res = prior_residual(0.3, 0.3, np.array([[0.04]]))
    assert res.value[0] == 0.0
    x = rng.normal(size=6)
    res = prior_residual(x, x, np.eye(6))
    assert np.allclose(res.value, 0.0)


def test_bias_prior_from_calibration():
    res = prior_residual(0.45, 0.25, np.array([[0.1**2]]))
    wr, _ = res.whitened()
    assert wr[0] == pytest.approx((0.45 - 0.25) / 0.1)


def test_prior_jacobians_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        pose = random_pose(rng)
        mean = random_pose(rng)
        cov = random_cov(rng, 6)
        res = prior_residual(pose, mean, cov)
        check_jacobians(res, (pose,), (lambda T: prior_residual(T, mean, cov).value,))
    for _ in range(50):
        x = rng.normal(size=6)
        mean = rng.normal(size=6)
        res = prior_residual(x, mean, np.eye(6))
        check_jacobians(res, (x,), (lambda v: prior_residual(v, mean, np.eye(6)).value,))
    for _ in range(50):
        b = float(rng.normal())
        res = prior_residual(b, 0.1, np.array([[0.04]]))
        check_jacobians(res, (b,), (lambda v: prior_residual(v, 0.1, np.array([[0.04]])).value,))


def test_wnoa_zero_on_constant_velocity():
    x_prev = np.array([1.0, 2.0, 3.0, 0.5, -0.5, 0.2])
    dt = 0.3
    x_next = wnoa_transition(dt) @ x_prev
    res = wnoa_residual(x_prev, x_next, dt, np.eye(3))
    assert np.allclose(res.value, 0.0)


def test_wnoa_process_cov_blocks():
    q = wnoa_process_cov(1.0, np.eye(3))
    expected = np.block(
        [
            [np.eye(3) / 3.0, np.eye(3) / 2.0],
            [np.eye(3) / 2.0, np.eye(3)],
        ]
    )
    assert np.allclose(q, expected)


def test_wnoa_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        wnoa_residual(np.zeros(6), np.zeros(6), 0.0, np.eye(3))


def test_wnoa_jacobians_match_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x_prev = rng.normal(size=6)
        x_next = rng.normal(size=6)
        dt = float(rng.uniform(0.05, 1.0))
        res = wnoa_residual(x_prev, x_next, dt, 0.1 * np.eye(3))
        check_jacobians(
            res,
            (x_prev, x_next),
            (
                lambda v: wnoa_residual(v, x_next, dt, 0.1 * np.eye(3)).value,
                lambda v: wnoa_residual(x_prev, v, dt, 0.1 * np.eye(3)).value,
            ),
        )


def test_offset_measurement_basics():
    x = np.array([1.0, 2.0, 3.0, 0.0, 0.0, 0.0])
    res = offset_measurement_residual(x, x[:3], np.eye(3))
    assert np.allclose(res.value, 0.0)
    res = offset_measurement_residual(x, x[:3] - np.array([1.0, 0.0, 0.0]), np.eye(3))
    assert np.linalg.norm(res.value) == pytest.approx(1.0)


def test_offset_measurement_jacobians_match_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.normal(size=6)
        y = rng.normal(size=3)
        cov = random_cov(rng, 3)
        res = offset_measurement_residual(x, y, cov)
        check_jacobians(res, (x,), (lambda v: offset_measurement_residual(v, y, cov).value,))


def test_whitener_matches_inverse_cov():
    rng = np.random.default_rng(10)
    cov = random_cov(rng, 6)
    w = whitener(cov)
    assert np.allclose(w.T @ w, np.linalg.inv(cov), rtol=1e-8, atol=1e-8)


def test_factor_wrappers_cache_weights_and_evaluate():
    rng = np.random.default_rng(11)
    anchor = Anchor(3, np.array([5.0, 0.0, 2.0]))
    z = RangeMeasurement(1.0, 3, 4.5, 0.1)
    f = RangeFactor("x0", "b3", z, anchor, LeverArm(np.zeros(3)))
    assert f.keys == ("x0", "b3")
    pose = random_pose(rng)
    direct = range_residual(pose, 0.05, z, anchor, LeverArm(np.zeros(3)))
    assert np.allclose(f.evaluate(pose, 0.05).value, direct.value)

    m = PreintegratedOdometry(0.0, 0.2, random_pose(rng), random_cov(rng, 6))
    of = OdometryFactor("x0", "x1", m)
    ti, tj = random_pose(rng), random_pose(rng)
    assert np.allclose(of.evaluate(ti, tj).value, odometry_residual(ti, tj, m).value)

    pf = PriorFactor("x0", ti, np.eye(6) * 0.01)
    assert np.allclose(pf.evaluate(ti).value, 0.0, atol=1e-12)

    wf = WnoaFactor("s0", "s1", 0.1, np.eye(3))
    x = rng.normal(size=6)
    assert np.allclose(wf.evaluate(x, wnoa_transition(0.1) @ x).value, 0.0, atol=1e-12)

    mf = OffsetMeasurementFactor("s0", x[:3], np.eye(3) * 0.01)
    assert np.allclose(mf.evaluate(x).value, 0.0)


def test_huber_caps_large_residual_influence():
    anchor = Anchor(0, np.array([10.0, 0.0, 0.0]))
    z = RangeMeasurement(0.0, 0, 4.0, 0.1)
    plain = RangeFactor("x", "b", z, anchor, LeverArm(np.zeros(3)))
    robust = RangeFactor("x", "b", z, anchor, LeverArm(np.zeros(3)), huber_delta=1.0)
    res_p = plain.evaluate(Pose.identity(), 0.0)
    res_r = robust.evaluate(Pose.identity(), 0.0)
    wr_p, _ = res_p.whitened()
    wr_r, _ = res_r.whitened()
    assert abs(wr_p[0]) == pytest.approx(60.0)
    assert abs(wr_r[0]) == pytest.approx(np.sqrt(60.0))
    # small residuals pass through untouched
    z_good = RangeMeasurement(0.0, 0, 10.0, 0.1)
    good = RangeFactor("x", "b", z_good, anchor, LeverArm(np.zeros(3)), huber_delta=1.0)
    res_g = good.evaluate(Pose.identity(), 0.0)
    assert np.allclose(res_g.weight, np.array([[10.0]]))


def test_type_validation():
    with pytest.raises(ValueError):
        Anchor(0, np.zeros(3), bias_prior_sigma=0.0)
    with pytest.raises(ValueError):
        Anchor(0, np.array([np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError):
        RangeMeasurement(0.0, 0, -1.0, 0.1)
    with pytest.raises(ValueError):
        RangeMeasurement(0.0, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        LeverArm(np.array([np.nan, 0.0, 0.0]))


def stacked(poses):
    return np.array([T.rotation for T in poses]), np.array([T.position for T in poses])


def assert_rows_match(rows, refs):
    """Stacked whitened rows against one whitened reference per measurement."""
    wr, wjs = rows
    m = refs[0][0].size
    for n, (ref_r, ref_js) in enumerate(refs):
        scale = max(1.0, np.abs(ref_r).max(), *(np.abs(j).max() for j in ref_js))
        assert np.abs(wr[n * m : (n + 1) * m] - ref_r).max() <= 1e-12 * scale
        for wj, ref_j in zip(wjs, ref_js):
            assert np.abs(wj[n * m : (n + 1) * m] - ref_j).max() <= 1e-12 * scale


def huber_reference(res, delta):
    """Huber reweighting of a scalar reference residual, stated plainly."""
    wr = abs(float(res.weight[0, 0] * res.value[0]))
    if delta is None or wr <= delta:
        return res
    return Residual(res.value, res.jacobians, np.sqrt(delta / wr) * res.weight)


def range_case(rng, n):
    poses = [random_pose(rng) for _ in range(n)]
    anchors = [Anchor(10 + k, T.position + rng.normal(size=3) * 3.0 + [4.0, 0.0, 0.0])
               for k, T in enumerate(poses)]
    arms = [LeverArm(rng.normal(size=3) * 0.2) for _ in range(n)]
    # a third of the ranges are 3 m off: Huber shrinks those rows only
    truth = [float(np.linalg.norm(a.position - T.rotation @ arm.offset - T.position))
             for a, T, arm in zip(anchors, poses, arms)]
    zs = [RangeMeasurement(0.0, a.id, r + (3.0 if k % 3 == 0 else 0.05 * rng.normal()),
                           float(rng.uniform(0.05, 0.3)))
          for k, (a, r) in enumerate(zip(anchors, truth))]
    deltas = [None if k % 2 else 2.0 for k in range(n)]
    return poses, anchors, arms, zs, deltas


def test_stacked_range_kernels_match_references():
    rng = np.random.default_rng(31)
    n = 24
    poses, anchors, arms, zs, deltas = range_case(rng, n)
    biases = 0.3 * rng.normal(size=n)
    factors = [RangeFactor("x", "b", z, a, arm, d)
               for z, a, arm, d in zip(zs, anchors, arms, deltas)]
    rows = RangeFactor.stack(factors).evaluate(stacked(poses), biases)
    singles, refs = [], []
    for f, T, b, z, a, arm, d in zip(factors, poses, biases, zs, anchors, arms, deltas):
        singles.append(f.evaluate(T, b).whitened())
        refs.append(huber_reference(range_residual(T, b, z, a, arm), d).whitened())
    assert_rows_match(rows.whitened(), singles)
    assert_rows_match(rows.whitened(), refs)
    shrunk = rows.weight[:, 0, 0] < np.array([1.0 / z.sigma for z in zs])
    assert 0 < shrunk.sum() < n

    fixed = [0.3 * float(rng.normal()) for _ in range(n)]
    factors = [RangeFactorFixedBias("x", z, a, arm, c, d)
               for z, a, arm, c, d in zip(zs, anchors, arms, fixed, deltas)]
    rows = RangeFactorFixedBias.stack(factors).evaluate(stacked(poses))
    singles, refs = [], []
    for f, T, c, z, a, arm, d in zip(factors, poses, fixed, zs, anchors, arms, deltas):
        singles.append(f.evaluate(T).whitened())
        ref = range_residual(T, c, z, a, arm)
        ref = huber_reference(Residual(ref.value, ref.jacobians[:1], ref.weight), d)
        refs.append(ref.whitened())
    assert_rows_match(rows.whitened(), singles)
    assert_rows_match(rows.whitened(), refs)


def test_stacked_range_names_the_coincident_anchor():
    rng = np.random.default_rng(32)
    poses, anchors, arms, zs, _ = range_case(rng, 5)
    anchors[3] = Anchor(7, poses[3].rotation @ arms[3].offset + poses[3].position)
    factors = [RangeFactor("x", "b", z, a, arm) for z, a, arm in zip(zs, anchors, arms)]
    with pytest.raises(ValueError, match="anchor 7"):
        RangeFactor.stack(factors).evaluate(stacked(poses), np.zeros(5))


def test_stacked_odometry_kernel_matches_references():
    rng = np.random.default_rng(33)
    n = 12
    ti = [random_pose(rng) for _ in range(n)]
    tj = [random_pose(rng) for _ in range(n)]
    spans = [PreintegratedOdometry(0.0, 1.0, random_pose(rng, trans=0.5, rot=0.2),
                                   random_cov(rng, 6)) for _ in range(n)]
    factors = [OdometryFactor("i", "j", m) for m in spans]
    rows = OdometryFactor.stack(factors).evaluate(stacked(ti), stacked(tj)).whitened()
    singles = [f.evaluate(a, b).whitened() for f, a, b in zip(factors, ti, tj)]
    refs = [odometry_residual(a, b, m).whitened() for a, b, m in zip(ti, tj, spans)]
    assert_rows_match(rows, singles)
    assert_rows_match(rows, refs)


def test_stacked_bias_walk_kernel_matches_references():
    rng = np.random.default_rng(34)
    n = 10
    sigmas = rng.uniform(0.01, 0.5, size=n)
    prev, nxt = rng.normal(size=n), rng.normal(size=n)
    factors = [BiasWalkFactor("b0", "b1", s) for s in sigmas]
    rows = BiasWalkFactor.stack(factors).evaluate(prev, nxt).whitened()
    singles = [f.evaluate(a, b).whitened() for f, a, b in zip(factors, prev, nxt)]
    refs = [(np.array([(b - a) / s]), (np.array([[-1.0 / s]]), np.array([[1.0 / s]])))
            for a, b, s in zip(prev, nxt, sigmas)]
    assert_rows_match(rows, singles)
    assert_rows_match(rows, refs)
