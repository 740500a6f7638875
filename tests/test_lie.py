import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from raloc import lie


def random_twist(rng, max_angle=np.pi - 1e-3):
    xi = rng.normal(size=6)
    n = np.linalg.norm(xi[3:])
    if n > max_angle:
        xi[3:] *= max_angle / n
    return xi


def series_left_jacobian(xi, terms=40):
    """Independent oracle: J_l = sum_n ad^n / (n+1)!."""
    A = lie.se3_ad(xi)
    out = np.eye(6)
    term = np.eye(6)
    for k in range(1, terms):
        term = term @ A / (k + 1)
        out = out + term
    return out


def test_exp_identity():
    T = lie.exp(np.zeros(6))
    np.testing.assert_allclose(T.matrix(), np.eye(4), atol=1e-15)


def test_exp_pure_rotation_about_x():
    T = lie.exp(np.array([0.0, 0.0, 0.0, np.pi / 2, 0.0, 0.0]))
    expected = Rotation.from_rotvec([np.pi / 2, 0, 0]).as_matrix()
    np.testing.assert_allclose(T.rotation, expected, atol=1e-12)
    np.testing.assert_allclose(T.position, np.zeros(3), atol=1e-15)


def test_exp_rejects_non_finite():
    with pytest.raises(ValueError):
        lie.exp(np.array([np.nan, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        lie.exp(np.array([0, 0, np.inf, 0, 0, 0]))


def test_log_identity():
    np.testing.assert_allclose(lie.log(Pose_identity()), np.zeros(6), atol=1e-15)


def Pose_identity():
    return lie.Pose.identity()


def test_exp_log_roundtrip_randomized():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(2000):
        xi = random_twist(rng)
        err = np.max(np.abs(lie.log(lie.exp(xi)) - xi))
        worst = max(worst, err)
    assert worst < 1e-9


def test_exp_matches_series_oracle():
    # exp via left Jacobian vs matrix exponential of the hat matrix
    from scipy.linalg import expm

    rng = np.random.default_rng(7)
    for _ in range(200):
        xi = random_twist(rng)
        np.testing.assert_allclose(
            lie.exp(xi).matrix(), expm(lie.se3_hat(xi)), atol=1e-9
        )


def test_rotation_log_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(500):
        R = Rotation.random(random_state=np.random.RandomState(rng.integers(1 << 31)))
        phi = lie.so3_log(R.as_matrix())
        np.testing.assert_allclose(phi, R.as_rotvec(), atol=1e-9)


def test_log_near_pi_stress():
    rng = np.random.default_rng(11)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = np.pi - 10 ** rng.uniform(-6, -1)
        xi = np.concatenate([rng.normal(size=3), angle * axis])
        T = lie.exp(xi)
        back = lie.exp(lie.log(T))
        assert np.max(np.abs(back.matrix() - T.matrix())) < 1e-6


def test_adjoint_identity_pose():
    np.testing.assert_allclose(lie.adjoint(lie.Pose.identity()), np.eye(6))


def test_adjoint_pure_translation():
    t = np.array([1.0, -2.0, 3.0])
    Ad = lie.adjoint(lie.Pose(np.eye(3), t))
    expected = np.eye(6)
    expected[:3, 3:] = lie.skew(t)
    np.testing.assert_allclose(Ad, expected, atol=1e-15)


def test_adjoint_defining_identity():
    rng = np.random.default_rng(5)
    for _ in range(300):
        T = lie.exp(random_twist(rng))
        xi = rng.normal(size=6) * 0.5
        lhs = lie.exp(lie.adjoint(T) @ xi)
        rhs = T @ lie.exp(xi) @ T.inverse()
        assert np.max(np.abs(lhs.matrix() - rhs.matrix())) < 1e-9


def test_adjoint_homomorphism():
    rng = np.random.default_rng(6)
    for _ in range(300):
        A = lie.exp(random_twist(rng))
        B = lie.exp(random_twist(rng))
        np.testing.assert_allclose(
            lie.adjoint(A @ B), lie.adjoint(A) @ lie.adjoint(B), atol=1e-9
        )


def test_left_jacobian_matches_series_oracle():
    rng = np.random.default_rng(8)
    for _ in range(300):
        xi = random_twist(rng, max_angle=2.8)
        np.testing.assert_allclose(
            lie.left_jacobian(xi), series_left_jacobian(xi), atol=1e-10
        )


def test_left_jacobian_inverse_consistent():
    rng = np.random.default_rng(9)
    for _ in range(300):
        xi = random_twist(rng, max_angle=2.5)
        np.testing.assert_allclose(
            lie.left_jacobian(xi) @ lie.left_jacobian_inv(xi), np.eye(6), atol=1e-10
        )


def test_pose_inverse_compose_law():
    rng = np.random.default_rng(10)
    for _ in range(200):
        A = lie.exp(random_twist(rng))
        B = lie.exp(random_twist(rng))
        lhs = (A @ B).inverse()
        rhs = B.inverse() @ A.inverse()
        assert np.max(np.abs(lhs.matrix() - rhs.matrix())) < 1e-9


def test_composition_orthonormality_drift():
    rng = np.random.default_rng(12)
    T = lie.Pose.identity()
    for _ in range(10_000):
        T = T @ lie.exp(rng.normal(size=6) * 0.05)
    drift = np.max(np.abs(T.rotation @ T.rotation.T - np.eye(3)))
    assert drift < 1e-7
    assert abs(np.linalg.det(T.rotation) - 1.0) < 1e-7


def test_transport_covariance_identity():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(6, 6))
    cov = A @ A.T
    np.testing.assert_allclose(
        lie.transport_covariance(cov, lie.Pose.identity()), cov, atol=1e-12
    )


def test_transport_covariance_pure_rotation_keeps_identity():
    R = Rotation.from_euler("zyx", [0.3, -0.2, 0.9]).as_matrix()
    out = lie.transport_covariance(np.eye(6), lie.Pose(R, np.zeros(3)))
    np.testing.assert_allclose(out, np.eye(6), atol=1e-12)


def test_transport_covariance_monte_carlo():
    # sampling oracle: cov of log(T_bar^-1 T exp(xi) T^-1 T_bar') ... realized
    # directly as samples of T exp(xi) T^-1 about the identity
    rng = np.random.default_rng(14)
    T = lie.exp(np.array([0.4, -0.2, 0.1, 0.3, 0.2, -0.1]))
    L = np.diag([0.05, 0.04, 0.03, 0.02, 0.03, 0.025])
    cov = L @ L.T
    samples = np.empty((1000, 6))
    for i in range(1000):
        xi = L @ rng.normal(size=6)
        samples[i] = lie.log(T @ lie.exp(xi) @ T.inverse())
    sample_cov = np.cov(samples.T)
    predicted = lie.transport_covariance(cov, T)
    rel = np.linalg.norm(sample_cov - predicted) / np.linalg.norm(predicted)
    assert rel < 0.10


def test_right_perturbation_sampling_self_consistency():
    rng = np.random.default_rng(15)
    T_bar = lie.exp(np.array([1.0, 2.0, -0.5, 0.4, -0.3, 0.2]))
    sig = np.array([0.05, 0.06, 0.04, 0.03, 0.02, 0.04])
    samples = np.empty((4000, 6))
    for i in range(4000):
        xi = sig * rng.normal(size=6)
        T = T_bar @ lie.exp(xi)
        samples[i] = lie.log(T_bar.inverse() @ T)
    est = np.std(samples, axis=0)
    np.testing.assert_allclose(est, sig, rtol=0.1)


def test_twist_ordering_is_translation_first():
    # canonical assertion: translation occupies entries 0..2
    T = lie.exp(np.array([1.0, 2.0, 3.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(T.position, [1.0, 2.0, 3.0], atol=1e-15)
    np.testing.assert_allclose(T.rotation, np.eye(3), atol=1e-15)
    # and the adjoint couples translation to rotation through skew(p)
    Ad = lie.adjoint(lie.Pose(np.eye(3), np.array([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(Ad[:3, 3:], lie.skew([1.0, 2.0, 3.0]), atol=1e-15)


def mixed_twists(rng):
    """Rows in every branch: small-angle, generic and near-pi rotations."""
    axes = rng.normal(size=(30, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.concatenate([
        [0.0],
        rng.uniform(0.0, lie.SMALL_ANGLE, size=9),
        rng.uniform(lie.SMALL_ANGLE, np.pi - 1e-3, size=10),
        np.pi - rng.uniform(1e-6, 9e-5, size=10),
    ])
    xi = np.concatenate([rng.normal(size=(30, 3)), axes * angles[:, None]], axis=1)
    return xi, angles


def test_batched_functions_match_scalar_rows():
    rng = np.random.default_rng(21)
    xi, angles = mixed_twists(rng)
    assert (angles < lie.SMALL_ANGLE).sum() == 10 and (angles > np.pi - 1e-4).sum() == 10

    R, p = lie.batch_exp(xi)
    logs = lie.batch_log(R, p)
    jr_inv = lie.batch_right_jacobian_inv(xi)
    fused_logs, fused_jr_inv = lie.batch_log_jr_inv(R, p)
    assert np.array_equal(fused_logs, logs)
    for n in range(len(xi)):
        T = lie.exp(xi[n])
        assert np.abs(R[n] - T.rotation).max() <= 1e-12
        assert np.abs(p[n] - T.position).max() <= 1e-12
        assert np.abs(logs[n] - lie.log(lie.Pose(R[n], p[n]))).max() <= 1e-12
        assert np.abs(jr_inv[n] - lie.right_jacobian_inv(xi[n])).max() <= 1e-12
        assert np.abs(fused_jr_inv[n] - lie.right_jacobian_inv(logs[n])).max() <= 1e-12
    # the rows really took the near-pi branch of log
    assert np.all(np.linalg.norm(logs[20:, 3:], axis=1) > np.pi - 1e-4)


def test_batched_functions_reject_non_finite_rows():
    rng = np.random.default_rng(22)
    xi, _ = mixed_twists(rng)
    bad = xi.copy()
    bad[4, 1] = np.nan
    with pytest.raises(ValueError):
        lie.exp(bad[4])
    with pytest.raises(ValueError):
        lie.batch_exp(bad)
    R, p = lie.batch_exp(xi)
    R[7, 2, 0] = np.inf
    with pytest.raises(ValueError):
        lie.log(lie.Pose(R[7], p[7]))
    with pytest.raises(ValueError):
        lie.batch_log(R, p)
    with pytest.raises(ValueError):
        lie.batch_log_jr_inv(R, p)


def test_retract_poses_matches_compose_with_exp():
    rng = np.random.default_rng(23)
    poses = [lie.exp(random_twist(rng)) for _ in range(4)]
    # the last one reaches the re-orthonormalization chain length, with a
    # rotation 1e-6 off orthonormal that the reset must repair
    last = poses[-1]
    poses[-1] = lie.Pose((1.0 + 1e-6) * last.rotation, last.position, lie.RENORM_CHAIN - 1)
    xi = 0.1 * rng.normal(size=(4, 6))
    out = lie.retract_poses(poses, xi)
    for T, T_out, x in zip(poses, out, xi):
        ref = T @ lie.exp(x)
        assert T_out.chain == ref.chain
        assert np.abs(T_out.matrix() - ref.matrix()).max() <= 1e-12
    assert out[-1].chain == 0
    assert np.abs(out[-1].rotation @ out[-1].rotation.T - np.eye(3)).max() <= 1e-12
