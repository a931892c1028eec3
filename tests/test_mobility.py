import numpy as np
import numpy.testing as npt
import pytest

from slipswim import (
    BasisRankError,
    GrandMatrix,
    SolverError,
    compute_wrench,
    invert_grand_matrix,
    rigid_trace_data,
    swim_velocity,
    thrust_projection,
    traction_basis,
)
from slipswim.collocation import boundary_data_from_field


def _random_spd_grand(rng, scale=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    eigs = rng.uniform(1.0, scale, size=6)
    return (q * eigs) @ q.T


class TestGrandMatrix:
    def test_no_slip_sphere_oracles(self, problem16_noslip):
        gm = problem16_noslip.grand_matrix
        npt.assert_allclose(gm.K, 6.0 * np.pi * np.eye(3), rtol=1e-2, atol=1e-2)
        npt.assert_allclose(gm.R, 8.0 * np.pi * np.eye(3), rtol=1e-2, atol=1e-2)
        assert np.linalg.norm(gm.S) < 1e-10

    def test_symmetry_and_definiteness(self, problem12):
        gm = problem12.grand_matrix
        assert gm.symmetry_defect < 1e-12
        assert gm.min_eigenvalue > 0

    def test_from_matrix_blocks(self, rng):
        m = _random_spd_grand(rng)
        gm = GrandMatrix.from_matrix(m)
        npt.assert_allclose(gm.K, m[:3, :3])
        npt.assert_allclose(gm.R, m[3:, 3:])
        npt.assert_allclose(gm.S, m[3:, :3])
        # Schur-complement blocks invert the full matrix
        inv = np.linalg.inv(m)
        npt.assert_allclose(gm.A, inv[:3, :3], rtol=1e-10)
        npt.assert_allclose(gm.B, inv[3:, 3:], rtol=1e-10)

    def test_indefinite_rejected(self, rng):
        m = _random_spd_grand(rng)
        m[5, 5] = -1.0
        with pytest.raises(SolverError):
            GrandMatrix.from_matrix(0.5 * (m + m.T))

    def test_block_inverse_agrees_with_direct(self, problem12):
        block, direct = invert_grand_matrix(problem12.grand_matrix)
        rel = np.linalg.norm(block - direct) / np.linalg.norm(direct)
        assert rel < 1e-10
        npt.assert_allclose(block @ problem12.grand_matrix.M, np.eye(6), atol=1e-10)


class TestThrustBasis:
    def test_gram_matrices_full_rank(self, problem12):
        basis = problem12.basis
        assert basis.tractions.shape == (6, problem12.mesh.n_nodes, 3)
        for gram in (basis.gram, basis.gram_tangential):
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() > 1e-8 * eigs.max()

    def test_degenerate_basis_rejected(self, problem12):
        same = (problem12.aux_fields[0],) * 6
        with pytest.raises(BasisRankError):
            traction_basis(same, problem12.mesh, problem12.basis.tractions[[0] * 6])


class TestWrenchAndSwim:
    def test_rigid_trace_wrench_is_matrix_row(self, problem12):
        gm = problem12.grand_matrix
        for k in (1, 3, 5):
            w = compute_wrench(
                rigid_trace_data(problem12.mesh, k), problem12.basis, problem12.mesh
            )
            npt.assert_allclose(w, -gm.M[k - 1], rtol=1e-12, atol=1e-13)

    def test_swim_velocity_solves_system(self, problem12, rng):
        data = boundary_data_from_field(
            problem12.mesh, rng.normal(size=(problem12.mesh.n_nodes, 3))
        )
        wrench = problem12.wrench(data)
        xi, omega = swim_velocity(problem12.grand_matrix, wrench)
        sol = np.concatenate([xi, omega])
        npt.assert_allclose(problem12.grand_matrix.M @ sol, wrench, atol=1e-10)

    def test_swim_velocity_matches_plain_solve(self, rng):
        m = _random_spd_grand(rng)
        gm = GrandMatrix.from_matrix(m)
        w = rng.normal(size=6)
        xi, omega = swim_velocity(gm, w)
        npt.assert_allclose(np.concatenate([xi, omega]), np.linalg.solve(m, w), rtol=1e-10)


class TestThrustProjection:
    def test_zero_data_projects_to_zero(self, problem12):
        zero = boundary_data_from_field(
            problem12.mesh, np.zeros((problem12.mesh.n_nodes, 3))
        )
        coeff, residual, moving = thrust_projection(zero, problem12.basis, problem12.mesh)
        npt.assert_allclose(coeff, 0.0, atol=1e-14)
        assert residual == 0.0
        assert not moving

    def test_basis_member_projects_to_itself(self, problem12):
        traction = problem12.basis.tractions[0]
        data = boundary_data_from_field(problem12.mesh, traction)
        coeff, residual, moving = thrust_projection(data, problem12.basis, problem12.mesh)
        npt.assert_allclose(coeff, np.eye(6)[0], atol=1e-9)
        assert residual < 1e-6 * np.linalg.norm(traction)
        assert moving
