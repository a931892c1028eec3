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

    def test_min_eigenvalue_is_dimensionless(self, rng):
        # K, S and R scale as length, length^2 and length^3
        m = _random_spd_grand(rng)
        units = np.array([1.0, 1.0, 1.0, 1e8, 1e8, 1e8])
        a, b = GrandMatrix.from_matrix(m), GrandMatrix.from_matrix(m * np.outer(units, units) * 1e8)
        npt.assert_allclose(b.min_eigenvalue, a.min_eigenvalue, rtol=1e-10)
        d = np.sqrt(np.diag(m))
        npt.assert_allclose(a.min_eigenvalue, np.linalg.eigvalsh(m / np.outer(d, d))[0], rtol=1e-12)

    @pytest.mark.parametrize("entry", [0.0, -1.0])
    def test_non_positive_diagonal_rejected(self, rng, entry):
        m = _random_spd_grand(rng)
        m[2, 2] = entry
        with pytest.raises(SolverError, match="diagonal entry"):
            GrandMatrix.from_matrix(m)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_rejected(self, rng, entry):
        # named as not finite before any definiteness check reads it
        for i, j in ((2, 2), (0, 4)):
            m = _random_spd_grand(rng)
            m[i, j] = entry
            with pytest.raises(SolverError, match="not finite"):
                GrandMatrix.from_matrix(m)

    def test_huge_entries_keep_finite_diagnostics(self, rng):
        # the defect's norms would overflow on M itself; it is read on M / 2^e,
        # which is exact, so scaling M by a power of two leaves it bit-identical
        gm = GrandMatrix.from_matrix(np.diag([1e200, 2e200, 3e200, 4e200, 5e200, 6e200]))
        assert gm.symmetry_defect == 0.0
        npt.assert_allclose(gm.min_eigenvalue, 1.0, rtol=1e-15)
        m = _random_spd_grand(rng)
        m[0, 3] += 1e-3
        defects = [GrandMatrix.from_matrix(m * 2.0**e).symmetry_defect for e in (0, 600)]
        assert defects[0] > 0.0 and defects[1] == defects[0]

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
