import numpy as np
import pytest

from dfsim.fock import (
    DensityMatrix,
    FockBasisState,
    ModeVector,
    TruncationSpec,
    basis_vector,
    creation_operator,
    dfs_state_builder,
    fidelity,
    fock_state,
    ladder_operator,
    mode_population,
    one_photon_state,
    purity,
    trace_distance,
    vacuum_state,
)
from _support import random_density_matrix, random_pure_state


def test_basis_ordering_first_mode_slowest():
    spec = TruncationSpec(2, 1)
    assert spec.index_of((0, 0)) == 0
    assert spec.index_of((0, 1)) == 1
    assert spec.index_of((1, 0)) == 2
    assert spec.index_of((1, 1)) == 3
    assert spec.dim == 4


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(0, 3)
    with pytest.raises(ValueError):
        TruncationSpec(2, 0)
    with pytest.raises(ValueError):
        TruncationSpec(2, 1).index_of((0, 2))


def test_ladder_single_mode_amplitudes():
    spec = TruncationSpec(1, 1)
    a = ladder_operator(spec, 0)
    out = a @ basis_vector(spec, (1,))
    assert np.allclose(out, basis_vector(spec, (0,)))

    spec2 = TruncationSpec(1, 2)
    a2 = ladder_operator(spec2, 0)
    out2 = a2 @ basis_vector(spec2, (2,))
    assert np.allclose(out2, np.sqrt(2.0) * basis_vector(spec2, (1,)))


def test_ladder_tensor_factorization():
    spec = TruncationSpec(2, 1)
    a1 = ladder_operator(spec, 0)
    # annihilating mode 1 leaves mode 2 occupations untouched
    assert np.allclose(a1 @ basis_vector(spec, (1, 1)), basis_vector(spec, (0, 1)))
    assert np.allclose(a1 @ basis_vector(spec, (1, 0)), basis_vector(spec, (0, 0)))
    assert np.allclose(a1 @ basis_vector(spec, (0, 1)), 0.0)


def test_ladder_mode_out_of_range():
    with pytest.raises(ValueError):
        ladder_operator(TruncationSpec(2, 1), 2)


@pytest.mark.parametrize("num_modes,max_exc", [(1, 4), (2, 3), (3, 2)])
def test_commutator_below_top_level(num_modes, max_exc):
    spec = TruncationSpec(num_modes, max_exc)
    occ = spec.occupations()
    for i in range(num_modes):
        for j in range(num_modes):
            ai = ladder_operator(spec, i)
            aj_dag = creation_operator(spec, j)
            comm = ai @ aj_dag - aj_dag @ ai
            expected = np.eye(spec.dim) if i == j else np.zeros((spec.dim, spec.dim))
            # rows/cols touching the top level of either mode are truncated
            keep = (occ[:, i] < max_exc) & (occ[:, j] < max_exc)
            assert np.max(np.abs(comm[np.ix_(keep, keep)] - expected[np.ix_(keep, keep)])) < 1e-12


def test_one_photon_state_limits():
    spec = TruncationSpec(2, 2)
    rho_a = one_photon_state(ModeVector.from_angles(0.0, 0.0), spec)
    assert fidelity(rho_a, fock_state(spec, (1, 0))) == pytest.approx(1.0, abs=1e-12)
    rho_b = one_photon_state(ModeVector.from_angles(np.pi / 2, 0.0), spec)
    assert fidelity(rho_b, fock_state(spec, (0, 1))) == pytest.approx(1.0, abs=1e-12)


def test_one_photon_state_superposition():
    spec = TruncationSpec(2, 1)
    rho = one_photon_state(ModeVector.from_angles(np.pi / 4, np.pi / 2), spec)
    psi = (basis_vector(spec, (1, 0)) + 1j * basis_vector(spec, (0, 1))) / np.sqrt(2)
    expected = np.outer(psi, psi.conj())
    assert np.max(np.abs(rho.matrix - expected)) < 1e-12


def test_zero_norm_mode_vector_rejected():
    with pytest.raises(ValueError):
        ModeVector.from_amplitudes([0.0, 0.0])
    with pytest.raises(ValueError):
        ModeVector(np.array([0.5, 0.5]))  # norm != 1


def test_dfs_builder_vacuum_term():
    spec = TruncationSpec(2, 3)
    rho = dfs_state_builder(np.array([[1.0]]), 0.7, spec)
    assert fidelity(rho, vacuum_state(spec)) == pytest.approx(1.0, abs=1e-12)


def test_dfs_builder_single_excitation():
    spec = TruncationSpec(2, 3)
    rho = dfs_state_builder(np.diag([0.0, 1.0]), np.pi / 4, spec)
    psi = (-basis_vector(spec, (1, 0)) + basis_vector(spec, (0, 1))) / np.sqrt(2)
    assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) < 1e-12


def test_dfs_builder_rate_angle_populations():
    # tan(theta) = sqrt(k2/k1) with k1=1, k2=4 puts populations (4/5, 1/5)
    spec = TruncationSpec(2, 3)
    theta = np.arctan(2.0)
    rho = dfs_state_builder(np.diag([0.0, 1.0]), theta, spec)
    assert mode_population(rho, ModeVector.from_angles(0.0, 0.0)) == pytest.approx(0.8, abs=1e-12)
    assert mode_population(rho, ModeVector.from_angles(np.pi / 2, 0.0)) == pytest.approx(0.2, abs=1e-12)


def test_dfs_builder_theta_zero_places_coeffs_in_mode_two():
    spec = TruncationSpec(2, 3)
    table = np.array(
        [[0.55, 0.2 + 0.1j, 0.0], [0.2 - 0.1j, 0.35, 0.0], [0.0, 0.0, 0.1]]
    )
    rho = dfs_state_builder(table, 0.0, spec)
    for n in range(3):
        for m in range(3):
            idx_n = spec.index_of((0, n))
            idx_m = spec.index_of((0, m))
            assert rho.matrix[idx_n, idx_m] == pytest.approx(table[n, m], abs=1e-12)


def test_dfs_builder_errors():
    spec = TruncationSpec(2, 1)
    with pytest.raises(ValueError):  # needs occupation 2, truncation allows 1
        dfs_state_builder(np.diag([0.0, 0.0, 1.0]), 0.3, spec)
    with pytest.raises(ValueError):  # not unit trace
        dfs_state_builder(np.diag([0.5, 0.2]), 0.3, spec)
    with pytest.raises(ValueError):  # not hermitian
        dfs_state_builder(np.array([[0.5, 1.0], [0.0, 0.5]]), 0.3, spec)


def test_fidelity_pure_cases():
    spec = TruncationSpec(2, 1)
    rho = fock_state(spec, (1, 0))
    sigma = fock_state(spec, (0, 1))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(rho, sigma) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(vacuum_state(TruncationSpec(2, 1)), vacuum_state(TruncationSpec(2, 2)))


def test_purity_values():
    spec = TruncationSpec(2, 1)
    assert purity(fock_state(spec, (1, 1))) == pytest.approx(1.0, abs=1e-12)
    half = 0.5 * (
        fock_state(spec, (0, 0)).matrix + fock_state(spec, (1, 0)).matrix
    )
    assert purity(DensityMatrix(spec, half)) == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_orthogonal():
    spec = TruncationSpec(2, 1)
    assert trace_distance(
        fock_state(spec, (1, 0)), fock_state(spec, (0, 1))
    ) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_vs_trace_distance_pure_pairs():
    rng = np.random.default_rng(42)
    spec = TruncationSpec(2, 2)
    for _ in range(50):
        rho = random_pure_state(rng, spec)
        sigma = random_pure_state(rng, spec)
        assert 1.0 - fidelity(rho, sigma) <= trace_distance(rho, sigma) + 1e-10


def test_mode_population_cases():
    spec = TruncationSpec(2, 2)
    mode = ModeVector.from_angles(0.3, -1.2)
    rho = one_photon_state(mode, spec)
    assert mode_population(rho, mode) == pytest.approx(1.0, abs=1e-12)
    assert mode_population(vacuum_state(spec), mode) == pytest.approx(0.0, abs=1e-12)


def test_density_matrix_validation():
    spec = TruncationSpec(1, 1)
    with pytest.raises(ValueError):
        DensityMatrix(spec, np.array([[0.5, 0.1], [0.2, 0.5]]))  # non-hermitian
    with pytest.raises(ValueError):
        DensityMatrix(spec, np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        DensityMatrix(spec, np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(spec, np.eye(3) / 3.0)  # wrong shape


def test_constructor_outputs_satisfy_invariants():
    rng = np.random.default_rng(3)
    spec = TruncationSpec(2, 2)
    states = [
        vacuum_state(spec),
        fock_state(spec, (1, 2)),
        one_photon_state(ModeVector.from_angles(1.0, 2.0), spec),
        dfs_state_builder(np.diag([0.3, 0.7]), 0.8, spec),
        random_density_matrix(rng, spec),
    ]
    for rho in states:
        assert rho.hermiticity_defect() < 1e-12
        assert rho.trace_error() < 1e-10
        assert rho.min_eigenvalue() > -1e-10


def test_density_matrix_immutable():
    spec = TruncationSpec(1, 1)
    rho = vacuum_state(spec)
    with pytest.raises(AttributeError):
        rho.matrix = np.eye(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 2.0


def test_fock_basis_state():
    spec = TruncationSpec(3, 1)
    state = FockBasisState((1, 0, 1))
    assert state.index(spec) == spec.index_of((1, 0, 1))
    vec = state.vector(spec)
    assert vec[state.index(spec)] == 1.0
    with pytest.raises(ValueError):
        FockBasisState((-1, 0, 0))
