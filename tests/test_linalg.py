import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothsmc import (
    JacobiConvergenceError,
    SymMatrix,
    build_omega_blocks,
    build_p_block,
    build_q_block,
    eig_sym,
    is_positive_definite,
    jacobi_eigh,
    kron_with_identity,
)
from smoothsmc.experiments import DEFAULT_GAINS, build_gain_config
from smoothsmc.linalg import _mirrored3


def random_symmetric(seed, order):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (order, order))
    return SymMatrix((a + a.T) / 2.0)


sym_matrices = st.builds(
    random_symmetric,
    seed=st.integers(0, 2**32 - 1),
    order=st.integers(1, 6),
)


class TestSymMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_exact_asymmetry(self):
        with pytest.raises(ValueError):
            SymMatrix(np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]]))

    @pytest.mark.parametrize("entries", [[[np.nan]], [[1.0, np.nan], [np.nan, 2.0]]])
    def test_rejects_nan_by_name(self, entries):
        with pytest.raises(ValueError, match="NaN"):
            SymMatrix(np.array(entries))

    def test_entries_frozen(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_copies_its_input(self):
        source = np.array([[1.0, 2.0], [2.0, 3.0]])
        m = SymMatrix(source)
        source[0, 1] = source[1, 0] = 7.0
        assert m.entries.tolist() == [[1.0, 2.0], [2.0, 3.0]]
        assert not m.entries.flags.writeable

    def test_accepts_nested_lists_of_ints(self):
        m = SymMatrix([[1, 2], [2, 3]])
        assert m.entries.dtype == np.float64
        assert m.entries.tolist() == [[1.0, 2.0], [2.0, 3.0]]

    def test_accepts_a_signed_zero_mirror_pair_and_infinite_entries(self):
        m = SymMatrix([[1.0, -0.0, np.inf], [0.0, -np.inf, 2.0], [np.inf, 2.0, 3.0]])
        assert np.signbit(m.entries[0, 1]) and not np.signbit(m.entries[1, 0])
        assert m.entries[0, 2] == m.entries[2, 0] == np.inf and m.entries[1, 1] == -np.inf

    @pytest.mark.parametrize("entries", [
        [[np.nan]],
        [[1.0, np.nan], [np.nan, 2.0]],
        # asymmetric as well: the NaN is named first
        [[1.0, np.nan], [2.0, 3.0]],
    ], ids=["order-1", "mirrored", "asymmetric"])
    def test_refuses_nan_with_its_own_message(self, entries):
        with pytest.raises(ValueError, match="^entries contain a NaN$"):
            SymMatrix(entries)

    def test_refuses_asymmetry_with_its_own_message(self):
        with pytest.raises(ValueError, match="^entries are not exactly symmetric$"):
            SymMatrix([[1.0, 2.0], [3.0, 1.0]])

    def test_compares_and_hashes_by_value(self):
        a, b = SymMatrix([[1.0, 2.0], [2.0, 3.0]]), SymMatrix([[1, 2], [2, 3]])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != SymMatrix([[1.0, 2.0], [2.0, 4.0]]) and a != SymMatrix(np.eye(2))
        assert SymMatrix([[1.0]]) != SymMatrix(np.eye(2)) and a != a.entries.tolist()
        # a -0.0/+0.0 mirror pair equals its +0.0 twin, as the floats do
        signed, plain = SymMatrix([[1.0, -0.0], [0.0, 1.0]]), SymMatrix(np.eye(2))
        assert signed == plain and hash(signed) == hash(plain)


def solved(mat):
    """``eig_sym``'s spectrum as bytes, or the error it ends with."""
    try:
        return np.array(eig_sym(mat).spectrum).tobytes()
    except JacobiConvergenceError as exc:
        return (exc.sweeps, repr(exc.off_residual))


any_float = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2e-308])


class TestMirroredTriangle:
    @settings(max_examples=300, deadline=None)
    @given(triangle=st.tuples(*[any_float] * 6))
    def test_agrees_with_the_public_constructor(self, triangle):
        a00, a01, a02, a11, a12, a22 = triangle
        mirrored = _mirrored3(*triangle)
        public = SymMatrix(np.array([[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]]))
        assert mirrored == public and hash(mirrored) == hash(public)
        assert mirrored.entries.tobytes() == public.entries.tobytes()
        assert mirrored.tolist() == public.entries.tolist() and mirrored.order == 3
        assert solved(mirrored) == solved(public)

    def test_no_public_call_builds_an_asymmetric_matrix(self):
        asymmetric, square = (1.0, 2.0, 3.0, 4.0), SymMatrix(np.eye(2))
        for build in (lambda: SymMatrix(asymmetric, 2),
                      lambda: SymMatrix(flat=asymmetric, order=2),
                      lambda: SymMatrix(entries=[[1.0, 2.0], [3.0, 4.0]]),
                      lambda: SymMatrix(np.array(asymmetric).reshape(2, 2)),
                      lambda: dataclasses.replace(square, flat=asymmetric)):
            with pytest.raises((TypeError, ValueError)):
                build()
        with pytest.raises(dataclasses.FrozenInstanceError):
            square.flat = asymmetric
        assert square.flat == (1.0, 0.0, 0.0, 1.0)


class TestKron:
    def test_scalar_times_identity(self):
        out = kron_with_identity(SymMatrix(np.array([[2.0]])), 3)
        assert np.array_equal(out.entries, np.diag([2.0, 2.0, 2.0]))

    def test_identity_times_identity(self):
        out = kron_with_identity(SymMatrix(np.eye(2)), 2)
        assert np.array_equal(out.entries, np.eye(4))

    def test_hand_expanded_block(self):
        base = SymMatrix(np.array([[1.0, 2.0], [2.0, 5.0]]))
        expected = np.array([
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 1.0, 0.0, 2.0],
            [2.0, 0.0, 5.0, 0.0],
            [0.0, 2.0, 0.0, 5.0],
        ])
        assert np.array_equal(kron_with_identity(base, 2).entries, expected)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            kron_with_identity(SymMatrix(np.eye(2)), 0)

    def test_rejects_bool_n(self):
        with pytest.raises(ValueError):
            kron_with_identity(SymMatrix(np.eye(2)), True)


def copying_jacobi(entries):
    """The cyclic-Jacobi loop written with copied rows and columns and numpy
    scalars: the bit-level oracle of ``jacobi_eigh``."""
    a, n = entries.astype(float, copy=True), entries.shape[0]
    v, iu = np.eye(n), np.triu_indices(n, 1)
    while (float(np.abs(a[iu]).max()) if n > 1 else 0.0) > 1e-14 * np.abs(np.diagonal(a)).max():
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e154:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = np.sign(theta) if theta != 0.0 else 1.0
                    t /= abs(theta) + np.sqrt(theta * theta + 1.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    values = np.diagonal(a).copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


# Inputs that reach each branch of a rotation, keyed by test id.
CONSTRUCTED = {
    # a_pp == a_qq with a_pq < 0 makes theta -0.0, which must rotate by +pi/4
    "theta-negative-zero": [[1.0, -0.5], [-0.5, 1.0]],
    "theta-negative-zero-3x3": [[2.0, -1.0, 0.5], [-1.0, 2.0, 0.25], [0.5, 0.25, 3.0]],
    "signed-zeros": [[-0.0, 0.0, -0.0], [0.0, 1.0, 0.5], [-0.0, 0.5, -0.0]],
    "zero-matrix": [[0.0, 0.0], [0.0, 0.0]],
    "negative-zero-matrix": [[-0.0, -0.0], [-0.0, -0.0]],
    "order-1": [[-3.5]],
    "order-1-negative-zero": [[-0.0]],
    # a_01 = 1e-200 against a_11 - a_00 = 1: theta = 5e199 > 1e154
    "theta-above-1e154": [[1.0, 1e-200, 1.0], [1e-200, 2.0, 0.0], [1.0, 0.0, 3.0]],
    "infinite-diagonal": [[np.inf, 1.0], [1.0, 2.0]],
    "negative-infinite-diagonal-3x3": [[1.0, 0.5, 0.0], [0.5, -np.inf, 0.25], [0.0, 0.25, 3.0]],
    # equal but not bitwise symmetric: the solver mirrors the upper +0.0 entries
    "lower-negative-zeros": [[2.0, 1.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.5],
                             [-0.0, -0.0, 1.0, 0.25], [-0.0, 0.5, 0.25, 4.0]],
    # order 3 sweeps six floats in eig_sym: the certificate's zero patterns,
    # Q diagonal, Omega1 zero at (0, 1), Omega2 zero at (0, 1) and (0, 2)
    "diagonal-3x3": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]],
    "zero-at-01-3x3": [[3.0, 0.0, 1.0], [0.0, 2.0, 0.5], [1.0, 0.5, 4.0]],
    "zeros-at-01-02-3x3": [[2.0, 0.0, 0.0], [0.0, 3.0, -1.0], [0.0, -1.0, 1.0]],
    # (0, 1) is skipped, so a_00 == a_22 with a_02 < 0 makes theta -0.0 at (0, 2)
    "theta-negative-zero-at-02": [[1.0, 0.0, -0.5], [0.0, 2.0, 0.25], [-0.5, 0.25, 1.0]],
    # (0, 1) and (0, 2) are skipped, so theta is -0.0 at (1, 2)
    "theta-negative-zero-at-12": [[3.0, 0.0, 0.0], [0.0, 1.0, -0.5], [0.0, -0.5, 1.0]],
    # (0, 2) leaves a_12 = c * 1e-200 against a_22 - a_11 = 1.41: theta = 7.7e199
    "theta-above-1e154-at-12": [[1.0, 0.0, 1.0], [0.0, 2.0, 1e-200], [1.0, 1e-200, 3.0]],
    # (1, 2) rotates the lower -0.0 entries in the row loop, the upper +0.0 in six floats
    "lower-negative-zeros-3x3": [[2.0, 0.0, 0.0], [-0.0, 3.0, 0.5], [-0.0, 0.5, 4.0]],
}


class TestEig:
    def test_diagonal(self):
        summary = eig_sym(SymMatrix(np.diag([1.0, 2.0, 3.0])))
        assert summary.spectrum == (1.0, 2.0, 3.0)
        assert summary.lambda_min == 1.0
        assert summary.lambda_max == 3.0

    def test_offdiagonal_pair(self):
        # characteristic polynomial lambda^2 - 1
        summary = eig_sym(SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert summary.spectrum == pytest.approx((-1.0, 1.0), rel=1e-10)

    def test_two_by_two(self):
        # characteristic polynomial (2-lambda)^2 - 1
        summary = eig_sym(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert summary.spectrum == pytest.approx((1.0, 3.0), rel=1e-10)

    def test_summary_is_sorted_and_consistent(self):
        summary = eig_sym(random_symmetric(7, 5))
        assert summary.lambda_min == summary.spectrum[0]
        assert summary.lambda_max == summary.spectrum[-1]
        assert len(summary.spectrum) == 5
        assert list(summary.spectrum) == sorted(summary.spectrum)

    @staticmethod
    def assert_bitwise_the_copying_loop(mat):
        values, vectors = jacobi_eigh(mat)
        want_values, want_vectors = copying_jacobi(mat.entries)
        assert values.tobytes() == want_values.tobytes()
        assert vectors.tobytes() == want_vectors.tobytes()
        # eig_sym rotates no eigenvectors, and its spectrum is the same bits
        assert np.array(eig_sym(mat).spectrum).tobytes() == want_values.tobytes()

    @pytest.mark.parametrize("mat", [random_symmetric(seed, order) for seed in range(4)
                                     for order in range(1, 7)]
                             + [SymMatrix(np.array(entries)) for entries in CONSTRUCTED.values()],
                             ids=[f"seed{seed}-order{order}" for seed in range(4)
                                  for order in range(1, 7)] + list(CONSTRUCTED))
    def test_rotations_are_bitwise_the_copying_loop(self, mat):
        self.assert_bitwise_the_copying_loop(mat)

    @settings(max_examples=100, deadline=None)
    @given(mat=sym_matrices)
    def test_rotations_are_bitwise_the_copying_loop_on_random_matrices(self, mat):
        self.assert_bitwise_the_copying_loop(mat)

    def test_certificate_blocks_are_bitwise_the_copying_loop(self):
        # zero patterns the dense random matrices never have: Q is diagonal,
        # Omega1 has a zero at (0, 1) and Omega2 at (0, 1) and (0, 2)
        rng = np.random.default_rng(17)
        for _ in range(50):
            cfg = build_gain_config(rng.uniform(2.2, 4.0), **{
                k: DEFAULT_GAINS[k] * rng.uniform(0.5, 1.5) for k in ("k1", "k2", "k3", "k4")})
            p_block, q_block = build_p_block(cfg), build_q_block(cfg)
            omega1, omega2 = build_omega_blocks(cfg)
            q, o1, o2 = q_block.entries, omega1.entries, omega2.entries
            assert np.array_equal(q, np.diag(np.diagonal(q)))
            assert o1[0, 1] == 0.0 and o2[0, 1] == 0.0 and o2[0, 2] == 0.0
            for block in (p_block, q_block, omega1, omega2):
                self.assert_bitwise_the_copying_loop(block)

    @pytest.mark.parametrize("entries, spectrum", [
        ([[1.0, np.inf, 0.0], [np.inf, 2.0, 0.0], [0.0, 0.0, 3.0]], (-np.inf, 3.0, np.inf)),
        ([[1.0, 0.0, np.inf], [0.0, 2.0, 1.0], [np.inf, 1.0, 3.0]], None),
        ([[1.0, 1.0, 0.0], [1.0, 2.0, -np.inf], [0.0, -np.inf, 3.0]], None),
    ], ids=["converges", "nan-at-02", "nan-at-12"])
    def test_infinite_entries_at_order_3_end_as_the_row_loop_ends(self, entries, spectrum):
        # a SymMatrix reaches the sweeps: eig_sym's six floats and jacobi_eigh's
        # rows give the same spectrum, or the same error with a NaN residual
        mat = SymMatrix(entries)
        if spectrum is not None:
            assert eig_sym(mat).spectrum == spectrum
            assert tuple(jacobi_eigh(mat)[0].tolist()) == spectrum
            return
        for solve in (eig_sym, jacobi_eigh):
            with pytest.raises(JacobiConvergenceError) as caught:
                solve(mat)
            assert caught.value.sweeps == 100 and np.isnan(caught.value.off_residual)

    @pytest.mark.parametrize("entries", [
        [[1.0, 0.0, 0.0], [0.0, 2.0, np.nan], [0.0, np.nan, 3.0]],
        [[1.0, 1e-3, 0.0], [1e-3, 2.0, 0.0], [0.0, 0.0, np.nan]],
        [[np.nan]],
        # a raw ndarray: the lower triangle's 1e-3 is seen, and no rotation clears it
        [[1.0, 0.0], [1e-3, 2.0]],
    ], ids=["nan-off-diagonal", "nan-diagonal", "nan-order-1", "exactly-asymmetric"])
    def test_input_that_cannot_converge_raises(self, entries):
        # a NaN that is not the first entry must not be skipped by the maximum
        with pytest.raises(JacobiConvergenceError):
            jacobi_eigh(np.array(entries))

    @pytest.mark.parametrize("entries", [
        [[1.0, 0.0, 0.0], [0.0, 2.0, np.nan], [0.0, np.nan, 3.0]],
        [[1.0, 1e-3, 0.0], [1e-3, 2.0, 0.0], [0.0, 0.0, np.nan]],
        [[np.nan]],
        [[1.0, 0.0], [1e-3, 2.0]],
        [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
    ], ids=["nan-off-diagonal", "nan-diagonal", "nan-order-1", "exactly-asymmetric", "not-square"])
    def test_input_that_cannot_converge_is_refused_before_the_first_sweep(self, entries):
        with pytest.raises(JacobiConvergenceError) as caught:
            jacobi_eigh(np.array(entries))
        assert caught.value.sweeps == 0

    @pytest.mark.parametrize("entries, message", [
        (np.zeros((0, 0)), "^matrix order must be >= 1$"),
        (np.zeros(3), r"^expected a square matrix, got shape \(3,\)$"),
        (np.array(5.0), r"^expected a square matrix, got shape \(\)$"),
    ], ids=["order-0", "vector", "scalar"])
    def test_input_that_is_no_square_matrix_is_refused_by_name(self, entries, message):
        with pytest.raises(ValueError, match=message):
            jacobi_eigh(entries)

    @settings(max_examples=60, deadline=None)
    @given(mat=sym_matrices)
    def test_matches_reference_solver(self, mat):
        vals, _ = jacobi_eigh(mat)
        expected = np.linalg.eigvalsh(mat.entries)
        assert np.allclose(vals, expected, rtol=1e-10, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(mat=sym_matrices)
    def test_reconstruction(self, mat):
        vals, vecs = jacobi_eigh(mat)
        recon = (vecs * vals) @ vecs.T
        assert np.abs(recon - mat.entries).max() < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(mat=sym_matrices)
    def test_trace_and_determinant(self, mat):
        vals, _ = jacobi_eigh(mat)
        assert np.isclose(vals.sum(), np.trace(mat.entries), rtol=1e-9, atol=1e-12)
        assert np.isclose(np.prod(vals), np.linalg.det(mat.entries),
                          rtol=1e-9, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(mat=sym_matrices, n=st.integers(1, 3))
    def test_kron_spectrum_identity(self, mat, n):
        base_vals, _ = jacobi_eigh(mat)
        expanded_vals, _ = jacobi_eigh(kron_with_identity(mat, n))
        assert np.allclose(np.sort(np.repeat(base_vals, n)), expanded_vals,
                           rtol=0, atol=1e-10)


class TestPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(SymMatrix(np.eye(3)))

    def test_negative_eigenvalue(self):
        assert not is_positive_definite(SymMatrix(np.diag([1.0, -1e-3])))

    def test_zero_matrix(self):
        assert not is_positive_definite(SymMatrix(np.zeros((2, 2))))

    def test_default_tolerance_absorbs_rounding(self):
        # eigenvalues ~ {0, 2}: exact zero must not count as positive definite
        m = SymMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert not is_positive_definite(m)

    @pytest.mark.parametrize("diagonal", [[1.0, 2.0], [1.0, -1e-3], [0.0, 2.0]])
    def test_known_spectrum_gives_the_same_answer(self, diagonal):
        m = SymMatrix(np.diag(diagonal))
        assert is_positive_definite(eig_sym(m)) == is_positive_definite(m)
