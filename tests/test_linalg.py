import numpy as np
import pytest

from geominimax.errors import DomainError, ParameterError
from geominimax.linalg import (
    SpectralDecomposition,
    random_spd,
    spectral,
    sym_eig,
    symmetrize,
)
from geominimax.manifolds import Spd

RT2 = np.sqrt(2.0)


def column_signs(q, ref):
    """The signs ``s`` with ``q * s == ref`` column by column (``sym_eig``
    keeps LAPACK's eigenvector signs)."""
    return np.where(np.sum(q * ref, axis=-2) < 0.0, -1.0, 1.0)[..., None, :]


def assert_equal_up_to_column_signs(q, ref):
    assert np.array_equal(q * column_signs(q, ref), ref)


class TestSymEig:
    def test_hand_solved_2x2(self):
        # Characteristic polynomial of [[2,1],[1,2]] gives 3 and 1 with
        # eigenvectors (1,1)/sqrt(2) and (1,-1)/sqrt(2).
        dec = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-14)
        want = np.array([[1 / RT2, 1 / RT2], [1 / RT2, -1 / RT2]])
        np.testing.assert_allclose(dec.q * column_signs(dec.q, want), want, atol=1e-14)

    def test_diagonal_is_fixed_point(self):
        dec = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.q), np.eye(2))

    def test_identity(self):
        dec = sym_eig(np.eye(4))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(4))

    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            a = symmetrize(rng.standard_normal((n, n)))
            dec = sym_eig(a)
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(symmetrize(spectral(dec)) - a) <= 1e-10 * scale
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
            np.testing.assert_allclose(dec.q.T @ dec.q, np.eye(n), atol=1e-12)

    def test_sign_convention_is_deterministic(self):
        """The signs are LAPACK's, so they repeat on equal input; the sign
        rule of the robust PCA start is pinned in ``test_harness``."""
        rng = np.random.default_rng(3)
        a = symmetrize(rng.standard_normal((6, 6)))
        d1 = sym_eig(a)
        d2 = sym_eig(a.copy())
        assert np.array_equal(d1.q, d2.q)
        assert_equal_up_to_column_signs(d1.q, reference_sym_eig(a).q)

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            sym_eig(np.ones((2, 3)))
        with pytest.raises(DomainError):
            sym_eig([[np.nan, 0.0], [0.0, 1.0]])


def reference_sym_eig(a) -> SpectralDecomposition:
    """Descending order by argsort and gathers, each column signed so that
    its first entry above 1e-12 is positive: the reference that
    :func:`sym_eig`, which reverses ``eigh``'s ascending order and keeps
    its signs, must equal bit for bit up to column signs, layout included."""
    a = symmetrize(np.asarray(a, dtype=float))
    lam, q = np.linalg.eigh(a)
    order = np.argsort(lam, axis=-1)[..., ::-1]
    if a.ndim == 2:
        lam = lam[order]
        q = q[:, order]
        first = np.argmax(np.abs(q) > 1e-12, axis=0)
        signs = np.sign(q[first, np.arange(q.shape[1])])
    else:
        lam = np.take_along_axis(lam, order, axis=-1)
        q = np.take_along_axis(q, order[..., None, :], axis=-1)
        first = np.argmax(np.abs(q) > 1e-12, axis=-2)
        signs = np.sign(np.take_along_axis(q, first[..., None, :], axis=-2))
    signs[signs == 0] = 1.0
    return SpectralDecomposition(q=q * signs, eigenvalues=lam)


def repeated_eigenvalue(n, rng):
    """A rotated SPD matrix whose top eigenvalue is repeated n // 2 times."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.where(np.arange(n) < n // 2, 3.0, rng.uniform(0.5, 2.0, size=n))
    return symmetrize((q * lam) @ q.T)


class TestSymEigMatchesReference:
    """The decomposition, its layout and what is built on it are those of
    :func:`reference_sym_eig`, bit for bit, up to the signs of the columns
    of ``q``. Equal arrays are not enough: ``Spd.distance`` sums
    ``log(eigenvalues)`` in memory order, and the rounding of a matrix
    product depends on the layout of ``q``."""

    @staticmethod
    def cases(n):
        rng = np.random.default_rng(90 + n)
        spd = [random_spd(n, 0.2, 4.5, rng) for _ in range(3)]
        singles = [
            symmetrize(rng.standard_normal((n, n))),
            spd[0],
            np.eye(n),
            repeated_eigenvalue(n, rng),
            np.diag(np.repeat([2.0, 1.0], [n - n // 2, n // 2])),
        ]
        stacks = [
            np.stack(spd),
            np.stack([np.eye(n), spd[1], repeated_eigenvalue(n, rng), np.eye(n)]),
            np.stack(spd[:2] * 3).reshape(2, 3, n, n),
            spd[2][None],
        ]
        return singles + stacks

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_decomposition_and_layout(self, n):
        for a in self.cases(n):
            got, want = sym_eig(a), reference_sym_eig(a)
            assert np.array_equal(got.eigenvalues, want.eigenvalues)
            assert_equal_up_to_column_signs(got.q, want.q)
            assert got.eigenvalues.flags.c_contiguous
            assert got.q.flags.c_contiguous == want.q.flags.c_contiguous
            assert got.q.flags.f_contiguous == want.q.flags.f_contiguous
            assert np.array_equal(spectral(got, np.exp), spectral(want, np.exp))
            assert np.array_equal((a @ got.q) * column_signs(got.q, want.q), a @ want.q)
            if np.all(want.eigenvalues > 0.0):
                assert np.linalg.norm(np.log(got.eigenvalues)) == np.linalg.norm(np.log(want.eigenvalues))

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_flipped_columns_give_the_same_bits(self, n):
        """Each column of ``q`` enters :func:`spectral` twice, so flipping
        any set of columns, in the same layout, changes no bit."""
        flips = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)  # columns 0, 2, 4, ...
        for a in self.cases(n):
            dec = sym_eig(a)
            order = "F" if a.ndim == 2 else "C"
            flipped = SpectralDecomposition(np.multiply(dec.q, flips, order=order), dec.eigenvalues)
            assert flipped.q.flags.f_contiguous == dec.q.flags.f_contiguous
            for f in (None, np.exp):
                assert np.array_equal(spectral(flipped, f), spectral(dec, f))

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_spd_operations(self, n):
        """``Spd`` exp, the correction it leaves, log, distance, log_sum,
        transport and inner equal their closed forms built from the
        reference decomposition ``x = q diag(lam) q.T``, with the factor
        ``F = q diag(lam)^{1/2}`` and ``F^-1 = (q / sqrt(lam)).T``."""
        rng = np.random.default_rng(100 + n)
        m = Spd(n)
        x = m.point(random_spd(n, 0.2, 4.5, rng))
        y = m.point(random_spd(n, 0.2, 4.5, rng))
        ref = reference_sym_eig(x.value)
        root = np.sqrt(ref.eigenvalues)
        f, fi = ref.q * root, (ref.q / root).T

        w = reference_sym_eig(fi @ y.value @ fi.T)
        assert m.distance(x, y) == float(np.linalg.norm(np.log(w.eigenvalues)))
        assert np.array_equal(m.log(x, y).value, symmetrize(f @ spectral(w, np.log) @ f.T))

        u = m.log(x, y).value
        e = f @ spectral(w, np.sqrt) @ fi
        assert np.array_equal(m.transport(m.tangent(x, u), y).value, symmetrize(e @ u @ e.T))
        a = fi @ u @ fi.T
        assert m.norm(m.tangent(x, u)) == np.sqrt(np.einsum("ij,ji->", a, a))

        v = u * 0.7
        e = reference_sym_eig(fi @ v @ fi.T)
        fy = (f @ e.q) * np.exp(0.5 * e.eigenvalues)
        got = m.exp(x, m.tangent(x, v))
        assert np.array_equal(got.value, symmetrize(fy @ fy.T))
        assert np.array_equal(m._reverse_velocity(got), symmetrize((fy * -e.eigenvalues) @ fy.T))

        targets = np.stack([y.value, random_spd(n, 0.2, 4.5, rng), x.value])
        ws = reference_sym_eig(fi @ targets @ fi.T)
        l = np.log(ws.eigenvalues).reshape(-1)
        qc = ws.q.transpose(1, 0, 2).reshape(n, -1)
        got_sum, got_sq = m.log_sum(x, targets)
        assert np.array_equal(got_sum, symmetrize(f @ ((qc * l) @ qc.T) @ f.T))
        assert got_sq == l @ l


class TestSpectral:
    def test_functions_of_a_diagonal(self):
        dec = sym_eig(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(spectral(dec), np.diag([4.0, 9.0]))
        np.testing.assert_allclose(spectral(dec, np.sqrt), np.diag([2.0, 3.0]))
        np.testing.assert_allclose(spectral(dec, np.log), np.diag([np.log(4.0), np.log(9.0)]))

    def test_square_root_and_inverse(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = random_spd(5, 0.1, 10.0, rng)
            dec = sym_eig(a)
            s = spectral(dec, np.sqrt)
            np.testing.assert_allclose(s @ s, a, atol=1e-9 * max(1.0, np.linalg.norm(a)))
            np.testing.assert_allclose(spectral(dec, np.reciprocal) @ a, np.eye(5), atol=1e-9)


class TestStacks:
    """A stack ``(..., n, n)`` decomposes and reconstructs member by member,
    bit for bit as the separate 2-D calls do."""

    def assert_matches_members(self, a):
        dec = sym_eig(a)
        assert dec.q.shape == a.shape and dec.eigenvalues.shape == a.shape[:-1]
        flat = a.reshape(-1, *a.shape[-2:])
        qs = dec.q.reshape(flat.shape)
        lams = dec.eigenvalues.reshape(flat.shape[:-1])
        spd = np.all(lams > 0.0)
        stacked = [spectral(dec), spectral(dec, np.exp)]
        if spd:
            stacked += [spectral(dec, np.log), spectral(dec, np.sqrt)]
        for i, member in enumerate(flat):
            one = sym_eig(member)
            assert np.array_equal(qs[i], one.q)
            assert np.array_equal(lams[i], one.eigenvalues)
            single = [spectral(one), spectral(one, np.exp)]
            if spd:
                single += [spectral(one, np.log), spectral(one, np.sqrt)]
            for got, want in zip(stacked, single):
                assert np.array_equal(got.reshape(flat.shape)[i], want)

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_symmetric_stack(self, n):
        rng = np.random.default_rng(40 + n)
        self.assert_matches_members(np.stack([symmetrize(rng.standard_normal((n, n))) for _ in range(5)]))

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_spd_stack_with_two_leading_axes(self, n):
        rng = np.random.default_rng(50 + n)
        a = np.stack([random_spd(n, 0.2, 4.5, rng) for _ in range(6)]).reshape(2, 3, n, n)
        self.assert_matches_members(a)

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_stack_of_one(self, n):
        rng = np.random.default_rng(60 + n)
        self.assert_matches_members(random_spd(n, 0.2, 4.5, rng)[None])

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_identity_ties(self, n):
        """Every eigenvalue of the identity ties exactly, so the order of
        the eigenvectors rests on the sort alone."""
        rng = np.random.default_rng(70 + n)
        self.assert_matches_members(np.stack([np.eye(n), random_spd(n, 0.2, 4.5, rng), np.eye(n)]))
        self.assert_matches_members(np.eye(n)[None])

    def test_stacked_input_is_checked(self):
        with pytest.raises(ParameterError):
            sym_eig(np.ones((2, 2, 3)))
        bad = np.stack([np.eye(2), np.eye(2)])
        bad[1, 0, 0] = np.inf
        with pytest.raises(DomainError):
            sym_eig(bad)


class TestRandomSpd:
    def test_spectrum_range(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = random_spd(50, 0.2, 4.5, rng)
            lam = np.linalg.eigvalsh(a)
            assert lam.min() >= 0.2 - 1e-10
            assert lam.max() <= 4.5 + 1e-10

    def test_degenerate_range_gives_identity_scale(self):
        rng = np.random.default_rng(5)
        np.testing.assert_allclose(random_spd(3, 1.0, 1.0, rng), np.eye(3), atol=1e-12)

    def test_seed_reproducibility(self):
        a = random_spd(6, 0.5, 2.0, np.random.default_rng(99))
        b = random_spd(6, 0.5, 2.0, np.random.default_rng(99))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 30])
    def test_bits_match_sign_fixed_qr(self, n):
        """``q``'s column signs cancel in ``(q * sigma) @ q.T``, so the draw
        has the bits of one made with a QR whose ``r`` has a nonnegative
        diagonal."""

        def reference(rng):
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            q = q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
            return symmetrize((q * rng.uniform(0.2, 4.5, size=n)) @ q.T)

        for seed in range(50):
            got = random_spd(n, 0.2, 4.5, np.random.default_rng(seed))
            assert np.array_equal(got, reference(np.random.default_rng(seed))), seed

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            random_spd(0, 1.0, 2.0, rng)
        with pytest.raises(ParameterError):
            random_spd(3, 0.0, 2.0, rng)
        with pytest.raises(ParameterError):
            random_spd(3, 2.0, 1.0, rng)
