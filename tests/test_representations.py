"""Unitary representations, joint diagonalization, transform evaluation."""

import numpy as np
import pytest

from ehtp import representations
from ehtp.errors import TOL, DimensionMismatchError, GroupMismatchError, NonAbelianError, NumericalError
from ehtp.groups import Character, dual_group, make_cyclic_product, subgroup_and_restriction
from ehtp.measures import Measure, convolve, dirac, fourier_on, fourier_stieltjes
from ehtp.representations import (
    Representation,
    block_algebra_basis,
    character_rep,
    cyclic_vector,
    diagonalize,
    gelfand,
    integrate,
    make_representation,
    regular_rep,
    restrict_representation,
    tensor_conjugate,
)
from ehtp.suites import random_character_rep, s3_cayley
from ehtp.groups import from_cayley


def _random_measure(g, rng):
    return Measure(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))


class TestConstruction:
    def test_regular_representation_permutes_basis_vectors(self):
        g = make_cyclic_product([2, 3])
        pi = regular_rep(g)
        for s in range(g.order):
            for t in range(g.order):
                e_t = np.zeros(g.order)
                e_t[t] = 1.0
                out = pi.matrices[s] @ e_t
                assert out[g.mul(s, t)] == pytest.approx(1.0)
                assert np.count_nonzero(out) == 1

    def test_character_rep_is_diagonal_with_character_values(self):
        g = make_cyclic_product([4])
        chars = [Character((4,), (1,)), Character((4,), (2,))]
        pi = character_rep(g, chars)
        for s in range(4):
            expect = np.diag([c.evaluate(g, s) for c in chars])
            assert np.allclose(pi.matrices[s], expect)

    def test_non_unitary_matrices_rejected(self):
        g = make_cyclic_product([2])
        mats = np.stack([np.eye(2), 0.9 * np.eye(2)]).astype(np.complex128)
        with pytest.raises(NumericalError):
            make_representation(g, mats)
        # nor is a stack that is not of square matrices, or of the wrong size
        with pytest.raises(DimensionMismatchError, match="stack of square matrices"):
            make_representation(g, np.ones((2, 2, 3)))
        with pytest.raises(DimensionMismatchError, match=r"must have shape \(2, 2, 2\)"):
            Representation(g, 2, np.ones((3, 2, 2)))

    def test_unitary_non_homomorphism_rejected(self):
        g = make_cyclic_product([4])
        # unitary at every element but pi(1)^2 != pi(2)
        mats = np.stack([np.eye(2), np.diag([1, 1j]), np.eye(2), np.diag([1, -1j])])
        with pytest.raises(NumericalError):
            make_representation(g, mats.astype(np.complex128))

    def test_wrong_identity_matrix_rejected(self):
        g = make_cyclic_product([2])
        swap = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        with pytest.raises(NumericalError):
            make_representation(g, np.stack([swap, np.eye(2, dtype=np.complex128)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrices_rejected(self, bad):
        # every residual guard reads `resid > bound`, which NaN never is
        g = make_cyclic_product([2])
        mats = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(np.complex128)
        mats[1, 0, 1] = bad
        with pytest.raises(NumericalError):
            make_representation(g, mats)


def _all_pairs_residual(pi):
    """The largest ``||pi(a) pi(b) - pi(ab)||_F`` over every pair, a row of
    the table at a time."""
    return max(np.linalg.norm(pi.matrices[a] @ pi.matrices - pi.matrices[pi.group.cayley[a]], axis=(1, 2)).max()
               for a in range(pi.group.order))


def _dihedral(n):
    """The dihedral group of order 2n from its table, with its 2-dimensional
    representation: rotation r by 2 pi r / n, times diag(1, -1) if flipped."""
    rot, flip = np.arange(2 * n) % n, np.arange(2 * n) // n
    table = (flip[:, None] ^ flip) * n + (rot[:, None] + np.where(flip[:, None] == 0, 1, -1) * rot) % n
    c, s = np.cos(2 * np.pi * rot / n), np.sin(2 * np.pi * rot / n)
    mats = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    mats[flip == 1] = mats[flip == 1] @ np.diag([1.0, -1.0])
    return from_cayley(table), mats.astype(np.complex128)


def _perturbed_representations(rng):
    """Representations of order at most 64 with every kind of defect the
    gate reads: noise on every matrix, a unitary twist of one element, a
    phase on one element, a disturbed identity; at sizes from rounding to
    far beyond the gate."""
    dihedral, rotations = _dihedral(16)
    bases = [character_rep(make_cyclic_product([64]), [Character((64,), (k,)) for k in (1, 7, 30)]),
             regular_rep(from_cayley(s3_cayley())),
             regular_rep(make_cyclic_product([2, 2, 2])),
             Representation(dihedral, 2, rotations)]
    for pi in bases:
        n, d = pi.group.order, pi.dim
        for eps in (1e-15, 1e-12, 1e-10, 1e-8, 1e-5):
            noise = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            twist = np.linalg.qr(np.eye(d) + eps * noise[0])[0]
            for kind in ("noise", "twist", "phase", "identity"):
                mats = pi.matrices.copy()
                x = int(rng.integers(n))
                if kind == "noise":
                    mats += eps * noise
                elif kind == "twist":
                    mats[x] = twist @ mats[x]
                elif kind == "phase":
                    mats[x] *= np.exp(1j * eps)
                else:
                    mats[pi.group.identity] += eps * noise[1]
                yield Representation(pi.group, d, mats)


class TestLawGate:
    def test_the_gated_bound_covers_every_pair(self):
        # the bound on every pair, from the pairs (generator, y) alone, is at
        # least the largest residual over all pairs; so an accepted stack is
        # a representation to TOL * d at every pair
        for pi in _perturbed_representations(np.random.default_rng(40)):
            eye = np.eye(pi.dim)
            gram = np.einsum("sji,sjk->sik", pi.matrices.conj(), pi.matrices)
            unitarity = np.linalg.norm(gram - eye, axis=(1, 2)).max()
            at_identity = np.linalg.norm(pi.matrices[pi.group.identity] - eye)
            residual = _all_pairs_residual(pi)
            assert representations._law_bound(pi, unitarity, at_identity) >= residual
            try:
                make_representation(pi.group, pi.matrices)
            except NumericalError:
                continue
            assert residual <= TOL * pi.dim

    def test_exact_representations_pass(self):
        for group, mats in (_dihedral(60), _dihedral(3)):
            assert make_representation(group, mats).dim == 2
        g = make_cyclic_product([4, 60])
        make_representation(g, character_rep(g, [Character((4, 60), (1, 7)), Character((4, 60), (3, 59))]).matrices)

    @pytest.mark.parametrize("n", [512, 4096])
    def test_one_negated_element_of_a_character_is_caught(self, n):
        # s -> exp(2 pi i s / n) with pi(x0) negated: 200 sampled pairs
        # accepted 31 of these 40 stacks at n = 4096 and 10 at n = 512
        g = make_cyclic_product([n])
        base = np.exp(2j * np.pi * np.arange(n) / n).reshape(n, 1, 1)
        make_representation(g, base)
        for x0 in range(1, 41):
            mats = base.copy()
            mats[x0] *= -1
            with pytest.raises(NumericalError, match="homomorphism law fails"):
                make_representation(g, mats)


class TestIntegrate:
    def test_identity_point_mass_integrates_to_identity(self):
        g = make_cyclic_product([3, 2])
        pi = regular_rep(g)
        assert np.allclose(integrate(pi, dirac(g, g.identity)), np.eye(6))

    def test_point_mass_integrates_to_its_matrix(self):
        g = make_cyclic_product([5])
        pi = regular_rep(g)
        for s in range(5):
            assert np.allclose(integrate(pi, dirac(g, s)), pi.matrices[s])

    def test_symmetrizer_on_z2_is_a_projection(self):
        g = make_cyclic_product([2])
        pi = regular_rep(g)
        p = integrate(pi, (dirac(g, 0) + dirac(g, 1)) * 0.5)
        assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]])
        evals = np.linalg.eigvalsh(p)
        assert np.allclose(sorted(evals), [0.0, 1.0])

    def test_homomorphism_into_matrices(self):
        g = make_cyclic_product([2, 4])
        rng = np.random.default_rng(0)
        pi = random_character_rep(g, rng, max_dim=5)
        for _ in range(25):
            mu, nu = _random_measure(g, rng), _random_measure(g, rng)
            lhs = integrate(pi, convolve(mu, nu))
            rhs = integrate(pi, mu) @ integrate(pi, nu)
            assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_operator_norm_bounded_by_total_variation(self):
        g = make_cyclic_product([7])
        pi = regular_rep(g)
        rng = np.random.default_rng(1)
        for _ in range(25):
            mu = _random_measure(g, rng)
            opnorm = np.linalg.norm(integrate(pi, mu), ord=2)
            assert opnorm <= mu.norm + 1e-12

    def test_group_mismatch_rejected(self):
        pi = regular_rep(make_cyclic_product([3]))
        with pytest.raises(GroupMismatchError):
            integrate(pi, dirac(make_cyclic_product([4]), 0))
        with pytest.raises(GroupMismatchError, match="subgroup live on different groups"):
            restrict_representation(pi, subgroup_and_restriction(make_cyclic_product([6]), [2]))


def _oracle_multiplicities(pi):
    """``m_chi = round(|G|^-1 sum_s conj(chi(s)) tr pi(s))`` over the dual
    group, from the exact phases of ``Character.evaluate``."""
    g = pi.group
    traces = np.trace(pi.matrices, axis1=1, axis2=2)
    mults = {}
    for chi in dual_group(g):
        m = round((sum(np.conj(chi.evaluate(g, s)) * traces[s] for s in range(g.order)) / g.order).real)
        if m:
            mults[chi.exponents] = m
    return mults


def _z12_characters(exponents):
    g = make_cyclic_product([12])
    return g, character_rep(g, [Character((12,), (k,)) for k in exponents])


class TestDiagonalize:
    def test_trivial_rep_has_trivial_spectrum(self):
        g = make_cyclic_product([6])
        diag = diagonalize(character_rep(g, [Character((6,), (0,))] * 2))
        assert diag.spectrum.exponent_set() == {(0,)}

    def test_regular_rep_spectrum_is_the_full_dual(self):
        for n in (2, 5, 8):
            g = make_cyclic_product([n])
            diag = diagonalize(regular_rep(g))
            assert diag.spectrum.exponent_set() == {(k,) for k in range(n)}

    def test_square_exponent_rep_spectrum(self):
        g = make_cyclic_product([7])
        chars = [Character((7,), ((j * j) % 7,)) for j in range(1, 7)]
        diag = diagonalize(character_rep(g, chars))
        assert diag.spectrum.exponent_set() == {(1,), (2,), (4,)}

    def test_round_trip_diagonalizes_every_element(self):
        g = make_cyclic_product([3, 4])
        rng = np.random.default_rng(2)
        pi = random_character_rep(g, rng, max_dim=6)
        diag = diagonalize(pi)
        v = diag.basis
        assert np.linalg.norm(v @ v.conj().T - np.eye(pi.dim)) < 1e-10
        for s in range(g.order):
            rotated = v.conj().T @ pi.matrices[s] @ v
            expect = np.diag([c.evaluate(g, s) for c in diag.char_of_index])
            assert np.linalg.norm(rotated - expect) < 1e-8

    def test_characters_read_back_exactly(self):
        g = make_cyclic_product([12])
        chars = [Character((12,), (k,)) for k in (0, 3, 3, 7)]
        diag = diagonalize(character_rep(g, chars))
        assert sorted(c.exponents for c in diag.char_of_index) == [(0,), (3,), (3,), (7,)]

    def test_nonabelian_rejected(self):
        pi = regular_rep(from_cayley(s3_cayley()))
        with pytest.raises(NonAbelianError):
            diagonalize(pi)

    @pytest.mark.parametrize("pi", [
        regular_rep(make_cyclic_product([64])),
        regular_rep(make_cyclic_product([8, 8])),
        regular_rep(make_cyclic_product([2, 2, 3])),
        regular_rep(make_cyclic_product([1, 4])),
        tensor_conjugate(regular_rep(make_cyclic_product([6]))),
        _z12_characters((0, 3, 3, 7, 7, 7, 11))[1],
        character_rep(make_cyclic_product([1]), [Character((1,), (0,))] * 3),
    ], ids=["Z64", "Z8xZ8", "Z2xZ2xZ3", "Z1xZ4", "tensorconj-Z6", "Z12-repeated", "Z1-trivial3"])
    def test_labels_match_the_character_oracle(self, pi):
        g = pi.group
        diag = diagonalize(pi)
        labels = [c.exponents for c in diag.char_of_index]
        assert {e: labels.count(e) for e in set(labels)} == _oracle_multiplicities(pi)
        values = np.array([[c.evaluate(g, s) for c in diag.char_of_index] for s in range(g.order)])
        v = diag.basis
        assert np.abs(pi.matrices @ v - v * values[:, None, :]).max() <= 1e-12

    def test_seed_is_ignored(self, monkeypatch):
        # one deterministic path: no generator, no legacy draw, one eigh
        def no_generator(*args, **kwargs):
            raise AssertionError("diagonalize drew random numbers")

        eigh_calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(a) or eigh(a))
        pi = regular_rep(make_cyclic_product([4, 6]))
        state = np.random.get_state()[1].copy()
        first, second = diagonalize(pi, seed=1), diagonalize(pi, seed=2)
        assert np.array_equal(np.random.get_state()[1], state)
        assert len(eigh_calls) == 2
        assert first.basis.tobytes() == second.basis.tobytes()
        assert first.char_of_index == second.char_of_index

    @staticmethod
    def _corrupted(kind):
        g = make_cyclic_product([6])
        mats = regular_rep(g).matrices.copy()
        if kind == "swapped":
            mats[[1, 2]] = mats[[2, 1]]
        elif kind == "non-commuting":
            # still unitary: a Hadamard turn of the first two rows of pi(1)
            mats[1, :2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2) @ mats[1, :2]
        elif kind == "identity-tripled":
            # every isotypic trace reads 3, so sum_j j P_j has eigenvalues 5..10
            mats[0] *= 3
        else:
            mats[3, 0, 0] += {"perturbed-1e-6": 1e-6, "perturbed-1e-12": 1e-12}[kind]
        return Representation(g, g.order, mats)

    @pytest.mark.parametrize("kind", ["swapped", "perturbed-1e-6", "non-commuting", "identity-tripled"])
    def test_corrupted_stack_raises(self, kind):
        with pytest.raises(NumericalError):
            diagonalize(self._corrupted(kind))

    def test_rounding_level_perturbation_is_accepted(self):
        diag = diagonalize(self._corrupted("perturbed-1e-12"))
        assert diag.spectrum.exponent_set() == {(k,) for k in range(6)}

    def test_one_entry_off_its_character_raises(self):
        # one entry of a non-generator element 5e-9 off: above TOL entrywise,
        # below TOL * d = 8e-9 as a Frobenius reconstruction residual
        g, pi = _z12_characters((0, 1, 2, 3, 5, 7, 8, 11))
        mats = pi.matrices.copy()
        mats[5, 3, 3] *= np.exp(5e-9j)
        with pytest.raises(NumericalError):
            diagonalize(Representation(g, pi.dim, mats))


class TestGelfand:
    def test_identity_point_mass_evaluates_to_one(self):
        g = make_cyclic_product([6])
        diag = diagonalize(regular_rep(g))
        vals = gelfand(diag, dirac(g, g.identity))
        assert all(abs(v - 1.0) < 1e-12 for v in vals.values())

    def test_point_mass_evaluates_to_character_values(self):
        g = make_cyclic_product([5])
        diag = diagonalize(regular_rep(g))
        vals = gelfand(diag, dirac(g, 2))
        for chi, v in vals.items():
            assert abs(v - chi.evaluate(g, 2)) < 1e-12

    def test_two_character_example_on_z7(self):
        g = make_cyclic_product([7])
        diag = diagonalize(character_rep(g, [Character((7,), (1,)), Character((7,), (3,))]))
        vals = gelfand(diag, dirac(g, 1))
        w7 = np.exp(2j * np.pi / 7)
        assert vals[Character((7,), (1,))] == pytest.approx(w7)
        assert vals[Character((7,), (3,))] == pytest.approx(w7**3)

    def test_matches_fourier_on_the_spectrum(self):
        g = make_cyclic_product([3, 4])
        rng = np.random.default_rng(4)
        diag = diagonalize(random_character_rep(g, rng, max_dim=6))
        mu = _random_measure(g, rng)
        vals = gelfand(diag, mu)
        assert list(vals) == list(diag.spectrum)
        assert np.array_equal(list(vals.values()), fourier_on(mu, diag.spectrum))
        for chi, v in vals.items():
            assert abs(v - fourier_stieltjes(mu, chi)) < 1e-12

    def test_multiplicative_under_convolution(self):
        g = make_cyclic_product([4, 2])
        rng = np.random.default_rng(3)
        diag = diagonalize(random_character_rep(g, rng, max_dim=6))
        mu, nu = _random_measure(g, rng), _random_measure(g, rng)
        prod = gelfand(diag, convolve(mu, nu))
        left, right = gelfand(diag, mu), gelfand(diag, nu)
        for chi in prod:
            assert abs(prod[chi] - left[chi] * right[chi]) < 1e-9


    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_transform_error_is_caught_at_every_measure_scale(self, scale, monkeypatch):
        # a unit floor in the gate, TOL * max(1, ||mu||_1), would pass
        # transform values 1e-3 off at measure scale 1e-12
        g = make_cyclic_product([3, 4])
        rng = np.random.default_rng(5)
        diag = diagonalize(random_character_rep(g, rng, max_dim=6))
        mu = _random_measure(g, rng) * scale
        gelfand(diag, mu)
        monkeypatch.setattr(representations, "fourier_on",
                            lambda m, e: fourier_on(m, e) * (1 + 1e-3))
        with pytest.raises(NumericalError):
            gelfand(diag, mu)


class TestTensorConjugate:
    def test_one_dimensional_becomes_trivial(self):
        g = make_cyclic_product([5])
        pi = character_rep(g, [Character((5,), (2,))])
        assert np.allclose(tensor_conjugate(pi).matrices, 1.0)

    def test_exponent_differences_on_z4(self):
        g = make_cyclic_product([4])
        pi = character_rep(g, [Character((4,), (1,)), Character((4,), (2,))])
        diag = diagonalize(tensor_conjugate(pi))
        exps = sorted(c.exponents for c in diag.char_of_index)
        assert exps == [(0,), (0,), (1,), (3,)]


class TestCyclicVector:
    def test_single_vector_is_kept(self):
        xi = cyclic_vector([2], [np.array([1.0, 2.0])])
        assert np.allclose(xi, [1.0, 2.0])
        with pytest.raises(ValueError, match="block sizes must be positive"):
            cyclic_vector([2, 0], [np.array([1.0, 2.0])])
        with pytest.raises(DimensionMismatchError, match="length 2"):
            cyclic_vector([2], [np.array([1.0, 2.0, 3.0])])

    def test_two_scalar_blocks(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        xi = cyclic_vector([1, 1], [e1, e2])
        assert abs(xi[0]) > 1e-12 and abs(xi[1]) > 1e-12

    def test_worked_three_dimensional_example(self):
        # second vector only contributes its projection onto the untouched
        # third coordinate, so the sum is (1, 1, 1)
        vecs = [np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])]
        xi = cyclic_vector([1, 1, 1], vecs)
        assert np.all(np.abs(xi) > 1e-12)
        orbit = np.stack([b @ xi for b in block_algebra_basis([1, 1, 1])])
        joint = np.vstack([orbit, vecs])
        assert np.linalg.matrix_rank(orbit, tol=1e-9) == 3
        assert np.linalg.matrix_rank(joint, tol=1e-9) == np.linalg.matrix_rank(orbit, tol=1e-9)

    def test_orbit_spans_the_inputs_randomly(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            dims = list(rng.integers(1, 4, size=rng.integers(1, 4)))
            d = sum(dims)
            k = int(rng.integers(1, 4))
            vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(k)]
            xi = cyclic_vector(dims, vecs)
            basis = block_algebra_basis(dims)
            orbit = np.stack([b @ xi for b in basis])
            joint = np.vstack([orbit, vecs])
            assert np.linalg.matrix_rank(joint, tol=1e-9) == np.linalg.matrix_rank(orbit, tol=1e-9)

    def test_block_algebra_basis_size(self):
        basis = block_algebra_basis([1, 2, 3])
        assert len(basis) == 1 + 4 + 9
        assert all(b.shape == (6, 6) for b in basis)


class TestRestriction:
    def test_restricted_rep_uses_subgroup_indices(self):
        g = make_cyclic_product([6])
        sub = subgroup_and_restriction(g, [2])
        pi = regular_rep(g)
        rho = restrict_representation(pi, sub)
        assert rho.group.is_same(sub.subgroup)
        for j in range(sub.subgroup.order):
            assert np.allclose(rho.matrices[j], pi.matrices[int(sub.embedding[j])])

    def test_restricted_spectrum_collapses(self):
        g = make_cyclic_product([6])
        sub = subgroup_and_restriction(g, [2])
        pi = character_rep(g, [Character((6,), (1,)), Character((6,), (4,))])
        diag = diagonalize(restrict_representation(pi, sub))
        assert diag.spectrum.exponent_set() == {(1,)}
