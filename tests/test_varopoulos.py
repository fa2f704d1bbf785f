"""Kernels on spectra, positive definiteness, and the positivity equivalences."""

import numpy as np
import pytest

from ehtp import elementary
from ehtp.elementary import is_completely_positive, strongly_independent_kraus
from ehtp.errors import TOL, GroupMismatchError, NotCompletelyPositiveError, NumericalError
from ehtp.gamma import gamma
from ehtp.hnorm import haagerup_norm_bounds
from ehtp.groups import Character, make_cyclic_product
from ehtp.measures import Measure, dirac, fourier_stieltjes, fourier_symbol, from_density
from ehtp.representations import character_rep, diagonalize, regular_rep
from ehtp.suites import random_character_rep
from ehtp.varopoulos import (
    VFunction,
    equivalence_suite,
    from_measure,
    gram_factorize,
    is_positive_definite,
)


def _spectrum(n, exponents):
    g = make_cyclic_product([n])
    chars = [Character((n,), (k,)) for k in exponents]
    return g, diagonalize(character_rep(g, chars))


class TestFromMeasure:
    def test_identity_point_mass_gives_all_ones(self):
        g, diag = _spectrum(5, [0, 1, 2])
        u = from_measure(diag, dirac(g, g.identity))
        assert np.allclose(u.values, np.ones((3, 3)))

    def test_point_mass_gives_a_rank_one_kernel(self):
        g, diag = _spectrum(6, [1, 4])
        u = from_measure(diag, dirac(g, 2))
        vals = np.array([c.evaluate(g, 2) for c in diag.spectrum])
        assert np.allclose(u.values, np.outer(vals, np.conj(vals)))
        assert np.linalg.matrix_rank(u.values) == 1

    def test_uniform_probability_gives_the_identity_kernel(self):
        g = make_cyclic_product([7])
        diag = diagonalize(regular_rep(g))
        u = from_measure(diag, from_density(g, np.ones(7)))
        assert np.allclose(u.values, np.eye(7), atol=1e-12)
        assert is_positive_definite(u)

    def test_linearity(self):
        g, diag = _spectrum(8, [1, 2, 5])
        rng = np.random.default_rng(0)
        mu = Measure(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        nu = Measure(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        lhs = from_measure(diag, mu + nu * 2.0)
        assert np.allclose(lhs.values, from_measure(diag, mu).values + 2.0 * from_measure(diag, nu).values)

    def test_group_mismatch_rejected(self):
        _, diag = _spectrum(5, [1])
        with pytest.raises(GroupMismatchError):
            from_measure(diag, dirac(make_cyclic_product([6]), 0))

    def test_matches_fourier_symbol_on_the_spectrum(self):
        g = make_cyclic_product([2, 6])
        rng = np.random.default_rng(1)
        # repeated characters: the kernel lives on the spectrum, one row per character
        pi = character_rep(g, [Character((2, 6), e) for e in ((1, 3), (0, 5), (1, 3), (1, 1))])
        diag = diagonalize(pi)
        mu = Measure(g, rng.standard_normal(12) + 1j * rng.standard_normal(12))
        chars = diag.spectrum.characters
        u = from_measure(diag, mu)
        assert u.values.shape == (3, 3)
        assert np.array_equal(u.values, fourier_symbol(mu, chars))
        for i, sigma in enumerate(chars):
            for j, tau in enumerate(chars):
                assert abs(u.values[i, j] - fourier_stieltjes(mu, sigma.quotient(tau))) < 1e-12


class TestPositiveDefiniteness:
    def test_all_ones_kernel_is_positive(self):
        _, diag = _spectrum(5, [0, 2, 3])
        u = VFunction(diag.spectrum, np.ones((3, 3)))
        assert is_positive_definite(u)

    def test_signature_kernel_is_not(self):
        _, diag = _spectrum(5, [0, 2])
        u = VFunction(diag.spectrum, np.diag([1.0, -1.0]))
        assert not is_positive_definite(u)

    def test_non_hermitian_kernel_is_not(self):
        _, diag = _spectrum(5, [0, 2])
        u = VFunction(diag.spectrum, np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert not is_positive_definite(u)

    @pytest.mark.parametrize("c", [0.5, 1.5, 2.0, 2.5, 3.5])
    def test_the_kernel_and_its_schur_multiplier_get_one_verdict(self, c):
        # seven eigenvalues 1 and the smallest at -c * TOL * ||u||_F: the
        # default scale sum_j ||u_j||_2 (about 7.5 against ||u||_F = 2.6) is
        # the data scale of schur_op(u), so the verdicts agree at every c and
        # both turn at c = 7.47 / 2.65 = 2.82
        g = make_cyclic_product([8])
        diag = diagonalize(character_rep(g, [Character((8,), (k,)) for k in range(8)]))
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        evals = np.ones(8)
        evals[0] = -c * TOL * np.sqrt(7.0)
        u = (q * evals) @ q.conj().T
        u = (u + u.conj().T) / 2
        assert is_positive_definite(VFunction(diag.spectrum, u)) == (c < 2.8)
        assert is_completely_positive(elementary.schur_op(u)) == (c < 2.8)

    def test_probability_measures_give_positive_kernels(self):
        g = make_cyclic_product([3, 3])
        rng = np.random.default_rng(1)
        for _ in range(10):
            diag = diagonalize(random_character_rep(g, rng, max_dim=5))
            w = rng.random(9)
            mu = Measure(g, w / w.sum())
            assert is_positive_definite(from_measure(diag, mu))


class TestGramFactorization:
    def test_all_ones_kernel_has_a_single_constant_factor(self):
        _, diag = _spectrum(7, [0, 1, 3])
        factors = gram_factorize(VFunction(diag.spectrum, np.ones((3, 3))))
        assert len(factors) == 1
        phi = factors[0]
        assert np.allclose(np.abs(phi), 1.0)
        assert np.allclose(phi, phi[0])  # constant up to the common phase

    def test_identity_kernel_factors_into_indicators(self):
        _, diag = _spectrum(5, [1, 2])
        factors = gram_factorize(VFunction(diag.spectrum, np.eye(2)))
        assert len(factors) == 2
        stacked = np.abs(np.stack(factors))
        assert np.allclose(np.sort(stacked, axis=1), [[0.0, 1.0], [0.0, 1.0]])

    def test_random_positive_kernels_reconstruct(self):
        rng = np.random.default_rng(2)
        _, diag = _spectrum(9, [0, 2, 5, 7])
        for _ in range(10):
            gmat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u = VFunction(diag.spectrum, gmat @ gmat.conj().T)
            factors = gram_factorize(u)
            recon = sum(np.outer(phi, np.conj(phi)) for phi in factors)
            assert np.linalg.norm(recon - u.values) < 1e-9

    def test_indefinite_kernel_rejected(self):
        _, diag = _spectrum(5, [0, 1])
        with pytest.raises(NumericalError):
            gram_factorize(VFunction(diag.spectrum, np.diag([1.0, -1.0])))

    @pytest.mark.parametrize("psd", [True, False])
    def test_one_decomposition_per_call(self, monkeypatch, psd):
        # the PSD verdict comes from the same eigh that gives the factors;
        # delta_0 - delta_1 - delta_6 gives a Hermitian kernel that is not PSD
        g, diag = _spectrum(7, [0, 2, 3, 5])
        weights = np.linspace(1.0, 2.0, 7) if psd else np.array([1.0, -1, 0, 0, 0, 0, -1])
        u = from_measure(diag, Measure(g, weights))
        assert np.linalg.norm(u.values - u.values.conj().T) <= TOL * u.scale
        calls = []
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "qr", "cholesky"):
            def counted(*args, _inner=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        if psd:
            assert len(gram_factorize(u)) == 4
        else:
            with pytest.raises(NumericalError):
                gram_factorize(u)
        assert calls == ["eigh"]

    def test_empty_factorization_for_the_zero_kernel(self):
        _, diag = _spectrum(5, [0, 1])
        assert gram_factorize(VFunction(diag.spectrum, np.zeros((2, 2)))) == []


class TestEquivalenceSuite:
    def test_identity_point_mass_is_positive_in_every_sense(self):
        g, diag = _spectrum(6, [0, 1, 3])
        report = equivalence_suite(diag, dirac(g, g.identity))
        assert report.completely_positive and report.positive_definite
        assert report.sampled_positive
        assert report.kraus_count == 1
        assert report.kraus_diagonality < 1e-10
        assert report.consistent

    def test_positive_measures_pass_with_diagonal_kraus(self):
        g = make_cyclic_product([2, 4])
        rng = np.random.default_rng(4)
        diag = diagonalize(random_character_rep(g, rng, max_dim=6))
        mu = Measure(g, rng.random(8))
        report = equivalence_suite(diag, mu)
        assert report.completely_positive and report.positive_definite
        assert report.kraus_count >= 1
        assert report.kraus_diagonality < 1e-8
        assert report.kraus_min_singular > 1e-9

    def test_signed_measures_fail_consistently(self):
        g, diag = _spectrum(7, [1, 2, 4])
        report = equivalence_suite(diag, (dirac(g, 1) - dirac(g, 0)) * 1.5)
        assert not report.completely_positive
        assert not report.positive_definite
        assert not report.sampled_positive
        assert report.consistent
        assert report.kraus_count == 0

    @pytest.mark.parametrize("tiny", [1e-7, 1e-9, 1e-11])
    def test_tiny_weight_keeps_kraus_and_gram_counts_equal(self, tiny):
        # a Choi eigenvalue near the cutoff has an eigenvector error of about
        # eps * top / lambda; diagonality is judged at the family's scale
        g = make_cyclic_product([8])
        pi = regular_rep(g)
        diag = diagonalize(pi)
        w = np.linspace(1.0, 2.0, 8)
        w[3] = tiny
        mu = Measure(g, w)
        report = equivalence_suite(diag, mu)
        kraus = strongly_independent_kraus(gamma(pi, mu).op)
        factors = gram_factorize(from_measure(diag, mu))
        assert report.completely_positive and report.positive_definite
        assert report.kraus_count == len(kraus) == len(factors) == 8
        assert report.kraus_diagonality <= TOL

    def test_small_mass_keeps_kraus_and_gram_counts_equal(self):
        # the Kraus cutoff once had a unit floor, CUTOFF * max(1, top), and
        # kept 7 elements here against 8 Gram factors
        g = make_cyclic_product([8])
        pi = regular_rep(g)
        diag = diagonalize(pi)
        w = 1e-3 * np.linspace(1.0, 2.0, 8)
        w[3] = 1e-14
        mu = Measure(g, w)
        kraus = strongly_independent_kraus(gamma(pi, mu).op)
        factors = gram_factorize(from_measure(diag, mu))
        assert len(kraus) == len(factors) == 8
        report = equivalence_suite(diag, mu)
        assert report.kraus_count == 8 and report.consistent

    @pytest.mark.parametrize("n,exponents,s", [(8, [0, 2, 4, 6], 4), (9, [0, 3, 6], 6),
                                               (12, [0, 3, 6, 9], 8)])
    def test_numerically_zero_kernel_has_no_gram_or_kraus_terms(self, n, exponents, s):
        # every spectrum character is 1 at s, so delta_s - delta_0 realizes the
        # zero map; in floating point its kernel keeps an eigenvalue near
        # 1e-16, which the Gram rule once kept as one factor against no Kraus
        # element
        g, diag = _spectrum(n, exponents)
        mu = dirac(g, s) - dirac(g, g.identity)
        assert gram_factorize(from_measure(diag, mu)) == []
        assert strongly_independent_kraus(gamma(diag.rep, mu).op) == []
        report = equivalence_suite(diag, mu)
        assert report.completely_positive and report.gram_count == report.kraus_count == 0

    def test_tiny_signed_measure_is_neither_cp_nor_positive_definite(self):
        g, diag = _spectrum(7, [1, 2, 4])
        mu = (dirac(g, 1) - dirac(g, 0)) * 1e-12
        assert not is_positive_definite(from_measure(diag, mu))
        report = equivalence_suite(diag, mu)
        assert report.consistent
        assert not report.completely_positive and not report.positive_definite

    def test_generic_complex_measures_are_consistent(self):
        g = make_cyclic_product([9])
        rng = np.random.default_rng(5)
        for _ in range(10):
            diag = diagonalize(random_character_rep(g, rng, max_dim=5))
            mu = Measure(g, rng.standard_normal(9) + 1j * rng.standard_normal(9))
            report = equivalence_suite(diag, mu, trials=10)
            assert report.consistent


class TestChoiBuilds:
    """One Choi decomposition per map: the CP verdict and the Kraus family
    come from the same ``eigh``.  Every Choi matrix is built by
    ``elementary._vec_outer_sum`` and every transfer matrix or block of one
    by ``elementary._transfer_columns``, so wrapping them counts the dense
    builds."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        for name in ("_vec_outer_sum", "_transfer_columns"):
            def counted(t, *args, _inner=getattr(elementary, name)):
                calls.append(t.dim)
                return _inner(t, *args)
            monkeypatch.setattr(elementary, name, counted)
        return calls

    def _regular_z8(self):
        g = make_cyclic_product([8])
        pi = regular_rep(g)
        return pi, diagonalize(pi), Measure(g, np.linspace(1.0, 2.0, 8))

    def test_equivalence_suite_builds_none(self, builds):
        # the positivity probe's bimodule gate and the Kraus reconstruction
        # gate read the factors through choi_distance, and the probe's
        # images are Schur products with the symbol
        _, diag, mu = self._regular_z8()
        report = equivalence_suite(diag, mu, trials=20)
        assert report.completely_positive and report.kraus_count == 8
        assert builds == []

    def test_cp_norm_path_builds_none(self, builds):
        # the CP verdict, the Kraus family and its reconstruction gate all
        # come from the factors
        pi, _, mu = self._regular_z8()
        interval = haagerup_norm_bounds(gamma(pi, mu).op)
        assert interval.lower == interval.upper == pytest.approx(mu.norm)
        assert builds == []

    def test_not_cp_verdict_builds_none(self, builds):
        # the verdict comes from the factored Choi spectrum; a dense Choi
        # matrix is built only for the reconstruction gate of a CP map
        pi, _, _ = self._regular_z8()
        op = gamma(pi, Measure(pi.group, np.linspace(-1.0, 2.0, 8))).op
        assert not is_completely_positive(op)
        with pytest.raises(NotCompletelyPositiveError):
            strongly_independent_kraus(op)
        assert builds == []


class TestVFunctionContainer:
    def test_shape_is_validated(self):
        _, diag = _spectrum(5, [0, 1])
        with pytest.raises(ValueError):
            VFunction(diag.spectrum, np.ones((3, 3)))

    def test_values_are_read_only(self):
        _, diag = _spectrum(5, [0, 1])
        u = VFunction(diag.spectrum, np.eye(2))
        with pytest.raises(ValueError):
            u.values[0, 0] = 2.0
