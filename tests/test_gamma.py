"""Measures realized as elementary operators: homomorphism, symbols, kernels."""

import importlib

import numpy as np
import pytest

from ehtp.elementary import apply, transfer_matrix
from ehtp.errors import GroupMismatchError, NumericalError
from ehtp.gamma import (
    checked_symbol,
    gamma,
    kernel_test_difference_set,
    kernel_test_tensor_conjugate,
    kernel_test_transfer,
    restriction_spectrum_check,
    schur_form,
    slice_identity_residual,
)
from ehtp.groups import (
    Character,
    dual_group,
    from_cayley,
    make_cyclic_product,
    subgroup_and_restriction,
)
from ehtp.hnorm import haagerup_norm_bounds
from ehtp.measures import Measure, convolve, dirac, fourier_stieltjes, fourier_symbol, in_augmentation_ideal
from ehtp.representations import character_rep, diagonalize, regular_rep
from ehtp.suites import random_character_rep, s3_cayley

# the package namespace binds ``gamma`` to the function, not the module
gamma_module = importlib.import_module("ehtp.gamma")


# independent oracle: accumulate the conjugation average entry by entry
def _brute_image(pi, mu, x):
    out = np.zeros_like(x, dtype=np.complex128)
    for s in range(pi.group.order):
        out += mu.weights[s] * pi.matrices[s] @ x @ pi.matrices[s].conj().T
    return out


def _random_measure(g, rng):
    return Measure(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))


class TestRealization:
    def test_identity_point_mass_gives_the_identity_map(self):
        g = make_cyclic_product([3, 2])
        pi = regular_rep(g)
        assert np.allclose(transfer_matrix(gamma(pi, dirac(g, g.identity)).op), np.eye(36))

    def test_point_mass_gives_conjugation(self):
        g = make_cyclic_product([5])
        pi = regular_rep(g)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        for s in range(5):
            img = gamma(pi, dirac(g, s))
            expect = pi.matrices[s] @ x @ pi.matrices[s].conj().T
            assert np.allclose(img.apply(x), expect)

    def test_matches_brute_force_accumulation(self):
        g = make_cyclic_product([2])
        pi = regular_rep(g)
        mu = (dirac(g, 0) + dirac(g, 1)) * 0.5
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(gamma(pi, mu).apply(x), _brute_image(pi, mu, x))

    def test_term_count_tracks_the_support(self):
        g = make_cyclic_product([6])
        mu = dirac(g, 1) - dirac(g, 4)
        img = gamma(regular_rep(g), mu)
        assert img.op.n_terms == 2

    def test_group_mismatch_rejected(self):
        pi = regular_rep(make_cyclic_product([3]))
        mu = dirac(make_cyclic_product([5]), 0)
        for check in (gamma, lambda pi, mu: checked_symbol(diagonalize(pi), mu),
                      lambda pi, mu: kernel_test_difference_set(diagonalize(pi), mu)):
            with pytest.raises(GroupMismatchError):
                check(pi, mu)


class TestHomomorphism:
    def test_convolution_becomes_composition(self):
        rng = np.random.default_rng(2)
        for g in (make_cyclic_product([8]), make_cyclic_product([2, 4]),
                  from_cayley(s3_cayley())):
            pi = regular_rep(g)
            for _ in range(10):
                mu, nu = _random_measure(g, rng), _random_measure(g, rng)
                lhs = transfer_matrix(gamma(pi, convolve(mu, nu)).op)
                rhs = transfer_matrix(gamma(pi, mu).op) @ transfer_matrix(gamma(pi, nu).op)
                assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_linearity_in_the_measure(self):
        g = make_cyclic_product([7])
        pi = regular_rep(g)
        rng = np.random.default_rng(3)
        mu, nu = _random_measure(g, rng), _random_measure(g, rng)
        lhs = transfer_matrix(gamma(pi, mu + nu * 2j).op)
        assert np.allclose(lhs, transfer_matrix(gamma(pi, mu).op) + 2j * transfer_matrix(gamma(pi, nu).op))

    def test_contractive_into_cb_norm(self):
        rng = np.random.default_rng(4)
        g = make_cyclic_product([2, 3])
        pi = regular_rep(g)
        for _ in range(10):
            mu = _random_measure(g, rng)
            b = haagerup_norm_bounds(gamma(pi, mu).op)
            assert b.upper <= mu.norm + 1e-9


class TestSliceIdentity:
    def test_residual_vanishes_on_random_functionals(self):
        rng = np.random.default_rng(5)
        g = make_cyclic_product([2, 4])
        for _ in range(5):
            pi = random_character_rep(g, rng, max_dim=6)
            mu = _random_measure(g, rng)
            img = gamma(pi, mu)
            for _ in range(10):
                w = rng.standard_normal((pi.dim, pi.dim)) + 1j * rng.standard_normal((pi.dim, pi.dim))
                assert slice_identity_residual(img, w) < 1e-9

    def test_residual_vanishes_on_the_regular_rep_of_s3(self):
        rng = np.random.default_rng(6)
        g = from_cayley(s3_cayley())
        pi = regular_rep(g)
        mu = _random_measure(g, rng)
        img = gamma(pi, mu)
        for _ in range(10):
            w = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            assert slice_identity_residual(img, w) < 1e-9


class TestSchurForm:
    def test_identity_point_mass_has_all_ones_symbol(self):
        g = make_cyclic_product([5])
        diag = diagonalize(regular_rep(g))
        assert np.allclose(schur_form(diag, dirac(g, g.identity)), np.ones((5, 5)))

    def test_point_mass_symbol_is_a_character_outer_quotient(self):
        g = make_cyclic_product([6])
        diag = diagonalize(regular_rep(g))
        for s in (1, 4):
            symbol = schur_form(diag, dirac(g, s))
            vals = np.array([c.evaluate(g, s) for c in diag.char_of_index])
            assert np.allclose(symbol, np.outer(vals, np.conj(vals)))

    def test_symbol_entries_are_quotient_transforms(self):
        g = make_cyclic_product([3, 3])
        rng = np.random.default_rng(7)
        repeated = character_rep(g, [Character((3, 3), e) for e in ((1, 2), (0, 1), (1, 2), (2, 0))])
        for pi in (random_character_rep(g, rng, max_dim=5), repeated):
            diag = diagonalize(pi)
            mu = _random_measure(g, rng)
            symbol = schur_form(diag, mu)
            chars = diag.char_of_index
            assert np.array_equal(symbol, fourier_symbol(mu, chars))
            for j in range(pi.dim):
                for k in range(pi.dim):
                    expect = fourier_stieltjes(mu, chars[j].quotient(chars[k]))
                    assert abs(symbol[j, k] - expect) < 1e-12

    def test_symbol_acts_entrywise_on_rotated_units(self):
        g = make_cyclic_product([8])
        rng = np.random.default_rng(8)
        pi = random_character_rep(g, rng, max_dim=4)
        diag = diagonalize(pi)
        mu = _random_measure(g, rng)
        symbol = schur_form(diag, mu)
        op = gamma(pi, mu).op
        v = diag.basis
        for j in range(pi.dim):
            for k in range(pi.dim):
                unit = np.outer(v[:, j], np.conj(v[:, k]))
                assert np.abs(apply(op, unit) - symbol[j, k] * unit).max() < 1e-9

    def test_convolution_multiplies_symbols_entrywise(self):
        g = make_cyclic_product([4, 2])
        rng = np.random.default_rng(9)
        diag = diagonalize(random_character_rep(g, rng, max_dim=5))
        mu, nu = _random_measure(g, rng), _random_measure(g, rng)
        lhs = schur_form(diag, convolve(mu, nu))
        assert np.allclose(lhs, schur_form(diag, mu) * schur_form(diag, nu))


    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_symbol_error_is_caught_at_every_measure_scale(self, scale, monkeypatch):
        # a unit floor in the gate, TOL * max(1, ||mu||_1), would pass a
        # symbol 1e-3 off at measure scale 1e-12
        g = make_cyclic_product([6])
        rng = np.random.default_rng(10)
        diag = diagonalize(random_character_rep(g, rng, max_dim=4))
        mu = _random_measure(g, rng) * scale
        assert np.array_equal(schur_form(diag, mu), fourier_symbol(mu, diag.char_of_index))
        monkeypatch.setattr(gamma_module, "fourier_symbol",
                            lambda m, chars: fourier_symbol(m, chars) * (1 + 1e-3))
        with pytest.raises(NumericalError):
            schur_form(diag, mu)


class TestKernelTests:
    def test_zero_measure_is_in_the_kernel(self):
        g = make_cyclic_product([6])
        pi = regular_rep(g)
        diag = diagonalize(pi)
        zero = Measure(g, np.zeros(6))
        assert kernel_test_transfer(gamma(pi, zero))
        assert kernel_test_difference_set(diag, zero)
        assert kernel_test_tensor_conjugate(pi, zero)

    def test_faithful_on_the_regular_representation(self):
        # full spectrum makes the quotient set the whole dual: only the zero
        # measure is killed
        g = make_cyclic_product([5])
        pi = regular_rep(g)
        diag = diagonalize(pi)
        mu = dirac(g, 1) - dirac(g, 0)
        assert not kernel_test_transfer(gamma(pi, mu))
        assert not kernel_test_difference_set(diag, mu)
        assert not kernel_test_tensor_conjugate(pi, mu)

    def test_constructed_kernel_measure_on_z7(self):
        # spectrum {1, 3} has quotient exponents {0, 2, 5}; a measure whose
        # transform lives on the complement acts as zero
        g = make_cyclic_product([7])
        pi = character_rep(g, [Character((7,), (1,)), Character((7,), (3,))])
        diag = diagonalize(pi)
        rng = np.random.default_rng(10)
        coeffs = np.zeros(7, dtype=np.complex128)
        for k in (1, 3, 4, 6):
            coeffs[k] = rng.standard_normal() + 1j * rng.standard_normal()
        table = np.array([c.values(g) for c in dual_group(g)])
        mu = Measure(g, table.conj().T @ coeffs / 7.0)
        for k in (0, 2, 5):
            assert abs(fourier_stieltjes(mu, Character((7,), (k,)))) < 1e-12
        assert kernel_test_difference_set(diag, mu)
        assert kernel_test_tensor_conjugate(pi, mu)
        img = gamma(pi, mu)
        assert kernel_test_transfer(img)
        assert np.linalg.norm(transfer_matrix(img.op)) < 1e-12

    def test_thresholds_scale_with_the_measure(self):
        # a generic measure shrunk to 1e-12 total variation is still far from
        # the kernel relative to its size; kernel measures stay in it at any scale
        g = make_cyclic_product([60])
        chars = [Character((60,), (k,)) for k in (0, 7, 19, 23, 40, 52)]
        pi = character_rep(g, chars)
        diag = diagonalize(pi)
        rng = np.random.default_rng(20031)
        tiny = Measure(g, 1e-12 * (rng.standard_normal(60) + 1j * rng.standard_normal(60)))
        assert not kernel_test_transfer(gamma(pi, tiny))
        assert not kernel_test_difference_set(diag, tiny)
        assert not kernel_test_tensor_conjugate(pi, tiny)

        diff = {(a.exponents[0] - b.exponents[0]) % 60 for a in chars for b in chars}
        table = np.array([c.values(g) for c in dual_group(g)])
        for scale in (1.0, 1e-12, 1e6):
            coeffs = np.zeros(60, dtype=np.complex128)
            for k in sorted(set(range(60)) - diff):
                coeffs[k] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
            mu = Measure(g, table.conj().T @ coeffs / 60.0)
            assert kernel_test_transfer(gamma(pi, mu))
            assert kernel_test_difference_set(diag, mu)
            assert kernel_test_tensor_conjugate(pi, mu)

    def test_verdicts_do_not_depend_on_the_measure_scale(self):
        # TOL is relative to ||mu||_1: shrinking a generic measure by 1e-12
        # moves it neither into the kernel nor into the augmentation ideal
        g = make_cyclic_product([60])
        chars = [Character((60,), (k,)) for k in (0, 7, 19, 23, 40, 52)]
        pi = character_rep(g, chars)
        diag = diagonalize(pi)
        rng = np.random.default_rng(5)
        mu = Measure(g, rng.standard_normal(60) + 1j * rng.standard_normal(60))
        tiny = mu * 1e-12
        assert abs(tiny.total_mass) > 1e-2 * tiny.norm
        assert not in_augmentation_ideal(mu)
        assert not in_augmentation_ideal(tiny)

        def verdicts(nu):
            return (kernel_test_transfer(gamma(pi, nu)), kernel_test_difference_set(diag, nu),
                    kernel_test_tensor_conjugate(pi, nu))

        assert verdicts(tiny) == verdicts(mu) == (False, False, False)

    def test_three_detectors_agree_on_random_measures(self):
        rng = np.random.default_rng(11)
        g = make_cyclic_product([8])
        for _ in range(20):
            pi = random_character_rep(g, rng, max_dim=5)
            diag = diagonalize(pi)
            mu = _random_measure(g, rng)
            verdicts = {
                kernel_test_transfer(gamma(pi, mu)),
                kernel_test_difference_set(diag, mu),
                kernel_test_tensor_conjugate(pi, mu),
            }
            assert len(verdicts) == 1


class TestRestriction:
    def test_even_subgroup_of_z6(self):
        g = make_cyclic_product([6])
        pi = character_rep(g, [Character((6,), (1,)), Character((6,), (2,))])
        sub = subgroup_and_restriction(g, [2])
        report = restriction_spectrum_check(pi, sub)
        assert report.match
        assert report.expected_exponents == ((1,), (2,))
        assert report.symbol_residual < 1e-9

    def test_whole_group_restriction_is_identity(self):
        g = make_cyclic_product([2, 3])
        rng = np.random.default_rng(12)
        pi = random_character_rep(g, rng, max_dim=5)
        sub = subgroup_and_restriction(g, [g.element_index([1, 1])])
        assert sub.subgroup.order == 6
        report = restriction_spectrum_check(pi, sub)
        assert report.match

    def test_trivial_subgroup_collapses_to_the_trivial_character(self):
        g = make_cyclic_product([9])
        pi = character_rep(g, [Character((9,), (2,)), Character((9,), (5,))])
        sub = subgroup_and_restriction(g, [g.identity])
        report = restriction_spectrum_check(pi, sub)
        assert report.match
        assert len(report.actual_exponents) == 1
        assert all(e == 0 for e in report.actual_exponents[0])

    def test_random_subgroups_match(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = make_cyclic_product([4, 4])
            pi = random_character_rep(g, rng, max_dim=6)
            gens = [int(rng.integers(g.order)) for _ in range(2)]
            sub = subgroup_and_restriction(g, gens)
            report = restriction_spectrum_check(pi, sub)
            assert report.match
            assert report.symbol_residual < 1e-9
