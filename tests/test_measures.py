"""Complex measures: convolution algebra, involution, Fourier transform."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehtp.errors import GroupMismatchError, NumericalError
from ehtp.groups import Character, dual_group, make_cyclic_product, spectrum
from ehtp.measures import (
    Measure,
    convolve,
    dirac,
    fourier_on,
    fourier_stieltjes,
    fourier_symbol,
    from_density,
    from_transform,
    in_augmentation_ideal,
    reverse_conj,
)

SHAPES = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=2)


def _close(mu, nu):
    """The two measures live on one group and their weights differ by at
    most 1e-10 at every element."""
    return mu.group.is_same(nu.group) and np.max(np.abs(mu.weights - nu.weights)) <= 1e-10


# independent oracle: convolution by double loop over the group table
def _brute_convolve(g, w1, w2):
    out = np.zeros(g.order, dtype=np.complex128)
    for s in range(g.order):
        for t in range(g.order):
            out[g.mul(s, t)] += w1[s] * w2[t]
    return out


def _random_measure(g, rng):
    return Measure(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))


class TestBasics:
    def test_dirac_weights_and_norm(self):
        g = make_cyclic_product([5])
        mu = dirac(g, 3)
        assert mu.weights[3] == 1.0 and mu.norm == 1.0
        assert list(mu.support()) == [3]

    def test_arithmetic(self):
        g = make_cyclic_product([3])
        mu = dirac(g, 0) - dirac(g, 1) * 2j
        assert mu.weights[1] == -2j
        assert mu.norm == pytest.approx(3.0)
        assert (-mu).weights[0] == -1.0

    @pytest.mark.parametrize("weights", [[1.0, np.nan, 0.0], [1.0, np.inf, 0.0], [0.0, 1j * np.nan, 0.0],
                                         [1.5e308, 1.5e308, 0.0]])
    def test_non_finite_weights_and_norms_rejected(self, weights):
        # the last norm overflows: every gate scaled by it would pass
        with pytest.raises(NumericalError), np.errstate(over="ignore"):
            Measure(make_cyclic_product([3]), weights)

    def test_group_mismatch_rejected(self):
        # measures, weights, densities and spectra of two different groups
        z3, z4 = make_cyclic_product([3]), make_cyclic_product([4])
        mu, nu = dirac(z3, 0), dirac(z4, 0)
        rejected = [
            (lambda: convolve(mu, nu), GroupMismatchError, "different groups"),
            (lambda: Measure(z3, np.ones(4)), ValueError, r"weights must have shape \(3,\)"),
            (lambda: from_density(z3, np.ones(4)), ValueError, "one value per group element"),
            (lambda: fourier_on(mu, spectrum(z4, [Character((4,), (1,))])), GroupMismatchError,
             "different group"),
        ]
        for call, error, message in rejected:
            with pytest.raises(error, match=message):
                call()

    def test_from_density_normalization(self):
        g = make_cyclic_product([4])
        uniform = from_density(g, np.ones(4))
        assert uniform.total_mass == pytest.approx(1.0)
        assert np.allclose(uniform.weights, 0.25)

    def test_from_density_point_mass(self):
        g = make_cyclic_product([6])
        f = np.zeros(6)
        f[0] = 6.0
        assert _close(from_density(g, f), dirac(g, 0))

    def test_from_density_sign_pattern_on_z2(self):
        g = make_cyclic_product([2])
        mu = from_density(g, [2.0, -2.0])
        assert _close(mu, dirac(g, 0) - dirac(g, 1))


class TestConvolution:
    def test_point_masses_multiply(self):
        g = make_cyclic_product([2, 3])
        for s in range(6):
            for t in range(6):
                assert _close(convolve(dirac(g, s), dirac(g, t)), dirac(g, g.mul(s, t)))

    def test_unit_is_the_identity_point_mass(self):
        g = make_cyclic_product([7])
        rng = np.random.default_rng(0)
        mu = _random_measure(g, rng)
        assert _close(convolve(dirac(g, g.identity), mu), mu)
        assert _close(convolve(mu, dirac(g, g.identity)), mu)

    def test_worked_product_on_z4(self):
        g = make_cyclic_product([4])
        lhs = convolve(dirac(g, 1) + dirac(g, 2), dirac(g, 1) - dirac(g, 3))
        expect = dirac(g, 2) + dirac(g, 3) - dirac(g, 0) - dirac(g, 1)
        assert _close(lhs, expect)

    @given(SHAPES)
    def test_matches_brute_force(self, shape):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(1)
        mu, nu = _random_measure(g, rng), _random_measure(g, rng)
        assert np.allclose(convolve(mu, nu).weights, _brute_convolve(g, mu.weights, nu.weights))

    @given(SHAPES)
    def test_associative(self, shape):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(2)
        mu, nu, kappa = (_random_measure(g, rng) for _ in range(3))
        assert _close(convolve(convolve(mu, nu), kappa), convolve(mu, convolve(nu, kappa)))

    @given(SHAPES)
    def test_norm_submultiplicative(self, shape):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(3)
        mu, nu = _random_measure(g, rng), _random_measure(g, rng)
        assert convolve(mu, nu).norm <= mu.norm * nu.norm + 1e-12


class TestInvolution:
    def test_point_mass_reverses(self):
        g = make_cyclic_product([5])
        assert _close(reverse_conj(dirac(g, 2)), dirac(g, 3))

    def test_conjugates_weights(self):
        g = make_cyclic_product([4])
        assert _close(reverse_conj(dirac(g, 1) * 1j), dirac(g, 3) * (-1j))

    @given(SHAPES)
    def test_involutive_antiautomorphism(self, shape):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(4)
        mu, nu = _random_measure(g, rng), _random_measure(g, rng)
        assert _close(reverse_conj(reverse_conj(mu)), mu)
        lhs = reverse_conj(convolve(mu, nu))
        assert _close(lhs, convolve(reverse_conj(nu), reverse_conj(mu)))


class TestFourier:
    def test_identity_point_mass_transforms_to_one(self):
        g = make_cyclic_product([2, 4])
        for chi in dual_group(g):
            assert fourier_stieltjes(dirac(g, g.identity), chi) == pytest.approx(1.0)

    def test_point_mass_transforms_to_character_value(self):
        g = make_cyclic_product([6])
        for s in range(6):
            for chi in dual_group(g):
                expect = chi.evaluate(g, s)
                assert fourier_stieltjes(dirac(g, s), chi) == pytest.approx(expect)

    def test_uniform_probability_is_the_trivial_indicator(self):
        g = make_cyclic_product([8])
        mu = from_density(g, np.ones(8))
        for chi in dual_group(g):
            expect = 1.0 if chi.exponents == (0,) else 0.0
            assert abs(fourier_stieltjes(mu, chi) - expect) < 1e-12

    def test_fourier_on_orders_like_the_spectrum(self):
        g = make_cyclic_product([5])
        e = spectrum(g, [Character((5,), (3,)), Character((5,), (1,))])
        mu = dirac(g, 1)
        vals = fourier_on(mu, e)
        w5 = np.exp(2j * np.pi / 5)
        assert np.allclose(vals, [w5**3, w5])

    # repeated characters, d = 1, several factors, |G| up to 360
    @pytest.mark.parametrize("shape,d", [((1,), 1), ((7,), 1), ((2, 6), 9), ((3, 4, 5), 6),
                                         ((360,), 8), ((2, 3, 60), 12)])
    def test_fourier_symbol_matches_entrywise_quotient_transforms(self, shape, d):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(d)
        duals = dual_group(g).characters
        chars = [duals[int(rng.integers(len(duals)))] for _ in range(d)]
        chars[-1] = chars[0]
        mu = _random_measure(g, rng) * 1e3
        symbol = fourier_symbol(mu, chars)
        assert symbol.shape == (d, d)
        for j, cj in enumerate(chars):
            for k, ck in enumerate(chars):
                expect = fourier_stieltjes(mu, cj.quotient(ck))
                assert abs(symbol[j, k] - expect) <= 1e-12 * max(1.0, mu.norm)

    @pytest.mark.parametrize("shape", [(1,), (8,), (2, 6), (3, 4, 5)])
    def test_from_transform_inverts_fourier_on(self, shape):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(len(shape))
        duals = dual_group(g)
        coeffs = {c.exponents: complex(rng.standard_normal(), rng.standard_normal())
                  for c in duals if rng.random() < 0.5}
        expect = [coeffs.get(c.exponents, 0.0) for c in duals]
        assert np.allclose(fourier_on(from_transform(g, coeffs), duals), expect, atol=1e-12)

    @given(SHAPES)
    def test_transform_is_multiplicative(self, shape):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(5)
        mu, nu = _random_measure(g, rng), _random_measure(g, rng)
        for chi in dual_group(g):
            lhs = fourier_stieltjes(convolve(mu, nu), chi)
            rhs = fourier_stieltjes(mu, chi) * fourier_stieltjes(nu, chi)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, mu.norm * nu.norm)


class TestAugmentationIdeal:
    def test_difference_of_point_masses_is_inside(self):
        g = make_cyclic_product([9])
        assert in_augmentation_ideal(dirac(g, 4) - dirac(g, 7))

    def test_single_point_mass_is_outside(self):
        g = make_cyclic_product([9])
        assert not in_augmentation_ideal(dirac(g, 4))

    def test_nontrivial_character_density_is_inside(self):
        g = make_cyclic_product([5])
        chi = Character((5,), (2,))
        assert in_augmentation_ideal(from_density(g, chi.values(g)))

    def test_membership_is_vanishing_total_mass(self):
        g = make_cyclic_product([3, 2])
        rng = np.random.default_rng(6)
        mu = _random_measure(g, rng)
        centered = mu - dirac(g, g.identity) * mu.total_mass
        assert in_augmentation_ideal(centered)
        assert in_augmentation_ideal(mu) == (abs(mu.total_mass) <= 1e-10)
