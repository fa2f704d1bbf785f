"""Completely bounded norm bracketing: the Schur-multiplier SDP, and gauge
descent with probe ascent for every other map."""

import numpy as np
import pytest

from ehtp import elementary, hnorm
from ehtp.elementary import (
    ElementaryOperator,
    apply,
    conjugate_by,
    conjugation_op,
    schur_op,
    transfer_matrix,
)
from ehtp.errors import NumericalError
from ehtp.hnorm import haagerup_norm_bounds, prune_terms
from ehtp.groups import Character, dual_group, make_cyclic_product
from ehtp.measures import Measure, dirac, fourier_symbol
from ehtp.gamma import gamma
from ehtp.representations import character_rep, regular_rep
from ehtp.suites import make_rng


# independent oracle: the factorization value of an explicit term list
def _factorization_value(terms):
    row = sum(a @ a.conj().T for a, _ in terms)
    col = sum(b.conj().T @ b for _, b in terms)
    return float(np.sqrt(np.linalg.eigvalsh(row)[-1] * np.linalg.eigvalsh(col)[-1]))


def _random_unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_op(d, n, rng):
    terms = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
              rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
             for _ in range(n)]
    return ElementaryOperator.from_terms(d, terms)


class TestExactCases:
    def test_unitary_conjugation_is_exactly_one(self):
        rng = np.random.default_rng(0)
        b = haagerup_norm_bounds(conjugation_op(_random_unitary(4, rng)))
        assert b.lower == b.upper == pytest.approx(1.0, abs=1e-12)

    def test_single_term_degenerates_to_operator_norm_product(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            t = ElementaryOperator.from_terms(d, [(a, c)])
            target = np.linalg.norm(a, 2) * np.linalg.norm(c, 2)
            b = haagerup_norm_bounds(t)
            assert b.upper <= target * (1 + 1e-9)
            assert b.width <= 1e-6 * target
            assert b.iterations <= 500

    def test_positive_measure_realizes_its_total_mass(self):
        g = make_cyclic_product([5])
        pi = regular_rep(g)
        rng = np.random.default_rng(2)
        mu = Measure(g, rng.random(5))
        b = haagerup_norm_bounds(gamma(pi, mu).op, restarts=1)
        assert b.lower == b.upper
        assert b.upper == pytest.approx(mu.norm, abs=1e-12)

    def test_cp_value_is_the_image_of_the_identity(self):
        rng = np.random.default_rng(3)
        ks = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        t = ElementaryOperator.from_terms(3, [(k, k.conj().T) for k in ks])
        b = haagerup_norm_bounds(t)
        t_of_one = apply(t, np.eye(3))
        assert b.upper == pytest.approx(np.linalg.norm(t_of_one, 2), rel=1e-12)
        assert b.lower == b.upper


class TestIntervalShape:
    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            t = _random_op(int(rng.integers(2, 5)), int(rng.integers(1, 4)), rng)
            b = haagerup_norm_bounds(t, restarts=4)
            assert b.lower <= b.upper + 1e-12

    def test_trace_is_monotone_non_increasing(self):
        rng = np.random.default_rng(5)
        t = _random_op(4, 3, rng)
        b = haagerup_norm_bounds(t, restarts=2)
        trace = b.upper_trace
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))
        assert trace[-1] == pytest.approx(b.upper)

    def test_upper_bounded_by_measure_norm(self):
        g = make_cyclic_product([3, 2])
        pi = regular_rep(g)
        rng = np.random.default_rng(6)
        for _ in range(10):
            mu = Measure(g, rng.standard_normal(6) + 1j * rng.standard_normal(6))
            b = haagerup_norm_bounds(gamma(pi, mu).op, restarts=2)
            assert b.upper <= mu.norm + 1e-9

    def test_lower_bound_is_achieved_by_a_probe(self):
        # the point mass difference has cb norm 2; the probe ascent finds it
        g = make_cyclic_product([4])
        pi = regular_rep(g)
        mu = dirac(g, 1) - dirac(g, 0)
        b = haagerup_norm_bounds(gamma(pi, mu).op, restarts=8)
        assert b.lower == pytest.approx(2.0, abs=1e-7)
        assert b.upper == pytest.approx(2.0, abs=1e-9)

    def test_report_wire_form(self):
        b = haagerup_norm_bounds(conjugation_op(np.eye(2, dtype=np.complex128)))
        rep = b.report()
        assert set(rep) == {"lower", "upper", "iters"}
        assert isinstance(rep["iters"], int)

    def test_empty_operator_rejected(self):
        with pytest.raises(ValueError):
            haagerup_norm_bounds(ElementaryOperator.from_terms(2, []))


class TestCertificates:
    def test_certificate_preserves_the_map(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            d = int(rng.integers(2, 5))
            t = _random_op(d, int(rng.integers(1, 4)), rng)
            b = haagerup_norm_bounds(t, restarts=1)
            cert = ElementaryOperator.from_terms(d, b.certificate_terms)
            gap = np.linalg.norm(transfer_matrix(cert) - transfer_matrix(t))
            assert gap <= 1e-8 * max(1.0, np.linalg.norm(transfer_matrix(t)))

    def test_cp_certificate_is_a_kraus_rewriting_of_the_map(self):
        rng = np.random.default_rng(9)
        g = make_cyclic_product([6])
        pi = regular_rep(g)
        for _ in range(4):
            t = gamma(pi, Measure(g, rng.random(6))).op
            b = haagerup_norm_bounds(t, restarts=1)
            assert b.iterations == 0 and b.lower == b.upper
            cert = ElementaryOperator.from_terms(6, b.certificate_terms)
            assert all(np.array_equal(r, k.conj().T) for k, r in b.certificate_terms)
            gap = np.abs(transfer_matrix(cert) - transfer_matrix(t)).max()
            assert gap <= 1e-9 * max(1.0, b.upper)

    def test_certificate_value_matches_upper_for_gauged_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            d = int(rng.integers(2, 5))
            t = _random_op(d, int(rng.integers(2, 4)), rng)
            b = haagerup_norm_bounds(t, restarts=1)
            assert _factorization_value(b.certificate_terms) == pytest.approx(b.upper, rel=1e-9)


class TestPruning:
    def test_zero_terms_are_dropped(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = ElementaryOperator.from_terms(3, [(a, a), (np.zeros((3, 3)), a)])
        assert prune_terms(t).n_terms == 1

    def test_dependent_terms_are_compressed(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = ElementaryOperator.from_terms(3, [(a, c), (2.0 * a, c)])
        pruned = prune_terms(t)
        assert pruned.n_terms == 1
        assert np.allclose(transfer_matrix(pruned), transfer_matrix(t))

    def test_pruning_preserves_the_map(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            base = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
                     rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                    for _ in range(2)]
            mixed = base + [(base[0][0] + base[1][0], base[0][1])]
            t = ElementaryOperator.from_terms(d, mixed)
            assert np.allclose(transfer_matrix(prune_terms(t)), transfer_matrix(t))


def _random_symbol(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _is_diagonal(m):
    return not np.any(m[~np.eye(m.shape[0], dtype=bool)])


class TestSchurPath:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_all_characters_give_the_total_variation_norm(self, n):
        # over every character of Z_n the symbol is the regular representation
        # in its eigenbasis, and that realization is an isometry
        g = make_cyclic_product([n])
        rng = np.random.default_rng(n)
        mu = Measure(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        b = haagerup_norm_bounds(schur_op(fourier_symbol(mu, list(dual_group(g)))))
        assert b.lower <= mu.norm * (1 + 1e-12)
        assert b.upper >= mu.norm * (1 - 1e-12)
        assert b.width <= 1e-6 * mu.norm

    def test_agrees_with_the_generic_path_on_the_rotated_map(self):
        # conjugating by a unitary keeps the cb norm and makes the terms dense
        rng = np.random.default_rng(12)
        for _ in range(6):
            d = int(rng.integers(2, 5))
            t = schur_op(_random_symbol(d, rng))
            rotated = conjugate_by(t, _random_unitary(d, rng))
            schur = haagerup_norm_bounds(t)
            generic = haagerup_norm_bounds(rotated, restarts=4)
            assert generic.iterations > 0
            assert generic.lower <= schur.upper * (1 + 1e-9)
            assert schur.lower <= generic.upper * (1 + 1e-9)
            assert schur.width <= 1e-9 * schur.upper

    def test_certificate_rebuilds_the_map_and_attains_upper(self):
        g = make_cyclic_product([7])
        rng = np.random.default_rng(13)
        for d in (2, 4, 6):
            chars = [Character((7,), (int(k),)) for k in rng.choice(7, size=d, replace=False)]
            mu = Measure(g, rng.standard_normal(7) + 1j * rng.standard_normal(7))
            t = gamma(character_rep(g, chars), mu).op
            b = haagerup_norm_bounds(t)
            cert = ElementaryOperator.from_terms(d, b.certificate_terms)
            gap = np.abs(transfer_matrix(cert) - transfer_matrix(t)).max()
            assert gap <= 1e-9 * mu.norm
            assert _factorization_value(b.certificate_terms) == pytest.approx(b.upper, rel=1e-9)
            trace = b.upper_trace
            assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))
            assert trace[-1] == pytest.approx(b.upper, rel=1e-12)
            assert b.width <= 1e-9 * b.upper

    def test_certificate_terms_are_2d_diagonal_terms(self):
        rng = np.random.default_rng(14)
        b = haagerup_norm_bounds(schur_op(_random_symbol(5, rng)))
        assert len(b.certificate_terms) == 10
        assert all(_is_diagonal(a) and _is_diagonal(c) for a, c in b.certificate_terms)

    def test_dimension_one_is_the_modulus_of_the_symbol(self):
        t = ElementaryOperator.from_terms(1, [(np.array([[2.0 - 1.0j]]), np.array([[0.5j]]))])
        b = haagerup_norm_bounds(t)
        assert b.lower == pytest.approx(abs((2.0 - 1.0j) * 0.5j), rel=1e-12)
        assert b.upper == pytest.approx(abs((2.0 - 1.0j) * 0.5j), rel=1e-12)

    def test_rank_one_symbol_has_norm_max_u_times_max_v(self):
        rng = np.random.default_rng(15)
        for d in (2, 3, 6):
            u, v = _random_symbol(d, rng)[:2]
            target = np.abs(u).max() * np.abs(v).max()
            b = haagerup_norm_bounds(schur_op(np.outer(u, v.conj())))
            assert b.lower <= target * (1 + 1e-12) and b.upper >= target * (1 - 1e-12)
            assert b.width <= 1e-9 * target

    def test_all_ones_symbol_is_the_identity_map(self):
        b = haagerup_norm_bounds(schur_op(np.ones((5, 5))))
        assert b.lower <= 1 + 1e-12 and b.upper >= 1 - 1e-12
        assert b.width <= 1e-9

    @pytest.mark.parametrize("factor", [1e-12, 1e8])
    def test_bracket_scales_with_the_symbol(self, factor):
        rng = np.random.default_rng(16)
        s = _random_symbol(4, rng)
        base = haagerup_norm_bounds(schur_op(s))
        scaled = haagerup_norm_bounds(schur_op(factor * s))
        assert scaled.upper == pytest.approx(factor * base.upper, rel=1e-8)
        assert scaled.lower == pytest.approx(factor * base.lower, rel=1e-8)
        assert scaled.width <= 1e-9 * scaled.upper

    def test_repeated_characters(self):
        g = make_cyclic_product([6])
        chars = [Character((6,), (k,)) for k in (1, 4, 1, 4, 2)]
        rng = np.random.default_rng(17)
        mu = Measure(g, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        b = haagerup_norm_bounds(gamma(character_rep(g, chars), mu).op)
        distinct = haagerup_norm_bounds(
            gamma(character_rep(g, [Character((6,), (k,)) for k in (1, 4, 2)]), mu).op)
        # repeating a character repeats rows and columns of the symbol,
        # which leaves the Schur multiplier norm unchanged
        assert b.upper == pytest.approx(distinct.upper, rel=1e-8)
        assert b.width <= 1e-9 * b.upper
        assert b.upper <= mu.norm + 1e-9

    def test_regular_representation_takes_the_gauge_descent(self):
        g = make_cyclic_product([6])
        rng = np.random.default_rng(18)
        mu = Measure(g, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        b = haagerup_norm_bounds(gamma(regular_rep(g), mu).op, restarts=1)
        assert b.iterations > 0
        assert not all(_is_diagonal(a) and _is_diagonal(c) for a, c in b.certificate_terms)

    def test_certificate_that_misses_the_symbol_raises(self, monkeypatch):
        solve = hnorm._schur_sdp

        def perturbed(s, cap):
            chol, witness, iterations, trace = solve(s, cap)
            return chol * (1 + 1e-6), witness, iterations, trace

        monkeypatch.setattr(hnorm, "_schur_sdp", perturbed)
        with pytest.raises(NumericalError):
            haagerup_norm_bounds(schur_op(_random_symbol(3, np.random.default_rng(19))))

    def test_crossed_bracket_raises(self, monkeypatch):
        # a lower end that overshoots the certified upper end is an error,
        # not something to clamp away
        monkeypatch.setattr(hnorm, "apply", lambda t, x: 2 * elementary.apply(t, x))
        with pytest.raises(NumericalError):
            haagerup_norm_bounds(schur_op(_random_symbol(3, np.random.default_rng(20))))


class TestAscent:
    def test_ascent_reaches_the_cap_in_one_restart(self):
        # case 84 of the seed-0 norm-interval suite: an ascent that converges
        # slowly, which once stopped 1.6e-9 below the exact value
        rng = make_rng(0, stream=7)
        for _ in range(85):
            d = int(rng.integers(1, 7))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            seed = int(rng.integers(2**63))
        b = haagerup_norm_bounds(ElementaryOperator.from_terms(d, [(a, c)]), restarts=1, seed=seed)
        assert b.lower >= b.upper * (1 - 1e-12)
        assert b.upper == pytest.approx(np.linalg.norm(a, 2) * np.linalg.norm(c, 2), rel=1e-12)
