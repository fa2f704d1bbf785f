"""Completely bounded norm bracketing by gauge descent and probe ascent."""

import numpy as np
import pytest

from ehtp.elementary import ElementaryOperator, apply, conjugation_op, transfer_matrix
from ehtp.hnorm import haagerup_norm_bounds, prune_terms
from ehtp.groups import make_cyclic_product
from ehtp.measures import Measure, dirac
from ehtp.gamma import gamma
from ehtp.representations import regular_rep


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
