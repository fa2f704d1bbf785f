"""Completely bounded norm brackets: the completely positive fast path, Newton
on the state weights of Schur multipliers and the factorization SDP, checked
on Schur multipliers, regular representations and random maps against
independent oracles, the SDP being the oracle of the weights."""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehtp import elementary, hnorm
from ehtp.elementary import (
    ElementaryOperator,
    apply,
    conjugate_by,
    schur_op,
    transfer_matrix,
)
from ehtp.errors import TOL, NumericalError
from ehtp.hnorm import haagerup_norm_bounds, prune_terms
from ehtp.groups import Character, dual_group, from_cayley, make_cyclic_product
from ehtp.measures import Measure, dirac, fourier_symbol
from ehtp.gamma import gamma
from ehtp.representations import character_rep, regular_rep
from ehtp.suites import (NORM_REL_WIDTH, SHAPE_POOL_12, _pick_group, contractivity_suite, make_rng,
                         norm_interval_suite, random_character_rep, random_measure, s3_cayley)


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
        u = _random_unitary(4, rng)
        b = haagerup_norm_bounds(ElementaryOperator.from_terms(4, [(u, u.conj().T)]))
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
        b = haagerup_norm_bounds(gamma(pi, mu).op)
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
            b = haagerup_norm_bounds(t)
            assert b.lower <= b.upper + 1e-12

    def test_trace_is_monotone_non_increasing(self):
        rng = np.random.default_rng(5)
        t = _random_op(4, 3, rng)
        b = haagerup_norm_bounds(t)
        trace = b.upper_trace
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))
        assert trace[-1] == pytest.approx(b.upper)

    def test_upper_bounded_by_measure_norm(self):
        g = make_cyclic_product([3, 2])
        pi = regular_rep(g)
        rng = np.random.default_rng(6)
        for _ in range(10):
            mu = Measure(g, rng.standard_normal(6) + 1j * rng.standard_normal(6))
            b = haagerup_norm_bounds(gamma(pi, mu).op)
            assert b.upper <= mu.norm + 1e-9

    def test_lower_bound_is_achieved_by_a_probe(self):
        # the point mass difference has cb norm 2, and the lower end attains it
        g = make_cyclic_product([4])
        pi = regular_rep(g)
        mu = dirac(g, 1) - dirac(g, 0)
        b = haagerup_norm_bounds(gamma(pi, mu).op)
        assert b.lower == pytest.approx(2.0, abs=1e-7)
        assert b.upper == pytest.approx(2.0, abs=1e-9)

    def test_report_wire_form(self):
        b = haagerup_norm_bounds(ElementaryOperator.from_terms(2, [(np.eye(2), np.eye(2))]))
        rep = b.report()
        assert set(rep) == {"lower", "upper", "iters"}
        assert isinstance(rep["iters"], int)

    def test_empty_operator_is_the_zero_map(self):
        # the zero measure realizes a map with no terms: completely positive,
        # with the empty Kraus family and cb norm exactly 0
        b = haagerup_norm_bounds(ElementaryOperator.from_terms(2, []))
        assert (b.lower, b.upper, b.certificate_terms, b.iterations, b.upper_trace) == (0.0, 0.0, (), 0, (0.0,))
        assert b.path == "cp"


class TestCertificates:
    def test_certificate_preserves_the_map(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            d = int(rng.integers(2, 5))
            t = _random_op(d, int(rng.integers(1, 4)), rng)
            b = haagerup_norm_bounds(t)
            cert = ElementaryOperator.from_terms(d, b.certificate_terms)
            gap = np.linalg.norm(transfer_matrix(cert) - transfer_matrix(t))
            assert gap <= 1e-8 * max(1.0, np.linalg.norm(transfer_matrix(t)))

    def test_cp_certificate_is_a_kraus_rewriting_of_the_map(self):
        rng = np.random.default_rng(9)
        g = make_cyclic_product([6])
        pi = regular_rep(g)
        for _ in range(4):
            t = gamma(pi, Measure(g, rng.random(6))).op
            b = haagerup_norm_bounds(t)
            assert b.path == "cp" and b.iterations == 0 and b.lower == b.upper
            cert = ElementaryOperator.from_terms(6, b.certificate_terms)
            assert all(np.array_equal(r, k.conj().T) for k, r in b.certificate_terms)
            gap = np.abs(transfer_matrix(cert) - transfer_matrix(t)).max()
            assert gap <= 1e-9 * max(1.0, b.upper)

    def test_certificate_value_matches_upper_for_gauged_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            d = int(rng.integers(2, 5))
            t = _random_op(d, int(rng.integers(2, 4)), rng)
            b = haagerup_norm_bounds(t)
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
    # to rounding: pruning mixes the terms through SVD factors
    return np.abs(m[~np.eye(m.shape[0], dtype=bool)]).max(initial=0.0) <= 1e-12 * np.abs(m).max()


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
            generic = haagerup_norm_bounds(rotated)
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

    def test_certificate_terms_are_diagonal_and_rebuild_the_symbol(self):
        rng = np.random.default_rng(14)
        s = _random_symbol(5, rng)
        b = haagerup_norm_bounds(schur_op(s))
        assert all(_is_diagonal(a) and _is_diagonal(c) for a, c in b.certificate_terms)
        rebuilt = sum(np.outer(np.diag(a), np.diag(c)) for a, c in b.certificate_terms)
        assert np.abs(rebuilt - s).max() <= 1e-9 * np.abs(s).max()
        assert _factorization_value(b.certificate_terms) == pytest.approx(b.upper, rel=1e-12)

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

    def test_regular_representations_close_at_the_starting_point(self, monkeypatch):
        # the maximally mixed states attain ||mu||_1, which the raw gauge
        # already gives, so neither the weights nor the solve run, and no
        # d^2 x d^2 Choi or transfer matrix is built
        calls, inner = [], elementary._vec_outer_sum

        def recorded(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(elementary, "_vec_outer_sum", recorded)
        rng = np.random.default_rng(18)
        groups = [make_cyclic_product([n]) for n in range(4, 17)]
        groups += [make_cyclic_product([2, 6]), make_cyclic_product([8, 8]), from_cayley(s3_cayley())]
        for g in groups:
            mu = Measure(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
            op = gamma(regular_rep(g), mu).op
            calls.clear()
            b = haagerup_norm_bounds(op)
            assert calls == []
            assert b.path == "start" and b.iterations == 0
            assert b.lower == pytest.approx(mu.norm, rel=1e-12)
            assert b.upper == pytest.approx(mu.norm, rel=1e-12)

    def test_certificate_that_misses_the_symbol_raises(self, monkeypatch, ipm_only):
        solve = hnorm._factorization_sdp

        def perturbed(*args):
            cert_left, cert_right, witness, iterations, trace = solve(*args)
            return cert_left * (1 + 1e-6), cert_right, witness, iterations, trace

        monkeypatch.setattr(hnorm, "_factorization_sdp", perturbed)
        for t in _one_map_per_block_size(np.random.default_rng(19)):
            with pytest.raises(NumericalError):
                haagerup_norm_bounds(t)

    def test_crossed_bracket_raises(self, monkeypatch, ipm_only):
        # a lower end that overshoots the certified upper end is an error,
        # not something to clamp away
        solve = hnorm._factorization_sdp

        def inflated(*args):
            cert_left, cert_right, (xa, xb, root), iterations, trace = solve(*args)
            return cert_left, cert_right, (2 * xa, xb, root), iterations, trace

        monkeypatch.setattr(hnorm, "_factorization_sdp", inflated)
        for t in _one_map_per_block_size(np.random.default_rng(20)):
            with pytest.raises(NumericalError):
                haagerup_norm_bounds(t)


def _one_map_per_block_size(rng):
    """A Schur multiplier, which takes the block size b = 1, and the same map
    conjugated by a unitary, which takes b = d."""
    t = schur_op(_random_symbol(3, rng))
    return [t, conjugate_by(t, _random_unitary(3, rng))]


@contextlib.contextmanager
def _weights_declined():
    """Decline the weight path, so that a diagonal map the start point
    leaves open goes to the interior-point solve."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hnorm, "_weight_ascent", lambda s: None)
        yield


@pytest.fixture
def ipm_only():
    with _weights_declined():
        yield


@pytest.fixture
def newton_calls(monkeypatch):
    """The block sizes, ``"b=1"`` or ``"b=d"``, of the Newton assemblies that
    ran, one per iteration."""
    calls, inner = [], hnorm._Form.newton

    def recorded(self, x, g):
        calls.append("b=1" if self.b == 1 else "b=d")
        return inner(self, x, g)

    monkeypatch.setattr(hnorm._Form, "newton", recorded)
    return calls


def _with_full_blocks(t, monkeypatch):
    """The bracket of t with the block size b = d forced on the pruned terms."""
    solve = hnorm._factorization_sdp
    with monkeypatch.context() as m:
        m.setattr(hnorm, "_factorization_sdp",
                  lambda left, right, cap, b, start: solve(left, right, cap, left.shape[1], start))
        return haagerup_norm_bounds(t)


def _contractivity_generic_ops(count, seed=0):
    """The maps of the first generic draws of the contractivity suite."""
    rng = make_rng(seed, stream=2)
    for _ in range(count):
        group = _pick_group(rng, SHAPE_POOL_12)
        pi = random_character_rep(group, rng, max_dim=6)
        yield gamma(pi, random_measure(group, rng)).op


def _norm_interval_case(case):
    """The single term ``(a, c)`` of one case of the seed-0 norm-interval suite."""
    rng = make_rng(0, stream=7)
    for _ in range(case + 1):
        d = int(rng.integers(1, 7))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a, c


class TestSuiteReplicas:
    # the helpers above replay the suites' draws; a draw added to or dropped
    # from a suite moves every later case, and these catch that
    def test_contractivity_maps_reproduce_the_suite_records(self):
        records = list(itertools.islice(contractivity_suite(seed=0), 25))
        assert [rec["case"] for rec in records] == [f"generic-{i:03d}" for i in range(25)]
        uppers = [haagerup_norm_bounds(t).upper for t in _contractivity_generic_ops(25)]
        assert uppers == [rec["upper"] for rec in records]

    def test_ascent_map_is_norm_interval_case_84(self):
        record = next(itertools.islice(norm_interval_suite(seed=0), 84, None))
        a, c = _norm_interval_case(84)
        assert record["case"] == "single-term-084"
        assert a.shape[0] == record["dim"]
        assert np.linalg.norm(a, 2) * np.linalg.norm(c, 2) == record["target"]


def _character_image(rng, n, d):
    g = make_cyclic_product([n])
    chars = [Character((n,), (int(k),)) for k in rng.choice(n, size=d, replace=False)]
    return gamma(character_rep(g, chars), Measure(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))).op


@pytest.mark.usefixtures("ipm_only")
class TestDiagonalForm:
    # the diagonal form is the block size b = 1, with b = d on the same
    # diagonal maps as its oracle
    def test_both_forms_give_the_same_bracket(self, monkeypatch, newton_calls):
        rng = np.random.default_rng(23)
        ops = list(_contractivity_generic_ops(25))
        ops += [schur_op(_random_symbol(d, rng)) for d in range(1, 9)]
        g = make_cyclic_product([6])
        mu = Measure(g, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        ops.append(gamma(character_rep(g, [Character((6,), (k,)) for k in (1, 4, 1, 4, 2)]), mu).op)
        for d in (2, 3, 6):
            u, v = _random_symbol(d, rng)[:2]
            ops.append(schur_op(np.outer(u, v.conj())))
        iterated = 0
        for t in ops:
            assert hnorm._block_size(t) == 1
            diagonal = haagerup_norm_bounds(t)
            factorization = _with_full_blocks(t, monkeypatch)
            scale = max(diagonal.upper, factorization.upper)
            assert abs(diagonal.upper - factorization.upper) <= 1e-10 * scale
            assert abs(diagonal.lower - factorization.lower) <= 1e-10 * scale
            iterated += diagonal.iterations > 0 and factorization.iterations > 0
        assert iterated >= 25
        assert {"b=1", "b=d"} <= set(newton_calls)

    def test_pruned_character_images_are_exactly_diagonal(self):
        rng = np.random.default_rng(24)
        off = ~np.eye(6, dtype=bool)
        for _ in range(10):
            pruned = prune_terms(_character_image(rng, 12, 6))
            assert 0 < pruned.n_terms <= 6
            assert not pruned.left[:, off].any() and not pruned.right[:, off].any()

    def test_schur_multipliers_take_the_diagonal_form(self, newton_calls):
        rng = np.random.default_rng(25)
        for t in (_character_image(rng, 12, 5), schur_op(_random_symbol(4, rng))):
            newton_calls.clear()
            assert haagerup_norm_bounds(t).iterations > 0
            assert set(newton_calls) == {"b=1"}

    def test_one_off_diagonal_entry_takes_the_factorization_form(self, newton_calls):
        rng = np.random.default_rng(26)
        for t in (_character_image(rng, 12, 5), schur_op(_random_symbol(4, rng))):
            left = t.left.copy()
            left[0, 0, 1] = 0.5
            newton_calls.clear()
            assert haagerup_norm_bounds(ElementaryOperator(t.dim, left, t.right)).iterations > 0
            assert set(newton_calls) == {"b=d"}


def _w_part_oracle(xw, gw):
    """The W part of the complex Newton matrix as one 6-D broadcast: entry
    ``[(s,a,b),(u,c,e)]`` is ``X[(s,a),(u,c)] G[(u,e),(s,b)]``, symmetrized."""
    r = xw.shape[0] // 2
    w = xw.reshape(2, r, 2, r)[:, :, None, :, :, None] * gw.T.reshape(2, r, 2, r)[:, None, :, :, None, :]
    return ((w + np.conj(w.transpose(0, 2, 1, 3, 5, 4))) / 2).reshape(2 * r * r, 2 * r * r)


def _random_hermitian_pd(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + np.eye(n)


def _random_iterate(form, rng):
    """X (or G) for the form: states in blocks of its size b and W, as the
    iteration keeps them."""
    d, r, b = form.d, form.r, form.b
    states = np.stack([_random_hermitian_pd(b, rng) for _ in range(2 * d // b)])
    return [states.reshape(2, d // b, b, b), _random_hermitian_pd(2 * r, rng)]


def _w_block(form, x):
    return x[1]


def _newton_oracle(form, x, g):
    """The real Newton matrix ``Re M + Im M[:, t]``: the state part column by
    column from ``E -> A(sym(X A*(E) G))`` with the W blocks of X and G set to
    zero, plus the W part from ``_w_part_oracle``."""
    r = form.r
    t = hnorm._transposition(r)
    states = [[b.copy() for b in blocks] for blocks in (x, g)]
    for blocks in states:
        _w_block(form, blocks)[...] = 0
    m = np.zeros((len(t), len(t)))
    for j in range(len(t)):
        k = np.eye(len(t))[j]
        z = form.adjoint(((1 + 1j) * k + (1 - 1j) * k[t]) / 2)
        h = form.values([hnorm._sym_product(*blocks) for blocks in zip(states[0], z, states[1])])
        m[:, j] = h.real + h.imag
    w = np.zeros((len(t), len(t)), dtype=np.complex128)
    w[1:, 1:] = _w_part_oracle(_w_block(form, x), _w_block(form, g))
    return m + w.real + w[:, t].imag


class TestNewtonAssembly:
    # b = 1 on diagonal families and b = d on dense ones, at d = 4; r = 16 =
    # d^2 is the regime of a generic map, r > d.  The ids keep the names
    # under which the cases have been reported.
    @pytest.mark.parametrize("r, full", [pytest.param(r, full, id=f"{r}-{'_Factorization' if full else '_Diagonal'}")
                                         for r in range(1, 7) for full in (False, True)]
                             + [pytest.param(16, True, id="16-_Factorization")])
    def test_real_newton_matrix_matches_the_broadcast_oracle(self, r, full):
        rng = np.random.default_rng(30 + r)
        d = 4
        fam = rng.standard_normal((2, r, d, d)) + 1j * rng.standard_normal((2, r, d, d))
        form = hnorm._Form(fam, d) if full else hnorm._Form(fam * np.eye(d), 1)
        x, g = _random_iterate(form, rng), _random_iterate(form, rng)
        expected = _newton_oracle(form, x, g)
        assert np.abs(form.newton(x, g) - expected).max() <= 1e-13 * np.abs(expected).max()


def _random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def _padded(states, w):
    """The states and W as one zero-padded block ``diag(rho, sigma, W)``."""
    d = states.shape[1]
    out = np.zeros((2 * d + len(w),) * 2, dtype=np.complex128)
    out[:d, :d], out[d:2 * d, d:2 * d], out[2 * d:, 2 * d:] = states[0], states[1], w
    return out


class TestBatchedCone:
    # the cone helpers on [stack of the two d x d states, W] against the same
    # helpers on the one zero-padded block of size 2d + 2r
    @staticmethod
    def _close(split, padded):
        assert np.abs(split - padded).max() <= 1e-13 * np.abs(padded).max()

    @pytest.mark.parametrize("d", range(1, 5))
    @pytest.mark.parametrize("r", range(1, 4))
    def test_stack_and_w_agree_with_the_padded_block(self, d, r):
        rng = np.random.default_rng(40 + 4 * r + d)

        def blocks(make):
            split = [np.stack([make(d, rng), make(d, rng)]), make(2 * r, rng)]
            return split, [_padded(*split)]

        (x, xp), (z, zp) = blocks(_random_hermitian_pd), blocks(_random_hermitian_pd)
        (dx, dxp), (dz, dzp) = blocks(_random_hermitian), blocks(_random_hermitian)
        frames, g = hnorm._barrier(x, z)
        frames_p, g_p = hnorm._barrier(xp, zp)
        for k in range(2):
            self._close(_padded(frames[0][k], frames[1][k]), frames_p[0][k])
        self._close(_padded(*g), g_p[0])
        steps, steps_p = hnorm._max_steps(frames, dx, dz), hnorm._max_steps(frames_p, dxp, dzp)
        assert np.isfinite(steps_p).all()
        self._close(steps, steps_p)
        product = [hnorm._sym_product(a, b, c) for a, b, c in zip(x, dz, g)]
        self._close(_padded(*product), hnorm._sym_product(xp[0], dzp[0], g_p[0]))


def _ones_stack(v):
    return v.reshape(-1, 1, 1)


def _ratio_test(x, dx):
    """The orthant's largest step: ``min(-x / dx)`` over the entries with ``dx < 0``."""
    return np.min(-x[dx < 0] / dx[dx < 0], initial=np.inf)


class TestOneCone:
    # every block is a stack of PSD blocks: the orthant is a stack of 1 x 1
    # blocks, with the LP formulas as the oracle, and |phi| <= 1 a stack of
    # 2 x 2 blocks [[1, phi], [conj phi, 1]]
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_a_stack_of_one_by_one_blocks_is_the_orthant(self, n):
        rng = np.random.default_rng(50 + n)
        x, z = rng.random(n) + 0.1, rng.random(n) + 0.1
        frames, g = hnorm._barrier([_ones_stack(x)], [_ones_stack(z)])
        assert np.abs(g[0].ravel() - 1 / z).max() <= 1e-13 * (1 / z).max()
        for dx, dz in [(rng.standard_normal(n), rng.standard_normal(n)),
                       (rng.random(n), -rng.random(n)), (-rng.random(n), rng.random(n))]:
            steps = hnorm._max_steps(frames, [_ones_stack(dx)], [_ones_stack(dz)])
            for step, expected in zip(steps, [_ratio_test(x, dx), _ratio_test(z, dz)]):
                assert step == expected if np.isinf(expected) else abs(step - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("value", [0.0, -1e-3])
    def test_a_non_positive_one_by_one_block_stops_the_barrier(self, value):
        x = _ones_stack(np.array([1.0, value, 2.0]))
        with pytest.raises(np.linalg.LinAlgError):
            hnorm._barrier([x], [_ones_stack(np.ones(3))])
        with pytest.raises(np.linalg.LinAlgError):
            hnorm._barrier([_ones_stack(np.ones(3))], [x])

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_a_stack_of_two_by_two_blocks_is_the_unit_disc(self, n):
        rng = np.random.default_rng(60 + n)
        phi = rng.uniform(0, 0.9, n) * np.exp(2j * np.pi * rng.random(n))
        delta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        disc = np.ones((n, 2, 2), dtype=np.complex128)
        disc[:, 0, 1], disc[:, 1, 0] = phi, phi.conj()
        step = np.zeros_like(disc)
        step[:, 0, 1], step[:, 1, 0] = delta, delta.conj()
        frames, _ = hnorm._barrier([disc], [disc])
        # the positive root of |phi + alpha delta|^2 = 1
        b, a, c = (phi.conj() * delta).real, np.abs(delta) ** 2, 1 - np.abs(phi) ** 2
        expected = np.min((np.sqrt(b ** 2 + a * c) - b) / a)
        steps = hnorm._max_steps(frames, [step], [step])
        assert np.abs(steps - expected).max() <= 1e-13 * expected


@pytest.mark.usefixtures("ipm_only")
class TestIterationCounts:
    def test_generic_contractivity_draws_close_in_few_iterations(self):
        # 276 iterations with cubic centering and a fixed step fraction 0.95
        total = 0
        for t in _contractivity_generic_ops(25):
            b = haagerup_norm_bounds(t)
            total += b.iterations
            # the certified gap, not a failed factorization, stopped the solve
            assert b.width <= 1e-12 * b.upper
        assert total <= 230

    def test_character_image_at_d16_closes_within_16_iterations(self):
        # 20 to 23 iterations with cubic centering and a fixed step fraction 0.95
        b = haagerup_norm_bounds(_character_image(np.random.default_rng(3), 97, 16))
        assert b.width <= 1e-12 * b.upper
        assert b.iterations <= 16

    def test_a_singular_newton_matrix_does_not_stop_the_solve(self, monkeypatch):
        # near the optimum LU can meet an exactly zero pivot; here every Newton
        # solve after the third iteration does, and the bracket must still close
        solve, calls = np.linalg.solve, []

        def singular_late(a, b):
            calls.append(None)
            if len(calls) > 6:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_late)
        for t in _one_map_per_block_size(np.random.default_rng(27)):
            calls.clear()
            b = haagerup_norm_bounds(t)
            assert len(calls) > 6
            assert b.width <= 1e-12 * b.upper


def _ascent_oracle(t, rng, restarts=4, steps=200):
    """Alternating ascent of ``||(T (x) id_d)(X)||`` over unitaries X: the
    probing singular pair and the contraction are optimized in turn, each
    step exactly, so the value never decreases.  A lower bound on the cb norm
    that shares no code with the solver."""
    d = t.dim

    def amplified(left, right, x):
        out = np.einsum("nua,aibj,nbv->uivj", left, x.reshape(d, d, d, d), right, optimize=True)
        return out.reshape(d * d, d * d)

    best = 0.0
    for _ in range(restarts):
        u, _, vh = np.linalg.svd(rng.standard_normal((d * d, d * d))
                                 + 1j * rng.standard_normal((d * d, d * d)))
        x = u @ vh
        for _ in range(steps):
            mu, ms, mvh = np.linalg.svd(amplified(t.left, t.right, x))
            best = max(best, float(ms[0]))
            # the unitary maximizing Re <mu_0, (T (x) id)(X) mvh_0>
            ku, _, kvh = np.linalg.svd(amplified(t.right, t.left, np.outer(mvh[0].conj(), mu[:, 0].conj())))
            x = kvh.conj().T @ ku.conj().T
    return best


class TestGenericMaps:
    def test_lower_end_matches_an_alternating_ascent(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            t = _random_op(int(rng.integers(1, 4)), int(rng.integers(2, 4)), rng)
            b = haagerup_norm_bounds(t)
            ascent = _ascent_oracle(t, rng)
            assert ascent <= b.upper * (1 + 1e-12)
            assert b.lower >= ascent * (1 - 1e-9)

    @pytest.mark.parametrize("factor", [1e-12, 1e8])
    def test_bracket_scales_with_a_three_term_map(self, factor):
        t = _random_op(3, 3, np.random.default_rng(22))
        base = haagerup_norm_bounds(t)
        scaled = haagerup_norm_bounds(ElementaryOperator(3, factor * t.left, t.right))
        assert scaled.upper == pytest.approx(factor * base.upper, rel=1e-8)
        assert scaled.lower == pytest.approx(factor * base.lower, rel=1e-8)
        assert scaled.width <= 1e-9 * scaled.upper


class TestAscent:
    def test_ascent_reaches_the_cap_in_one_restart(self):
        # case 84 of the seed-0 norm-interval suite: an ascent that converges
        # slowly, which once stopped 1.6e-9 below the exact value
        a, c = _norm_interval_case(84)
        b = haagerup_norm_bounds(ElementaryOperator.from_terms(a.shape[0], [(a, c)]))
        assert b.lower >= b.upper * (1 - 1e-12)
        assert b.upper == pytest.approx(np.linalg.norm(a, 2) * np.linalg.norm(c, 2), rel=1e-12)


def _f_oracle(s, x):
    """``||D_a S D_b||_1`` at ``x = (a, b)``, from the singular values alone."""
    d = s.shape[0]
    return np.linalg.svd(x[:d, None] * s * x[d:], compute_uv=False).sum()


def _derivatives(s, x):
    """The weight path's gradient and Hessian at ``x = (a, b)``."""
    d = s.shape[0]
    a, b = x[:d], x[d:]
    return hnorm._weight_derivatives(s, a, b, hnorm._weight_factors(s, a, b))


def _overlap(brackets):
    """Every pair of brackets meets, and each is at most ``NORM_REL_WIDTH`` wide."""
    assert max(b.lower for b in brackets) <= min(b.upper for b in brackets) * (1 + 1e-12)
    assert all(b.width <= NORM_REL_WIDTH * b.upper for b in brackets)


def _ipm_bracket(t):
    with _weights_declined():
        return haagerup_norm_bounds(t)


def _scenario_batch_maps():
    """The six diagonal maps of the benchmark's scenario batch: three measures
    on six characters of Z_120 for each of its two Z_120 scenarios, before
    the relabelling each seed applies, which keeps the terms."""
    g = make_cyclic_product([120])
    for base in (1, 3):
        gen = np.random.default_rng(base)
        pi = character_rep(g, [Character((120,), (int(k),)) for k in gen.choice(120, size=6, replace=False)])
        for _ in range(3):
            yield gamma(pi, Measure(g, gen.standard_normal(120) + 1j * gen.standard_normal(120))).op


def _low_rank_symbol(d, rank, rng):
    """A random complex symbol of the given rank, with its first two rows equal."""
    s = _random_symbol(d, rng)[:, :rank] @ _random_symbol(d, rng)[:rank]
    s[1] = s[0]
    return s


class TestWeightPath:
    # Newton on the state weights closes the diagonal brackets whose optimal
    # weights are interior; the interior-point solve is its oracle
    @pytest.mark.parametrize("rank", [5, 2])
    def test_derivatives_match_central_differences(self, rank):
        rng = np.random.default_rng(70 + rank)
        s = _low_rank_symbol(5, rank, rng) if rank < 5 else _random_symbol(5, rng)
        x = rng.uniform(0.5, 1.5, 10)
        grad, hess = _derivatives(s, x)
        h, eye = 1e-5, np.eye(10)
        fd_grad = [(_f_oracle(s, x + h * e) - _f_oracle(s, x - h * e)) / (2 * h) for e in eye]
        fd_hess = np.array([(_derivatives(s, x + h * e)[0] - _derivatives(s, x - h * e)[0]) / (2 * h) for e in eye])
        assert np.abs(grad - fd_grad).max() <= 1e-8 * np.abs(grad).max()
        assert np.abs(hess - fd_hess).max() <= 1e-6 * np.abs(hess).max()

    @pytest.mark.parametrize("seed, closed", [(0, 50), (1, 50)])
    def test_contractivity_brackets_agree_with_the_solve(self, seed, closed):
        # the weights close at least `closed` of the brackets that the start
        # point leaves to the solve: those whose optimal weights are interior
        taken = reached = 0
        for t in _contractivity_generic_ops(100, seed):
            b = haagerup_norm_bounds(t)
            if b.path == "weights":
                ipm = _ipm_bracket(t)
                _overlap([b, ipm])
                reached += ipm.iterations > 0
                taken += ipm.iterations > 0
            else:
                reached += b.path == "ipm" and b.iterations > 0
        assert taken >= closed and reached > taken

    @pytest.mark.parametrize("maps", ["scenario-batch", "z97-d16"])
    def test_every_map_closes_on_the_weights_and_agrees_with_the_solve(self, maps):
        ops = (list(_scenario_batch_maps()) if maps == "scenario-batch"
               else [_character_image(np.random.default_rng(seed), 97, 16) for seed in (3, 4, 5)])
        for t in ops:
            b = haagerup_norm_bounds(t)
            assert b.path == "weights" and 0 < b.iterations <= 10
            _overlap([b, _ipm_bracket(t)])

    @pytest.mark.parametrize("case", ["z97-d32", "schur-d32"])
    def test_north_star_sizes_close_within_ten_steps(self, case):
        rng = np.random.default_rng(3)
        t = _character_image(rng, 97, 32) if case == "z97-d32" else schur_op(_random_symbol(32, rng))
        b = haagerup_norm_bounds(t)
        assert b.path == "weights" and b.iterations <= 10
        assert b.width <= 1e-12 * b.upper

    def test_a_zero_weight_optimum_goes_to_the_solve(self):
        # a rank-one symbol u v* attains max|u| max|v| on a single pair of
        # weights, where f is not smooth: the ascent declines
        rng = np.random.default_rng(71)
        u, v = _random_symbol(4, rng)[:2]
        s = np.outer(u, v.conj())
        assert hnorm._weight_ascent(s) is None
        b = haagerup_norm_bounds(schur_op(s))
        assert b.path == "ipm" and b.width <= 1e-12 * b.upper

    def test_the_trace_is_a_running_minimum_from_the_raw_gauge(self):
        t = _character_image(np.random.default_rng(3), 97, 16)
        b = haagerup_norm_bounds(t)
        trace = np.array(b.upper_trace)
        assert b.path == "weights" and len(trace) == b.iterations + 2
        assert np.array_equal(trace, np.minimum.accumulate(trace))
        assert trace[-1] == pytest.approx(b.upper, rel=1e-12)

    def test_a_certificate_that_misses_goes_to_the_solve(self, monkeypatch):
        ascent, solve = hnorm._weight_ascent, hnorm._factorization_sdp

        def missing(s):
            a, b, (u, sig, v), steps, uppers = ascent(s)
            return a, b, (u, sig * (1 + 1e-6), v), steps, uppers

        t = schur_op(_random_symbol(5, np.random.default_rng(72)))
        assert haagerup_norm_bounds(t).path == "weights"
        monkeypatch.setattr(hnorm, "_weight_ascent", missing)
        b = haagerup_norm_bounds(t)
        assert b.path == "ipm" and b.width <= 1e-12 * b.upper
        # and when the solve's certificate misses too, the bracket raises
        monkeypatch.setattr(hnorm, "_factorization_sdp",
                            lambda *args: (solve(*args)[0] * (1 + 1e-6), *solve(*args)[1:]))
        with pytest.raises(NumericalError):
            haagerup_norm_bounds(t)

    def test_a_crossed_bracket_raises(self, monkeypatch):
        lower_end = hnorm._lower_end
        t = schur_op(_random_symbol(5, np.random.default_rng(73)))
        assert haagerup_norm_bounds(t).path == "weights"
        monkeypatch.setattr(hnorm, "_lower_end", lambda *args: 2 * lower_end(*args))
        with pytest.raises(NumericalError):
            haagerup_norm_bounds(t)


def _certified(t, b):
    """The certificate rebuilds the map, as ``haagerup_norm_bounds`` gates it,
    and the bracket is not crossed."""
    cert = ElementaryOperator.from_terms(t.dim, b.certificate_terms)
    assert elementary.choi_distance(cert, t) <= TOL * b.upper
    assert b.lower <= b.upper


class TestFallbacks:
    # every way a solver stops early still returns a certified bracket
    @pytest.mark.parametrize("setting, value", [("_WEIGHT_ITERS", 1), ("_WEIGHT_HALVINGS", 0)],
                             ids=["step-cap", "no-halving-keeps-f"])
    def test_a_declined_ascent_leaves_the_bracket_to_the_solve(self, monkeypatch, setting, value):
        t = schur_op(_random_symbol(5, np.random.default_rng(74)))
        b = haagerup_norm_bounds(t)
        assert b.path == "weights" and b.iterations > 1
        monkeypatch.setattr(hnorm, setting, value)
        assert hnorm._weight_ascent(elementary.schur_symbol(t)) is None
        b = haagerup_norm_bounds(t)
        assert b.path == "ipm" and b.width <= 1e-12 * b.upper
        _certified(t, b)

    @pytest.mark.parametrize("stage", ["barrier", "newton"])
    def test_a_failed_factorization_stops_the_solve_certified(self, monkeypatch, stage):
        # a LinAlgError in the barrier's Cholesky factors or in the Newton
        # step ends the solve at the best iterate so far
        t = conjugate_by(schur_op(_random_symbol(4, np.random.default_rng(75))),
                         _random_unitary(4, np.random.default_rng(76)))
        assert haagerup_norm_bounds(t).iterations > 3
        owner, name = (hnorm, "_barrier") if stage == "barrier" else (hnorm._Form, "newton")
        real, calls = getattr(owner, name), []

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return real(*args)

        monkeypatch.setattr(owner, name, failing)
        b = haagerup_norm_bounds(t)
        assert len(calls) == 3 and b.path == "ipm" and 0 < b.iterations <= 3
        _certified(t, b)


@st.composite
def _symbols(draw):
    """A complex symbol with d <= 6, of full or lower rank, some of its rows
    copies of its first, and the generator its entries came from."""
    d = draw(st.integers(1, 6))
    rank = draw(st.integers(1, d))
    copies = draw(st.integers(0, d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = _random_symbol(d, rng)[:, :rank] @ _random_symbol(d, rng)[:rank]
    s[1:1 + copies] = s[0]
    return s, rng


class TestSymmetries:
    # the cb norm of a Schur multiplier is unchanged by transposing,
    # conjugating, permuting rows and columns and scaling them by unimodular
    # numbers; so the brackets of the images of one symbol must meet
    @pytest.mark.parametrize("weights", [True, False], ids=["weights", "ipm-only"])
    @settings(max_examples=10)
    @given(_symbols())
    def test_the_brackets_of_equivalent_symbols_meet(self, weights, drawn):
        s, rng = drawn
        d = s.shape[0]
        p, q = rng.permutation(d), rng.permutation(d)
        u, v = np.exp(2j * np.pi * rng.random(d)), np.exp(2j * np.pi * rng.random(d))
        images = [s, s.T, s.conj(), s[p][:, q], u[:, None] * s * v]
        with contextlib.nullcontext() if weights else _weights_declined():
            _overlap([haagerup_norm_bounds(schur_op(x)) for x in images])

    @settings(max_examples=10)
    @given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 9), st.integers(0, 2 ** 32 - 1))
    def test_a_terms_factors_rescaled_by_s_and_1_over_s(self, d, n, k, seed):
        # (s a) x (b / s) is the term a x b: pruning compared the unbalanced
        # left family and kept one of two terms at s = 1e7
        rng = np.random.default_rng(seed)
        t = _random_op(d, n, rng)
        scale = 10.0 ** (k * (-1) ** np.arange(n))
        scaled = ElementaryOperator(d, t.left * scale[:, None, None], t.right / scale[:, None, None])
        assert prune_terms(scaled).n_terms == prune_terms(t).n_terms == n
        base, moved = haagerup_norm_bounds(t), haagerup_norm_bounds(scaled)
        _overlap([base, moved])
        assert moved.upper == pytest.approx(base.upper, rel=1e-12)
        assert moved.lower == pytest.approx(base.lower, rel=1e-12)
