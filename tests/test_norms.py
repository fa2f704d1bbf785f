"""Completely bounded norm brackets: the completely positive fast path and
the factorization SDP, checked on Schur multipliers, regular representations
and random maps against independent oracles."""

import itertools

import numpy as np
import pytest

from ehtp import elementary, hnorm
from ehtp.elementary import (
    ElementaryOperator,
    apply,
    conjugate_by,
    schur_op,
    transfer_matrix,
)
from ehtp.errors import NumericalError
from ehtp.hnorm import haagerup_norm_bounds, prune_terms
from ehtp.groups import Character, dual_group, from_cayley, make_cyclic_product
from ehtp.measures import Measure, dirac, fourier_symbol
from ehtp.gamma import gamma
from ehtp.representations import character_rep, regular_rep
from ehtp.suites import (SHAPE_POOL_12, _pick_group, contractivity_suite, make_rng, norm_interval_suite,
                         random_character_rep, random_measure, s3_cayley)


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

    def test_empty_operator_rejected(self):
        with pytest.raises(ValueError):
            haagerup_norm_bounds(ElementaryOperator.from_terms(2, []))


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
        # already gives, so the terms are not pruned, no solve is set up and
        # no d^2 x d^2 Choi or transfer matrix is built
        calls = []
        for module, name in ((hnorm, "prune_terms"), (hnorm, "_factorization_sdp"),
                             (elementary, "_vec_outer_sum")):
            def recorded(*args, _inner=getattr(module, name), _name=name):
                calls.append(_name)
                return _inner(*args)
            monkeypatch.setattr(module, name, recorded)
        rng = np.random.default_rng(18)
        groups = [make_cyclic_product([n]) for n in range(4, 17)]
        groups += [make_cyclic_product([2, 6]), make_cyclic_product([8, 8]), from_cayley(s3_cayley())]
        for g in groups:
            mu = Measure(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
            op = gamma(regular_rep(g), mu).op
            calls.clear()
            b = haagerup_norm_bounds(op)
            assert calls == []
            assert b.iterations == 0
            assert b.lower == pytest.approx(mu.norm, rel=1e-12)
            assert b.upper == pytest.approx(mu.norm, rel=1e-12)

    def test_certificate_that_misses_the_symbol_raises(self, monkeypatch):
        solve = hnorm._factorization_sdp

        def perturbed(*args):
            cert_left, cert_right, witness, iterations, trace = solve(*args)
            return cert_left * (1 + 1e-6), cert_right, witness, iterations, trace

        monkeypatch.setattr(hnorm, "_factorization_sdp", perturbed)
        for t in _one_map_per_form(np.random.default_rng(19)):
            with pytest.raises(NumericalError):
                haagerup_norm_bounds(t)

    def test_crossed_bracket_raises(self, monkeypatch):
        # a lower end that overshoots the certified upper end is an error,
        # not something to clamp away
        solve = hnorm._factorization_sdp

        def inflated(*args):
            cert_left, cert_right, (xa, xb, root), iterations, trace = solve(*args)
            return cert_left, cert_right, (2 * xa, xb, root), iterations, trace

        monkeypatch.setattr(hnorm, "_factorization_sdp", inflated)
        for t in _one_map_per_form(np.random.default_rng(20)):
            with pytest.raises(NumericalError):
                haagerup_norm_bounds(t)


def _one_map_per_form(rng):
    """A Schur multiplier, which takes the diagonal form, and the same map
    conjugated by a unitary, which takes the factorization form."""
    t = schur_op(_random_symbol(3, rng))
    return [t, conjugate_by(t, _random_unitary(3, rng))]


@pytest.fixture
def newton_calls(monkeypatch):
    """The names of the forms whose Newton assembly ran, one per iteration."""
    calls = []
    for form in (hnorm._DiagonalForm, hnorm._FactorizationForm):
        def recorded(self, x, g, _inner=form.newton, _name=form.__name__):
            calls.append(_name)
            return _inner(self, x, g)
        monkeypatch.setattr(form, "newton", recorded)
    return calls


def _in_factorization_form(t, monkeypatch):
    """The bracket of t with the factorization form forced on the pruned terms."""
    solve = hnorm._factorization_sdp
    with monkeypatch.context() as m:
        m.setattr(hnorm, "_factorization_sdp",
                  lambda left, right, cap, form, start:
                  solve(left, right, cap, hnorm._FactorizationForm, start))
        return haagerup_norm_bounds(t)


def _contractivity_generic_ops(count):
    """The maps of the first generic draws of the seed-0 contractivity suite."""
    rng = make_rng(0, stream=2)
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


class TestDiagonalForm:
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
            assert hnorm._is_diagonal(t)
            diagonal = haagerup_norm_bounds(t)
            factorization = _in_factorization_form(t, monkeypatch)
            scale = max(diagonal.upper, factorization.upper)
            assert abs(diagonal.upper - factorization.upper) <= 1e-10 * scale
            assert abs(diagonal.lower - factorization.lower) <= 1e-10 * scale
            iterated += diagonal.iterations > 0 and factorization.iterations > 0
        assert iterated >= 25
        assert {"_DiagonalForm", "_FactorizationForm"} <= set(newton_calls)

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
            assert set(newton_calls) == {"_DiagonalForm"}

    def test_one_off_diagonal_entry_takes_the_factorization_form(self, newton_calls):
        rng = np.random.default_rng(26)
        for t in (_character_image(rng, 12, 5), schur_op(_random_symbol(4, rng))):
            left = t.left.copy()
            left[0, 0, 1] = 0.5
            newton_calls.clear()
            assert haagerup_norm_bounds(ElementaryOperator(t.dim, left, t.right)).iterations > 0
            assert set(newton_calls) == {"_FactorizationForm"}


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
    """X (or G) for the form: states and W, as the iteration keeps them."""
    d, r = form.d, form.r
    w = _random_hermitian_pd(2 * r, rng)
    if isinstance(form, hnorm._DiagonalForm):
        return [rng.random(2 * d) + 0.5, w]
    return [np.stack([_random_hermitian_pd(d, rng), _random_hermitian_pd(d, rng)]), w]


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
    @pytest.mark.parametrize("form", [hnorm._DiagonalForm, hnorm._FactorizationForm])
    @pytest.mark.parametrize("r", range(1, 7))
    def test_real_newton_matrix_matches_the_broadcast_oracle(self, form, r):
        rng = np.random.default_rng(30 + r)
        d = 4
        fam = rng.standard_normal((2, r, d, d)) + 1j * rng.standard_normal((2, r, d, d))
        if form is hnorm._DiagonalForm:
            fam = fam * np.eye(d)
        form = form(fam)
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
        for t in _one_map_per_form(np.random.default_rng(27)):
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
