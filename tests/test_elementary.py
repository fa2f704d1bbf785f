"""Elementary operators: transfer calculus, Choi matrices, Kraus families."""

import json

import numpy as np
import pytest

from ehtp.cli import load_operator
from ehtp.elementary import (
    ElementaryOperator,
    apply,
    choi,
    choi_distance,
    compose,
    composition_distance,
    conjugate_by,
    is_completely_positive,
    is_diagonal_bimodule,
    positive_implies_cp_check,
    sampled_positivity,
    schur_op,
    slice_left,
    strongly_independent_kraus,
    transfer_matrix,
    unvec,
    vec,
)
from ehtp.elementary import _choi_core, _data_scale, _positive_samples
from ehtp.errors import (
    CUTOFF,
    TOL,
    BimoduleError,
    DimensionMismatchError,
    NotCompletelyPositiveError,
    NumericalError,
)
from ehtp.gamma import gamma
from ehtp.groups import Character, make_cyclic_product
from ehtp.hnorm import haagerup_norm_bounds
from ehtp.measures import Measure
from ehtp.representations import character_rep, regular_rep


# independent oracle: vec(a x b) = (b^T (x) a) vec(x) in column-major stacking
def _brute_transfer(t):
    out = np.zeros((t.dim**2, t.dim**2), dtype=np.complex128)
    for a, b in zip(t.left, t.right):
        out += np.kron(b.T, a)
    return out


def _unit(d, i, j):
    m = np.zeros((d, d), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def _identity_map(d):
    return ElementaryOperator.from_terms(d, [(np.eye(d), np.eye(d))])


def _conjugation(u):
    """``x -> u x u*``."""
    return ElementaryOperator.from_terms(u.shape[0], [(u, u.conj().T)])


def _random_op(d, n, rng):
    terms = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
              rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
             for _ in range(n)]
    return ElementaryOperator.from_terms(d, terms)


def _random_unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestVec:
    def test_column_major_stacking(self):
        m = np.array([[1, 2], [3, 4]], dtype=np.complex128)
        assert np.allclose(vec(m), [1, 3, 2, 4])
        assert np.allclose(unvec(vec(m)), m)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.allclose(unvec(vec(m)), m)


class TestConstruction:
    def test_shape_mismatch_rejected(self):
        t2, t3 = _identity_map(2), _identity_map(3)
        rejected = [
            lambda: ElementaryOperator(2, np.zeros((1, 3, 3)), np.zeros((1, 3, 3))),
            lambda: ElementaryOperator(2, np.zeros((2, 2, 2)), np.zeros((1, 2, 2))),
            lambda: unvec(np.zeros(5)),
            lambda: schur_op(np.zeros((2, 3))),
            lambda: apply(t2, np.eye(3)),
            lambda: compose(t2, t3),
            lambda: composition_distance(t2, t2, t3),
            lambda: choi_distance(t2, t3),
        ]
        for call in rejected:
            with pytest.raises(DimensionMismatchError):
                call()

    def test_terms_are_read_only(self):
        t = _identity_map(2)
        with pytest.raises(ValueError):
            t.left[0, 0, 0] = 5.0

    def test_empty_term_list_is_the_zero_map(self):
        t = ElementaryOperator.from_terms(3, [])
        assert t.n_terms == 0
        assert np.allclose(apply(t, np.eye(3)), 0.0)
        assert np.array_equal(slice_left(t, np.eye(3)), np.zeros((3, 3)))


class TestApply:
    def test_identity_map(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(apply(_identity_map(4), x), x)

    def test_single_term_is_two_sided_multiplication(self):
        rng = np.random.default_rng(2)
        a, b, x = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                   for _ in range(3))
        t = ElementaryOperator.from_terms(3, [(a, b)])
        assert np.allclose(apply(t, x), a @ x @ b)
        assert np.allclose(apply(t, np.eye(3)), a @ b)

    def test_diagonal_compression_on_all_ones(self):
        t = ElementaryOperator.from_terms(
            2, [(_unit(2, 0, 0), _unit(2, 0, 0)), (_unit(2, 1, 1), _unit(2, 1, 1))])
        assert np.allclose(apply(t, np.ones((2, 2))), np.eye(2))

    def test_transfer_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = _random_op(int(rng.integers(2, 5)), int(rng.integers(1, 4)), rng)
            assert np.allclose(transfer_matrix(t), _brute_transfer(t))
        # no terms, and more terms than d^2 at d = 8
        for n, d in [(0, 1), (0, 4), (70, 8)]:
            t = _random_op(d, n, rng)
            assert np.allclose(transfer_matrix(t), _brute_transfer(t))

    def test_transfer_reproduces_apply(self):
        rng = np.random.default_rng(4)
        t = _random_op(4, 3, rng)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(transfer_matrix(t) @ vec(x), vec(apply(t, x)))


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(5)
        t = _random_op(3, 2, rng)
        for c in (compose(_identity_map(3), t), compose(t, _identity_map(3))):
            assert np.allclose(transfer_matrix(c), transfer_matrix(t))

    def test_matches_sequential_application(self):
        rng = np.random.default_rng(6)
        s, t = _random_op(3, 2, rng), _random_op(3, 3, rng)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(apply(compose(s, t), x), apply(s, apply(t, x)))

    def test_term_pairs_multiply(self):
        # (a1 x b1) then (a2 x b2) composes to (a1 a2) x (b2 b1)
        rng = np.random.default_rng(7)
        a1, b1, a2, b2 = (rng.standard_normal((2, 2)) for _ in range(4))
        s = ElementaryOperator.from_terms(2, [(a1, b1)])
        t = ElementaryOperator.from_terms(2, [(a2, b2)])
        c = compose(s, t)
        assert c.n_terms == 1
        assert np.allclose(c.left[0], a1 @ a2)
        assert np.allclose(c.right[0], b2 @ b1)

    def test_transfer_is_multiplicative(self):
        rng = np.random.default_rng(8)
        s, t = _random_op(3, 2, rng), _random_op(3, 2, rng)
        assert np.allclose(transfer_matrix(compose(s, t)),
                           transfer_matrix(s) @ transfer_matrix(t))


class TestSlices:
    def test_left_slice_picks_out_right_legs(self):
        rng = np.random.default_rng(9)
        a, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(2))
        t = ElementaryOperator.from_terms(3, [(a, b)])
        # functional w with trace(w* a) = 1 reproduces b
        w = a / np.linalg.norm(a) ** 2
        assert np.allclose(slice_left(t, w), b)
        assert np.allclose(slice_left(t, np.zeros((3, 3))), 0.0)

    def test_trace_functional_on_the_identity_map(self):
        # omega(a) = trace(a) has w = I, so slicing (I, I) gives trace(I) I
        t = _identity_map(3)
        assert np.allclose(slice_left(t, np.eye(3)), 3.0 * np.eye(3))

    def test_slices_are_linear_in_the_functional(self):
        rng = np.random.default_rng(11)
        t = _random_op(3, 3, rng)
        w1, w2 = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                  for _ in range(2))
        lhs = slice_left(t, w1 + 2.0 * w2)
        assert np.allclose(lhs, slice_left(t, w1) + 2.0 * slice_left(t, w2))


class TestChoi:
    def test_identity_map_gives_rank_one_maximally_entangled(self):
        c = choi(_identity_map(2))
        evals = sorted(np.linalg.eigvalsh(c), reverse=True)
        assert np.allclose(evals, [2.0, 0.0, 0.0, 0.0])

    def test_single_conjugation_term_gives_vec_outer_product(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = ElementaryOperator.from_terms(3, [(a, a.conj().T)])
        assert np.allclose(choi(t), np.outer(vec(a), np.conj(vec(a))))

    def test_transpose_map_has_a_negative_choi_eigenvalue(self):
        d = 2
        t = ElementaryOperator.from_terms(
            d, [(_unit(d, i, j), _unit(d, i, j)) for i in range(d) for j in range(d)])
        x = np.array([[1, 2], [3, 4]], dtype=np.complex128)
        assert np.allclose(apply(t, x), x.T)
        assert np.linalg.eigvalsh(choi(t)).min() == pytest.approx(-1.0)
        assert not is_completely_positive(t)


class TestCompletePositivity:
    def test_conjugation_is_completely_positive(self):
        rng = np.random.default_rng(13)
        u = _random_unitary(3, rng)
        assert is_completely_positive(_conjugation(u))

    def test_negated_identity_is_not(self):
        t = ElementaryOperator.from_terms(2, [(-np.eye(2), np.eye(2))])
        assert not is_completely_positive(t)

    def test_schur_map_with_psd_symbol_is_cp(self):
        rng = np.random.default_rng(14)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = g @ g.conj().T
        assert is_completely_positive(schur_op(u))
        assert not is_completely_positive(schur_op(np.diag([1.0, -1.0, 1.0])))

    def test_cancellation_noise_counts_as_positive(self):
        # a map that is zero up to floating-point cancellation must verdict CP
        rng = np.random.default_rng(15)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t = ElementaryOperator.from_terms(4, [(a, a.conj().T), (-a, a.conj().T)])
        assert is_completely_positive(t)
        assert strongly_independent_kraus(t) == []

    @pytest.mark.parametrize("factor", [1e-12, 1e8])
    def test_verdict_does_not_depend_on_the_size_of_the_map(self, factor):
        # the gates are taken at the data scale sum ||a_i|| ||b_i||, not at 1
        rng = np.random.default_rng(20)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert is_completely_positive(schur_op(factor * (g @ g.conj().T)))
        assert not is_completely_positive(schur_op(factor * np.diag([1.0, -1.0, 1.0])))
        assert not is_completely_positive(schur_op(factor * g))

    def test_an_overflowing_data_scale_raises(self):
        # Z_3 with characters 0 and 1, weight (1 + 1j) 1e200 at element 1: the
        # Frobenius norms overflow, and `x <= tol * inf` passed every gate
        g = make_cyclic_product([3])
        pi = character_rep(g, [Character((3,), (0,)), Character((3,), (1,))])
        op = gamma(pi, Measure(g, [0, (1 + 1j) * 1e200, 0])).op
        with np.errstate(over="ignore"):
            for check in (is_completely_positive, strongly_independent_kraus, haagerup_norm_bounds):
                with pytest.raises(NumericalError):
                    check(op)


class TestKraus:
    def test_conjugation_recovers_the_unitary_up_to_phase(self):
        rng = np.random.default_rng(16)
        u = _random_unitary(3, rng)
        ks = strongly_independent_kraus(_conjugation(u))
        assert len(ks) == 1
        ratio = ks[0] / u
        assert np.allclose(ratio, ratio[0, 0])
        assert abs(abs(ratio[0, 0]) - 1.0) < 1e-9

    def test_duplicated_term_merges_with_sqrt_two_weight(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = ElementaryOperator.from_terms(2, [(a, a.conj().T), (a, a.conj().T)])
        ks = strongly_independent_kraus(t)
        assert len(ks) == 1
        assert np.linalg.norm(ks[0]) == pytest.approx(np.sqrt(2) * np.linalg.norm(a))

    def test_full_depolarizing_has_d_squared_elements(self):
        d = 2
        terms = [(_unit(d, i, j) / np.sqrt(d), _unit(d, i, j).conj().T / np.sqrt(d))
                 for i in range(d) for j in range(d)]
        t = ElementaryOperator.from_terms(d, terms)
        x = np.array([[2, 1j], [-1j, 3]], dtype=np.complex128)
        assert np.allclose(apply(t, x), np.trace(x) * np.eye(d) / d)
        assert len(strongly_independent_kraus(t)) == d * d

    def test_reconstruction_and_count_bound(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            d, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            ks_in = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                     for _ in range(n)]
            t = ElementaryOperator.from_terms(d, [(k, k.conj().T) for k in ks_in])
            ks = strongly_independent_kraus(t)
            assert len(ks) <= n
            recon = ElementaryOperator.from_terms(d, [(k, k.conj().T) for k in ks])
            assert np.allclose(transfer_matrix(recon), transfer_matrix(t), atol=1e-9)
            stacked = np.stack([vec(k) for k in ks], axis=1)
            sv = np.linalg.svd(stacked, compute_uv=False)
            assert sv.min() > 1e-9  # strong independence

    @pytest.mark.parametrize("factor", [1e-14, 1e8])
    def test_family_does_not_depend_on_the_size_of_the_map(self, factor):
        rng = np.random.default_rng(21)
        ks_in = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        t = ElementaryOperator.from_terms(3, [(factor * k, k.conj().T) for k in ks_in])
        ks = strongly_independent_kraus(t)
        assert len(ks) == 2
        recon = ElementaryOperator.from_terms(3, [(k, k.conj().T) for k in ks])
        gap = np.abs(transfer_matrix(recon) - transfer_matrix(t)).max()
        assert gap <= 1e-9 * factor

    def test_non_cp_map_is_rejected(self):
        t = ElementaryOperator.from_terms(2, [(-np.eye(2), np.eye(2))])
        with pytest.raises(NotCompletelyPositiveError):
            strongly_independent_kraus(t)


def _kraus_op(ks):
    return ElementaryOperator(ks.shape[1], ks, ks.conj().transpose(0, 2, 1))


def _spectrum_cases():
    """Maps at d <= 8 for the factored Choi spectrum: (name, map)."""
    rng = np.random.default_rng(26)

    def rc(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    deficient = rc(3, 4, 4)
    deficient[2] = deficient[0] - 2j * deficient[1]      # three terms, Kraus rank two
    indefinite = rc(2, 3, 3)
    z8, z7 = make_cyclic_product([8]), make_cyclic_product([7])
    chars = character_rep(z7, [Character((7,), (k,)) for k in (0, 2, 3, 5)])
    yield "no terms", ElementaryOperator.from_terms(3, [])
    yield "d = 1, CP", _kraus_op(rc(2, 1, 1))
    yield "d = 1, not CP", ElementaryOperator(1, -np.ones((1, 1, 1)), np.ones((1, 1, 1)))
    yield "one term", _kraus_op(rc(1, 5, 5))
    yield "2n < d^2", _kraus_op(rc(3, 5, 5))
    yield "2n = d^2 + 1", _kraus_op(rc(5, 3, 3))
    yield "2n = d^2", _kraus_op(rc(8, 4, 4))
    yield "2n = d^2, not CP", ElementaryOperator(2, rc(2, 2, 2), rc(2, 2, 2))
    yield "2n > d^2", _kraus_op(rc(4, 2, 2))
    yield "not Hermiticity-preserving", ElementaryOperator(4, rc(2, 4, 4), rc(2, 4, 4))
    yield "Hermiticity-preserving, not CP", ElementaryOperator(
        3, indefinite, np.array([1.0, -1.0])[:, None, None] * indefinite.conj().transpose(0, 2, 1))
    yield "rank-deficient CP", _kraus_op(deficient)
    for label, pi, g in (("regular", regular_rep(z8), z8), ("character", chars, z7)):
        yield f"{label}, generic", gamma(pi, Measure(g, rc(g.order))).op
        yield f"{label}, positive", gamma(pi, Measure(g, rng.random(g.order) + 0.05)).op


class TestFactoredChoiSpectrum:
    """The spectrum from the Choi factors against dense ``eigvalsh`` and
    ``eigh`` of ``choi(t)``, which share nothing with it, below, at and
    above 2n = d^2, where the factored core gives way to the dense one."""

    @pytest.mark.parametrize("factor", [1.0, 1e-12])
    def test_matches_the_dense_spectrum(self, factor):
        kinds = set()
        for name, t in _spectrum_cases():
            t = ElementaryOperator(t.dim, factor * t.left, t.right)
            d2, scale = t.dim**2, _data_scale(t)
            c = choi(t)
            dense = np.linalg.eigvalsh((c + c.conj().T) / 2)
            core, q = _choi_core(t)
            k = min(d2, 2 * t.n_terms)
            assert core.shape == (k, k) and q.shape == (d2, k), name
            evals = np.linalg.eigvalsh((core + core.conj().T) / 2)
            asym = np.linalg.norm(core - core.conj().T)
            # the core eigenvalues, then d^2 - k exact zeros
            full = np.sort(np.concatenate([evals, np.zeros(d2 - k)]))
            assert np.abs(full - dense).max(initial=0.0) <= 1e-12 * scale, name
            assert abs(asym - np.linalg.norm(c - c.conj().T)) <= 1e-12 * scale, name

            cp = bool(np.linalg.norm(c - c.conj().T) <= TOL * scale
                      and dense.min(initial=0.0) >= -TOL * scale)
            assert is_completely_positive(t) is cp, name
            if not cp:
                with pytest.raises(NotCompletelyPositiveError):
                    strongly_independent_kraus(t)
                kinds.add("not CP")
                continue
            top = dense.max(initial=0.0)
            count = 0 if top <= CUTOFF * scale else int(np.sum(dense > CUTOFF * top))
            ks = strongly_independent_kraus(t)
            assert len(ks) == count, name
            # the kept part of the dense eigh rebuilds the same Kraus span
            dense_vals, dense_vecs = np.linalg.eigh((c + c.conj().T) / 2)
            kept = dense_vecs[:, dense_vals > CUTOFF * top] * np.sqrt(dense_vals[dense_vals > CUTOFF * top])
            fast = np.stack([vec(m) for m in ks], axis=1) if ks else np.zeros((d2, 0))
            assert np.abs(fast @ fast.conj().T - kept @ kept.conj().T).max(initial=0.0) <= 1e-12 * scale, name
            kinds.add("no Kraus terms" if count == 0 else "CP")
        assert kinds == {"not CP", "no Kraus terms", "CP"}

    def test_rank_deficient_map_keeps_its_kraus_rank(self):
        cases = dict(_spectrum_cases())
        assert len(strongly_independent_kraus(cases["rank-deficient CP"])) == 2
        assert len(strongly_independent_kraus(cases["regular, positive"])) == 8
        assert strongly_independent_kraus(cases["no terms"]) == []


class TestBimoduleSampling:
    def test_schur_maps_are_diagonal_bimodule_maps(self):
        rng = np.random.default_rng(19)
        u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert is_diagonal_bimodule(schur_op(u))

    def test_transpose_map_is_not(self):
        d = 3
        t = ElementaryOperator.from_terms(
            d, [(_unit(d, i, j), _unit(d, i, j)) for i in range(d) for j in range(d)])
        assert not is_diagonal_bimodule(t)
        with pytest.raises(BimoduleError):
            positive_implies_cp_check(t)

    def test_sampled_verdict_agrees_on_schur_maps(self):
        rng = np.random.default_rng(20)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        psd = g @ g.conj().T
        good = positive_implies_cp_check(schur_op(psd), trials=40)
        assert good.sampled_positive and good.completely_positive
        bad = positive_implies_cp_check(schur_op(np.diag([1.0, -1.0, 1.0])), trials=40)
        assert not bad.sampled_positive and not bad.completely_positive

    def test_numerically_zero_map_is_positive(self):
        rng = np.random.default_rng(21)
        a = np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        t = ElementaryOperator.from_terms(3, [(a, a.conj().T), (-a, a.conj().T)])
        report = positive_implies_cp_check(t, trials=20)
        assert report.sampled_positive and report.completely_positive


    def test_tiny_non_bimodule_map_is_rejected(self):
        # a unit floor in the gate, tol * max(1, column norm), would pass
        # every map at 1e-12 scale as a bimodule map
        rng = np.random.default_rng(23)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = ElementaryOperator.from_terms(3, [(1e-12 * a, a.conj().T)])
        assert not is_diagonal_bimodule(t)
        assert not is_diagonal_bimodule(ElementaryOperator.from_terms(3, [(a, a.conj().T)]))
        with pytest.raises(BimoduleError):
            positive_implies_cp_check(t)

    def test_tiny_schur_map_is_a_bimodule_map(self):
        rng = np.random.default_rng(24)
        u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert is_diagonal_bimodule(schur_op(1e-12 * u))


def _loop_samples(seed, d, trials):
    """Rank-one samples as a loop draws them: per trial, ``w`` from the real
    and then the imaginary normals, and ``w w*``."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(trials):
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        samples.append(np.outer(w, np.conj(w)))
    return np.array(samples).reshape(trials, d, d)


def _loop_positivity(t, samples, tol=1e-9):
    """Oracle for the batched probe: one ``apply`` and one ``eigvalsh`` per
    sample, each output normalized by ``max(||y||, ||x|| * scale)``."""
    term_scale = sum(np.linalg.norm(a) * np.linalg.norm(b) for a, b in zip(t.left, t.right))
    worst = np.inf
    for x in samples:
        y = apply(t, x)
        scale = max(float(np.linalg.norm(y)), float(np.linalg.norm(x)) * term_scale, 1e-300)
        if np.linalg.norm(y - y.conj().T) > tol * scale:
            worst = -np.inf
            continue
        worst = min(worst, float(np.linalg.eigvalsh((y + y.conj().T) / 2).min()) / scale)
    return bool(worst >= -tol), worst


class TestBatchedPositivityProbe:
    @pytest.mark.parametrize("d, trials", [(1, 3), (3, 20), (4, 7), (2, 0)])
    def test_one_draw_gives_the_samples_of_the_loop(self, d, trials):
        stack = _positive_samples(np.random.default_rng(5), d, trials)
        assert np.array_equal(stack, _loop_samples(5, d, trials))

    @pytest.mark.parametrize("d, trials", [(1, 3), (3, 20), (4, 7)])
    def test_every_sample_is_a_rank_one_state(self, d, trials):
        stack = _positive_samples(np.random.default_rng(6), d, trials)
        assert stack.shape == (trials, d, d)
        assert np.allclose(stack, stack.conj().transpose(0, 2, 1), rtol=0, atol=1e-14 * np.abs(stack).max())
        for x in stack:
            evals = np.linalg.eigvalsh(x)
            assert evals[-1] > 0 and np.all(np.abs(evals[:-1]) <= 1e-12 * evals[-1])
            assert np.linalg.matrix_rank(x) == 1

    def test_one_sample_sees_a_negative_eigenvalue_a_full_rank_state_hides(self):
        # S o ww* = D_w S D_w* is congruent to S; S o gg* sums such copies,
        # and [[1, 2], [2, 1]] o [[a, c], [c*, b]] is PSD when 4|c|^2 <= ab
        s = schur_op(np.array([[1.0, 2.0], [2.0, 1.0]]))
        verdict, worst = sampled_positivity(s, trials=1)
        assert not verdict and worst < -TOL
        hidden = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.linalg.eigvalsh(apply(s, hidden)).min() >= 0

    def _maps(self):
        rng = np.random.default_rng(25)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        return {
            "psd": schur_op(g @ g.conj().T),
            "not psd": schur_op(np.diag([1.0, -1.0, 1.0])),
            "zero": ElementaryOperator.from_terms(3, [(a, a.conj().T), (-a, a.conj().T)]),
        }

    @pytest.mark.parametrize("case, positive", [("psd", True), ("not psd", False), ("zero", True)])
    def test_matches_the_per_sample_loop(self, case, positive):
        t = self._maps()[case]
        for seed, trials in ((0, 20), (3, 9)):
            verdict, worst = sampled_positivity(t, trials=trials, seed=seed)
            expect, expect_worst = _loop_positivity(t, _loop_samples(seed, t.dim, trials))
            assert verdict == expect == positive
            assert abs(worst - expect_worst) <= 1e-12
            report = positive_implies_cp_check(t, trials=trials, seed=seed)
            assert report.sampled_positive == verdict and report.worst_eigenvalue_ratio == worst


class TestConjugateBy:
    def test_matches_direct_rotation(self):
        rng = np.random.default_rng(22)
        t = _random_op(3, 2, rng)
        v = _random_unitary(3, rng)
        rotated = conjugate_by(t, v)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expect = v.conj().T @ apply(t, v @ x @ v.conj().T) @ v
        assert np.allclose(apply(rotated, x), expect)


def _grid(m):
    """``m`` in the operator file format: rows of ``[re, im]`` pairs."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _payload(t):
    return {"dim": t.dim, "terms": [{"a": _grid(a), "b": _grid(b)} for a, b in zip(t.left, t.right)]}


class TestSerialization:
    """The operator file format, as written from an operator's terms and read by the CLI."""

    def test_round_trip_preserves_terms(self):
        rng = np.random.default_rng(23)
        t = _random_op(3, 2, rng)
        back = load_operator(json.loads(json.dumps(_payload(t))))
        assert back.dim == 3 and back.n_terms == 2
        assert np.array_equal(back.left, t.left)
        assert np.array_equal(back.right, t.right)

    def test_accepts_parsed_objects(self):
        back = load_operator(_payload(_identity_map(2)))
        assert np.array_equal(transfer_matrix(back), np.eye(4))
