"""The matrix-product kernels against their brute-force forms.

Each fast path in ``elementary``, ``gamma`` and ``hnorm`` is checked here
against the direct computation it replaced, kept as an oracle at small size
(d <= 8): einsum contractions, loops over matrix units, the integrated
``tensor_conjugate`` stack and the dense forms of the two rewriting gates.
The oracles use nothing from the fast paths they check.
"""

import tracemalloc

import numpy as np
import pytest

from ehtp import elementary
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
    schur_op,
    strongly_independent_kraus,
    transfer_matrix,
    vec,
)
from ehtp.errors import TOL, NotCompletelyPositiveError, NumericalError
from ehtp.gamma import (
    gamma,
    kernel_test_tensor_conjugate,
    kernel_test_transfer,
    schur_form,
    symbol_residual,
)
from ehtp.groups import Character, from_cayley, make_cyclic_product
from ehtp.hnorm import _lower_end, haagerup_norm_bounds
from ehtp.measures import Measure
from ehtp.representations import (
    character_rep,
    diagonalize,
    integrate,
    make_representation,
    regular_rep,
    tensor_conjugate,
)
from ehtp.suites import (
    homomorphism_check,
    kernel_measure,
    random_character,
    random_character_rep,
    s3_cayley,
    unit_check,
)
from ehtp.varopoulos import equivalence_suite

# (n_terms, d): empty term lists, d == 1, and the sizes in between
SHAPES = [(0, 1), (0, 4), (1, 1), (3, 1), (1, 2), (4, 3), (7, 5), (2, 8), (12, 8)]


def _rc(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_op(rng, n, d):
    return ElementaryOperator(d, _rc(rng, n, d, d), _rc(rng, n, d, d))


def _close(fast, slow, scale=0.0):
    """Agreement to 1e-12 relative to the larger of the oracle's size and
    ``scale``, with a unit floor."""
    size = float(np.max(np.abs(slow))) if np.size(slow) else 0.0
    return float(np.max(np.abs(np.asarray(fast) - slow), initial=0.0)) <= 1e-12 * max(1.0, size, scale)


# -- oracles: the brute-force forms ------------------------------------------


def oracle_apply(t, x):
    if t.n_terms == 0:
        return np.zeros((t.dim, t.dim), dtype=np.complex128)
    return np.einsum("nij,jk,nkl->il", t.left, x, t.right)


def oracle_choi(t):
    d = t.dim
    c = np.zeros((d * d, d * d), dtype=np.complex128)
    for a, b in zip(t.left, t.right):
        c += np.outer(vec(a), np.conj(vec(b.conj().T)))
    return c


def oracle_schur_op(symbol):
    d = symbol.shape[0]
    terms = []
    for j in range(d):
        e_jj = np.zeros((d, d), dtype=np.complex128)
        e_jj[j, j] = 1.0
        terms.append((e_jj, np.diag(symbol[j])))
    return ElementaryOperator.from_terms(d, terms)


def oracle_is_diagonal_bimodule(t, tol=TOL):
    d = t.dim
    for j in range(d):
        for k in range(d):
            x = np.zeros((d, d), dtype=np.complex128)
            x[j, k] = 1.0
            y = oracle_apply(t, x)
            y_res = y.copy()
            y_res[j, k] = 0.0
            if np.linalg.norm(y_res) > tol * max(1.0, float(np.linalg.norm(y))):
                return False
    return True


def oracle_symbol_residual(diag, mu, symbol):
    pi, v = diag.rep, diag.basis
    support = mu.support()
    op = ElementaryOperator(pi.dim, mu.weights[support, None, None] * pi.matrices[support],
                            pi.matrices[support].conj().transpose(0, 2, 1))
    squares = 0.0
    for j in range(pi.dim):
        for k in range(pi.dim):
            unit = np.outer(v[:, j], np.conj(v[:, k]))
            squares += float(np.linalg.norm(oracle_apply(op, unit) - symbol[j, k] * unit)) ** 2
    return np.sqrt(squares)


def oracle_tensor_conjugate_norm(pi, mu):
    return float(np.linalg.norm(integrate(tensor_conjugate(pi), mu)))


def oracle_kraus_gate(t, kraus):
    """The dense max-entry form of the Kraus reconstruction gate."""
    recon = ElementaryOperator.from_terms(t.dim, [(k, k.conj().T) for k in kraus])
    return float(np.abs(oracle_choi(recon) - oracle_choi(t)).max(initial=0.0))


def oracle_certificate_miss(t, terms):
    """The dense max-entry form of the certificate-miss check of the cb-norm bracket."""
    cert = ElementaryOperator.from_terms(t.dim, terms)
    return float(np.abs(transfer_matrix(cert) - transfer_matrix(t)).max(initial=0.0))


def oracle_amplified_apply(lstack, rstack, x, d):
    out = np.einsum("nua,aibj,nbv->uivj", lstack, x.reshape(d, d, d, d), rstack, optimize=True)
    return out.reshape(d * d, d * d)


def _amplification_kernel(lstack, rstack):
    """The d^2 x d^2 matrix ``K[(u,v),(a,b)] = sum_n L_n[u,a] R_n[b,v]`` of
    ``T (x) id_d``: one ``(d^2, n) @ (n, d^2)`` product, then a realignment."""
    n, d, _ = lstack.shape
    k = lstack.transpose(1, 2, 0).reshape(d * d, n) @ rstack.reshape(n, d * d)  # [(u,a),(b,v)]
    return k.reshape(d, d, d, d).transpose(0, 3, 1, 2).reshape(d * d, d * d)


def _amplified_apply(kernel, x, d):
    """``(T (x) id_d)(X)`` for X in block form ``X[(a,i),(b,j)]``: one product
    of the kernel with the realignment ``X[(a,b),(i,j)]``."""
    xr = x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    out = (kernel @ xr).reshape(d, d, d, d)        # [u, v, i, j]
    return out.transpose(0, 2, 1, 3).reshape(d * d, d * d)


# -- apply and choi ------------------------------------------------------------


@pytest.mark.parametrize("n,d", SHAPES)
def test_apply_matches_einsum(n, d):
    rng = np.random.default_rng([n, d])
    t = _random_op(rng, n, d)
    for _ in range(3):
        x = _rc(rng, d, d)
        assert _close(apply(t, x), oracle_apply(t, x))


@pytest.mark.parametrize("n,d", SHAPES)
def test_choi_matches_outer_product_loop(n, d):
    t = _random_op(np.random.default_rng([n, d, 1]), n, d)
    assert _close(choi(t), oracle_choi(t))


@pytest.mark.parametrize("d", [1, 2, 5])
def test_schur_op_matches_row_loop(d):
    rng = np.random.default_rng([d, 7])
    symbol = _rc(rng, d, d)
    fast, slow = schur_op(symbol), oracle_schur_op(symbol)
    assert np.array_equal(fast.left, slow.left) and np.array_equal(fast.right, slow.right)
    x = _rc(rng, d, d)
    assert _close(apply(fast, x), symbol * x)


# -- is_diagonal_bimodule --------------------------------------------------------


def _bimodule_cases(rng, d):
    symbol = 1e3 * _rc(rng, d, d)
    phases = np.exp(2j * np.pi * rng.random(d))
    perturb = _rc(rng, 1, d, d)
    yield "schur", schur_op(symbol), True
    yield "diagonal-conjugation", ElementaryOperator(
        d, np.diag(phases)[None], np.diag(phases.conj())[None]), True
    yield "zero-terms", ElementaryOperator(d, np.zeros((0, d, d)), np.zeros((0, d, d))), True
    if d == 1:
        yield "generic", _random_op(rng, 3, d), True
        return
    yield "generic", _random_op(rng, 3, d), False
    # a large symbol plus a perturbation far below tol relative to each image,
    # where sqrt(|col|^2 - |diag|^2) would cancel to noise above tol
    small = ElementaryOperator(d, np.concatenate([schur_op(symbol).left, 1e-11 * perturb]),
                               np.concatenate([schur_op(symbol).right, np.eye(d)[None]]))
    yield "schur+1e-11", small, True
    large = ElementaryOperator(d, np.concatenate([schur_op(symbol).left, 1e-3 * perturb]),
                               np.concatenate([schur_op(symbol).right, np.eye(d)[None]]))
    yield "schur+1e-3", large, False


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_is_diagonal_bimodule_matches_unit_loop(d):
    rng = np.random.default_rng([d, 2])
    for name, t, expected in _bimodule_cases(rng, d):
        assert oracle_is_diagonal_bimodule(t) is expected, name
        assert is_diagonal_bimodule(t) is expected, name


# -- the symbol residual ---------------------------------------------------------


def _symbol_cases():
    rng = np.random.default_rng(3)
    for shape in [(1,), (5,), (8,), (2, 4), (3, 3)]:
        g = make_cyclic_product(list(shape))
        reps = [regular_rep(g)] if g.order <= 8 else []
        reps += [random_character_rep(g, rng, max_dim=6) for _ in range(2)]
        for pi in reps:
            diag = diagonalize(pi)
            yield diag, Measure(g, _rc(rng, g.order))
            yield diag, Measure(g, np.zeros(g.order))


@pytest.mark.parametrize("case", range(2))
def test_symbol_residual_matches_unit_loop(case):
    rng = np.random.default_rng([4, case])
    checked = 0
    for diag, mu in _symbol_cases():
        d = diag.rep.dim
        # case 0: the true symbol (residual at rounding level);
        # case 1: a wrong symbol, so the map is not the claimed multiplier
        symbol = schur_form(diag, mu) if case == 0 else _rc(rng, d, d)
        fast = symbol_residual(diag, mu, symbol)
        slow = oracle_symbol_residual(diag, mu, symbol)
        assert _close(fast, slow, scale=mu.norm)
        gate = TOL * max(1.0, mu.norm)
        assert (fast <= gate) == (slow <= gate) == (case == 0)
        checked += 1
    assert checked >= 10


# -- the amplified map in the cb-norm lower bound ----------------------------------


def _isometry(rng, rows, cols):
    q, _ = np.linalg.qr(_rc(rng, rows, cols))
    return q


@pytest.mark.parametrize("n,d", SHAPES)
def test_amplified_apply_matches_einsum(n, d):
    # the dense kernel form against the einsum, then the factored lower end
    # ||(T (x) id)(X) eta|| of hnorm against both, for a partial isometry
    # X = xa xb* of rank r and a unit eta = ravel(root)
    rng = np.random.default_rng([n, d, 5])
    left, right = _rc(rng, n, d, d), _rc(rng, n, d, d)
    forward = _amplification_kernel(left, right)
    backward = _amplification_kernel(right, left)
    for _ in range(2):
        x = _rc(rng, d * d, d * d)
        assert _close(_amplified_apply(forward, x, d), oracle_amplified_apply(left, right, x, d))
        assert _close(_amplified_apply(backward, x, d), oracle_amplified_apply(right, left, x, d))
    t = ElementaryOperator(d, left, right)
    for r in sorted({1, min(d, 3), d}):
        xa, xb = _isometry(rng, d * d, r), _isometry(rng, d * d, r)
        root = _rc(rng, d, d)
        root /= np.linalg.norm(root)
        x = xa @ xb.conj().T
        image = oracle_amplified_apply(left, right, x, d)
        dense = float(np.linalg.norm(image @ root.ravel()))
        assert np.linalg.norm(_amplified_apply(forward, x, d) @ root.ravel()) == pytest.approx(dense, rel=1e-12)
        fast = _lower_end(t, xa, xb, root)
        assert abs(fast - dense) <= 1e-12 * dense
        assert fast <= float(np.linalg.norm(image, 2)) * (1 + 1e-12)


# -- the factored rewriting gate ----------------------------------------------------

# (n_s, n_t, d): both sides of the size selection 2(n_s + n_t) < d^2, an empty
# rewriting on each side of it, two maps without terms, and d == 1
GATE_SHAPES = [(1, 1, 4), (3, 2, 4), (4, 4, 4), (6, 2, 4), (3, 0, 5), (10, 0, 4), (0, 0, 3),
               (2, 3, 8), (20, 15, 8), (1, 1, 1), (2, 0, 1)]


@pytest.mark.parametrize("n_s,n_t,d", GATE_SHAPES)
@pytest.mark.parametrize("factor", [1.0, 1e-12, 1e8])
def test_choi_distance_matches_the_dense_difference(n_s, n_t, d, factor):
    rng = np.random.default_rng([n_s, n_t, d, 9])
    t = _random_op(rng, n_t, d)
    s = _random_op(rng, n_s, d)
    # a rewriting of t (its terms split in two) lies at distance zero
    halves = ElementaryOperator(d, np.concatenate([t.left, t.left]) / 2, np.concatenate([t.right, t.right]))
    for other in (s, halves):
        scaled_s, scaled_t = (ElementaryOperator(d, factor * m.left, m.right) for m in (other, t))
        dense = float(np.linalg.norm(choi(scaled_s) - choi(scaled_t)))
        scale = float(np.linalg.norm(choi(scaled_s)) + np.linalg.norm(choi(scaled_t)))
        assert abs(choi_distance(scaled_s, scaled_t) - dense) <= 1e-12 * scale


# -- the composition distance: the homomorphism residual in column blocks -----


@pytest.mark.parametrize("d", range(1, 7))
def test_composition_distance_matches_the_factored_composition(d):
    # the composed map's n_t n_u terms, read by choi_distance, form no
    # transfer matrix; one block at these sizes
    rng = np.random.default_rng([d, 10])
    s, t, u = (_random_op(rng, n, d) for n in (3, 2, 4))
    slow = choi_distance(s, compose(t, u))
    assert abs(composition_distance(s, t, u) - slow) <= 1e-12 * slow


@pytest.mark.parametrize("d", [16, 17])
def test_composition_distance_in_quarters_matches_the_dense_difference(d):
    # quarter blocks from d = 16; at d = 17 the last block is wider
    rng = np.random.default_rng([d, 11])
    s, t, u = (_random_op(rng, n, d) for n in (3, 2, 4))
    dense = float(np.linalg.norm(transfer_matrix(s) - transfer_matrix(t) @ transfer_matrix(u)))
    assert abs(composition_distance(s, t, u) - dense) <= 1e-12 * dense
    # a rewriting of t after u lies at distance zero, to rounding in the product
    scale = float(np.linalg.norm(transfer_matrix(t)) * np.linalg.norm(transfer_matrix(u)))
    assert composition_distance(compose(t, u), t, u) <= 1e-12 * scale


def _gate_cases(rng):
    """Maps at d <= 8 with a Kraus family or a cb-norm certificate: positive
    and generic measures under regular and character representations, Schur
    multipliers and random maps, the last two also scaled by 1e-12 and 1e8."""
    for n in (2, 5, 8):
        g = make_cyclic_product([n])
        for pi in (regular_rep(g), random_character_rep(g, rng, max_dim=6)):
            yield gamma(pi, Measure(g, rng.random(n) + 0.05)).op
            yield gamma(pi, Measure(g, _rc(rng, n))).op
    for d in (1, 3, 6):
        for factor in (1.0, 1e-12, 1e8):
            yield schur_op(factor * _rc(rng, d, d))
            t = _random_op(rng, 3, d)
            yield ElementaryOperator(d, factor * t.left, t.right)


def test_factored_gates_bound_their_dense_max_entry_forms():
    # the Frobenius distance bounds the largest entry the dense gates read (up
    # to the rounding of either, far below the gate), so every map the gates
    # pass also passes the dense max-entry forms
    rng = np.random.default_rng(10)
    kraus_checked = 0
    for t in _gate_cases(rng):
        assert t.dim <= 8
        if is_completely_positive(t):
            kraus = strongly_independent_kraus(t)
            recon = ElementaryOperator.from_terms(t.dim, [(k, k.conj().T) for k in kraus])
            scale = float(np.sum(np.linalg.norm(t.left, axis=(1, 2)) * np.linalg.norm(t.right, axis=(1, 2))))
            fast = choi_distance(recon, t)
            assert oracle_kraus_gate(t, kraus) <= fast + 1e-12 * scale
            assert fast <= TOL * scale
            kraus_checked += 1
        b = haagerup_norm_bounds(t)
        cert = ElementaryOperator.from_terms(t.dim, b.certificate_terms)
        fast = choi_distance(cert, t)
        assert oracle_certificate_miss(t, b.certificate_terms) <= fast + 1e-12 * b.upper
        assert fast <= TOL * b.upper
    assert kraus_checked >= 6


def test_a_skewed_kraus_element_fails_the_reconstruction_gate(monkeypatch):
    g = make_cyclic_product([6])
    op = gamma(regular_rep(g), Measure(g, np.linspace(1.0, 2.0, 6))).op
    assert len(strongly_independent_kraus(op)) == 6
    unvec, calls = elementary.unvec, []

    def skewed(v):
        # the first Kraus element, times 1 + 1e-6
        calls.append(v)
        return unvec(v) * (1 + 1e-6) if len(calls) == 1 else unvec(v)

    monkeypatch.setattr(elementary, "unvec", skewed)
    with pytest.raises(NumericalError):
        strongly_independent_kraus(op)


# -- a size guard on the CP, Kraus and norm paths ----------------------------------


@pytest.fixture
def decomposed(monkeypatch):
    """The shapes of the arrays handed to ``numpy.linalg`` ``eigh``,
    ``eigvalsh``, ``svd`` and ``norm(., 2)``."""
    shapes = []
    for name in ("eigh", "eigvalsh", "svd", "norm"):
        def recorded(a, *args, _inner=getattr(np.linalg, name), _name=name, **kwargs):
            if _name != "norm" or (args[0] if args else kwargs.get("ord")) == 2:
                shapes.append(np.shape(a))
            return _inner(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


def test_no_spectral_decision_decomposes_a_large_matrix(decomposed):
    # the regular rep of Z_16 has n = d = 16 terms: every Choi matrix and
    # amplified image is 256 x 256 of rank at most 2n, and no matrix with
    # both sides above 2n = 32 may be decomposed
    g = make_cyclic_product([16])
    pi = regular_rep(g)
    diag = diagonalize(pi)
    rng = np.random.default_rng(8)
    verdicts = []
    for mu in (Measure(g, _rc(rng, 16)), Measure(g, rng.random(16) + 0.05)):
        op = gamma(pi, mu).op
        verdicts.append(is_completely_positive(op))
        if verdicts[-1]:
            assert len(strongly_independent_kraus(op)) == 16
        else:
            with pytest.raises(NotCompletelyPositiveError):
                strongly_independent_kraus(op)
        assert equivalence_suite(diag, mu, trials=20).completely_positive is verdicts[-1]
        interval = haagerup_norm_bounds(op)
        assert interval.lower == pytest.approx(mu.norm, rel=1e-12)
        assert interval.upper == pytest.approx(mu.norm, rel=1e-12)
    assert verdicts == [False, True]
    matrices = [shape for shape in decomposed if len(shape) >= 2]
    assert matrices
    assert max(min(shape[-2:]) for shape in matrices) <= 32


def _peak_bytes(run):
    """The result of ``run()`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# a d^4 complex array is 16.8 MB at d = 32, the regular representation of Z_32
DENSE_Z32 = 32**4 * 16


def test_regular_z32_bracket_and_kraus_family_stay_below_one_dense_choi_matrix():
    # neither the bracket of a generic measure nor the Kraus family of a
    # positive one may allocate a d^4 array
    g = make_cyclic_product([32])
    pi = regular_rep(g)
    rng = np.random.default_rng(11)
    generic = gamma(pi, Measure(g, _rc(rng, 32))).op
    positive = gamma(pi, Measure(g, rng.random(32) + 0.05)).op
    for run in (lambda: haagerup_norm_bounds(generic), lambda: strongly_independent_kraus(positive)):
        assert _peak_bytes(run)[1] < DENSE_Z32


def test_regular_z32_schur_multiplier_gates_stay_below_one_dense_choi_matrix():
    # the symbol, bimodule, positivity-probe and unit gates each ask whether
    # a map is a given Schur multiplier (or the identity), through
    # choi_distance on the terms; none may allocate a d^4 array
    g = make_cyclic_product([32])
    pi = regular_rep(g)
    diag = diagonalize(pi)
    rng = np.random.default_rng(12)
    generic = Measure(g, _rc(rng, 32))
    positive = Measure(g, rng.random(32) + 0.05)
    rotated = conjugate_by(gamma(pi, generic).op, diag.basis)
    runs = {
        "schur_form": lambda: schur_form(diag, generic).shape == (32, 32),
        "equivalence_suite": lambda: equivalence_suite(diag, positive, trials=20).completely_positive,
        "is_diagonal_bimodule": lambda: is_diagonal_bimodule(rotated),
        "unit_check": lambda: unit_check(pi)["passed"],
    }
    for name, run in runs.items():
        ok, peak = _peak_bytes(run)
        assert ok and peak < DENSE_Z32, (name, peak)


def test_regular_z32_homomorphism_check_holds_one_dense_transfer_matrix_and_blocks():
    # composition_distance forms the transfer matrix of mu whole and those of
    # mu * nu and nu, and the product, in quarter column blocks held in two
    # buffers: 1.5 d^4 arrays; the dense difference held four
    g = make_cyclic_product([32])
    pi = regular_rep(g)
    rng = np.random.default_rng(15)
    mu, nu = (Measure(g, _rc(rng, 32)) for _ in range(2))
    ok, peak = _peak_bytes(lambda: homomorphism_check(pi, mu, nu)["passed"])
    assert ok and peak < 1.8 * DENSE_Z32


def test_regular_z32_transfer_matrix_is_the_only_dense_array():
    # the products are written straight into the result: one d^4 array, not a
    # product and its realigned copy
    g = make_cyclic_product([32])
    op = gamma(regular_rep(g), Measure(g, _rc(np.random.default_rng(13), 32))).op
    transfer, peak = _peak_bytes(lambda: transfer_matrix(op))
    x = _rc(np.random.default_rng(14), 32, 32)
    assert _close(transfer @ vec(x), vec(oracle_apply(op, x)), scale=32 * 32)
    assert peak < 1.25 * DENSE_Z32


# -- the transfer and tensor-conjugate kernel predicates: one Frobenius norm -----


def _abelian_tensor_cases(rng):
    """(label, pi, mu, in_kernel) on cyclic products: generic, zero and
    kernel measures under regular and character representations."""
    for shape in [(1,), (5,), (8,), (2, 4), (3, 3)]:
        g = make_cyclic_product(list(shape))
        reps = [regular_rep(g)] if g.order <= 8 else []
        reps += [character_rep(g, [random_character(g, rng)])]
        reps += [random_character_rep(g, rng, max_dim=6) for _ in range(2)]
        for pi in reps:
            label = f"{shape} d={pi.dim}"
            yield label + " generic", pi, Measure(g, _rc(rng, g.order)), False
            yield label + " zero", pi, Measure(g, np.zeros(g.order)), True
            yield label + " kernel", pi, kernel_measure(diagonalize(pi), rng), True


def _cayley_tensor_cases(rng):
    """The same on S3 from its Cayley table: the regular representation
    (faithful, so only zero is in the kernel), the sign character (d = 1)
    and trivial + sign (d = 2), whose kernel is the measures with zero mass
    on each coset of the rotations."""
    g = from_cayley(s3_cayley())
    sign = np.array([1.0] * 3 + [-1.0] * 3)   # elements are flip * 3 + rotation
    sign_rep = make_representation(g, sign[:, None, None])
    pair_rep = make_representation(g, np.stack([np.diag([1.0, x]) for x in sign]))
    w = _rc(rng, 6)
    on_cosets = np.concatenate([w[:3] - w[:3].mean(), w[3:] - w[3:].mean()])
    for label, pi in [("regular", regular_rep(g)), ("sign", sign_rep), ("trivial+sign", pair_rep)]:
        yield f"S3 {label} generic", pi, Measure(g, w), False
        yield f"S3 {label} zero", pi, Measure(g, np.zeros(6)), True
        yield f"S3 {label} coset-balanced", pi, Measure(g, on_cosets), label != "regular"


def _realized_norm(pi, mu):
    """The number both predicates read: the Frobenius norm of the transfer
    matrix of ``gamma(pi, mu)``, from its terms."""
    op = gamma(pi, mu).op
    return choi_distance(op, ElementaryOperator.from_terms(op.dim, []))


def _check_both_predicates(label, pi, mu, in_kernel):
    fast, slow = _realized_norm(pi, mu), oracle_tensor_conjugate_norm(pi, mu)
    assert _close(fast, slow, scale=mu.norm), label
    gate = TOL * pi.dim**2 * mu.norm
    assert kernel_test_tensor_conjugate(pi, mu) is (slow <= gate) is in_kernel, label
    assert kernel_test_transfer(gamma(pi, mu)) is in_kernel, label


def test_tensor_conjugate_predicate_matches_integrated_stack():
    rng = np.random.default_rng(6)
    checked = 0
    for label, pi, mu, in_kernel in [*_abelian_tensor_cases(rng), *_cayley_tensor_cases(rng)]:
        assert pi.dim <= 8
        _check_both_predicates(label, pi, mu, in_kernel)
        checked += 1
    assert checked >= 60


def _switch_cases():
    """(label, rep, thin): choi_distance takes a thin QR of the n terms when
    2n < d^2 and the dense d^2 x d^2 product otherwise.  The regular
    representation of Z_16 (n <= 16, d^2 = 256) is faithful, so its kernel
    is zero; characters 0, 1, 2 of Z_16, each twice (n <= 16, d^2 = 36),
    have a nonzero kernel; three characters of Z_12 have more than d^2 / 2
    terms."""
    z16, z12 = make_cyclic_product([16]), make_cyclic_product([12])
    yield "regular-Z16", regular_rep(z16), True
    yield "characters-Z16", character_rep(z16, [Character((16,), (k,)) for k in (0, 0, 1, 1, 2, 2)]), True
    yield "characters-Z12", character_rep(z12, [Character((12,), (k,)) for k in (0, 3, 4)]), False


@pytest.mark.parametrize("label, pi, thin", [pytest.param(*c, id=c[0]) for c in _switch_cases()])
def test_kernel_predicates_read_one_norm_on_both_sides_of_the_switch(label, pi, thin):
    rng = np.random.default_rng(16)
    g = pi.group
    generic = Measure(g, _rc(rng, g.order))
    kernel = kernel_measure(diagonalize(pi), rng)
    assert (kernel.norm > 0) is (label != "regular-Z16")
    for case, mu, in_kernel in [("generic", generic, False), ("generic 1e-12", generic * 1e-12, False),
                                ("kernel", kernel, True)]:
        assert (2 * mu.support().size < pi.dim**2) is thin, case
        _check_both_predicates(f"{label} {case}", pi, mu, in_kernel)
