"""Small-size tests of the benchmark's oracles, input builders and tracer.

Run with ``python3 -m pytest bench -q`` from the root of the repository.
Each oracle is compared with a brute-force form of its definition, and the
ones the workload checks rely on are compared with ``ehtp`` at sizes where
both are cheap.  The tracer is checked for rebinding every name, restoring
it, and parenting pool-thread spans.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402


def brute_transform(w, shape):
    order = int(np.prod(shape))
    out = np.zeros(shape, dtype=complex)
    for k in np.ndindex(*shape):
        for s in range(order):
            coords = np.unravel_index(s, shape)
            phase = sum(kj * sj / n for kj, sj, n in zip(k, coords, shape))
            out[k] += np.exp(2j * np.pi * phase) * w[s]
    return out


@pytest.mark.parametrize("shape", [(6,), (2, 3), (4, 2)])
def test_transform_matches_the_character_sum(shape):
    rng = np.random.default_rng(0)
    w = rng.standard_normal(int(np.prod(shape))) + 1j * rng.standard_normal(int(np.prod(shape)))
    f = oracles.transform(w, shape)
    assert np.allclose(f, brute_transform(w, shape), atol=1e-12)
    assert np.allclose(oracles.measure_from_transform(f), w, atol=1e-12)


def test_symbol_is_the_transform_at_quotients():
    rng = np.random.default_rng(1)
    shape, chars = (3, 4), [(0, 1), (2, 3), (1, 0)]
    w = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    f = brute_transform(w, shape)
    expected = [[f[tuple((a - b) % n for a, b, n in zip(cj, ck, shape))] for ck in chars] for cj in chars]
    assert np.allclose(oracles.symbol(w, shape, chars), expected, atol=1e-12)


def test_regular_transfer_and_choi_follow_their_definitions():
    n = 5
    rng = np.random.default_rng(2)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def apply(x):
        return sum(w[s] * oracles.shift(n, s) @ x @ oracles.shift(n, s).T for s in range(n))

    assert np.allclose(oracles.regular_transfer(w) @ x.T.ravel(), apply(x).T.ravel(), atol=1e-12)
    c = oracles.regular_choi(w)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n))
            unit[i, j] = 1.0
            assert np.allclose(c[i * n:(i + 1) * n, j * n:(j + 1) * n], apply(unit), atol=1e-12)


def test_circular_convolution_multiplies_transforms():
    rng = np.random.default_rng(3)
    mu, nu = (rng.standard_normal(7) + 1j * rng.standard_normal(7) for _ in range(2))
    conv = oracles.circular_convolution(mu, nu)
    assert np.allclose(oracles.transform(conv, (7,)),
                       oracles.transform(mu, (7,)) * oracles.transform(nu, (7,)), atol=1e-12)
    table = [[(a + b) % 7 for b in range(7)] for a in range(7)]
    assert np.allclose(oracles.table_convolution(mu, nu, table), conv, atol=1e-12)


def test_regular_cp_follows_the_sign_of_the_weights():
    assert oracles.regular_cp(np.array([0.5, 0.1, 0.0, 2.0]))
    assert not oracles.regular_cp(np.array([0.5, -0.1, 0.3, 2.0]))
    assert not oracles.regular_cp(np.array([0.5, 0.1j, 0.3, 2.0]))
    assert oracles.is_psd(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert not oracles.is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_square_pairs_by_integer_arithmetic():
    assert oracles.square_pairs(101, range(1, 7), 5) == [[2, 3]]
    assert oracles.square_pairs(101, range(1, 4), 0) == [[1, 1], [2, 2], [3, 3]]


def test_norm_targets():
    rng = np.random.default_rng(4)
    a, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
    assert np.isclose(oracles.single_term_norm(a, b), np.linalg.norm(a, 2) * np.linalg.norm(b, 2))
    left, right = (rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)) for _ in range(2))
    lower = oracles.norm_lower_target(left, right)
    triangle = sum(np.linalg.norm(x, 2) * np.linalg.norm(y, 2) for x, y in zip(left, right))
    assert np.linalg.norm(sum(x @ y for x, y in zip(left, right)), 2) <= lower + 1e-12
    assert lower <= triangle + 1e-12


def test_subgroup_closure_and_restriction_count():
    assert oracles.subgroup_elements((12,), [(8,)]) == [(0,), (4,), (8,)]
    assert len(oracles.subgroup_elements((12, 30), [(2, 0), (0, 3)])) == 60
    elements = oracles.subgroup_elements((12,), [(4,)])
    # characters k and k + 3 agree on the subgroup of order 3
    assert oracles.restricted_spectrum_size((12,), [(0,), (3,), (1,), (4,)], elements) == 2


def test_dihedral_matrices_represent_the_table():
    table = oracles.dihedral_table(5)
    mats = oracles.dihedral_matrices(5)
    for a in range(10):
        for b in range(10):
            assert np.allclose(mats[a] @ mats[b], mats[table[a][b]], atol=1e-12)


def test_kernel_measure_vanishes_on_the_difference_set():
    rng = np.random.default_rng(5)
    shape, chars = (4, 6), [(0, 1), (1, 3), (3, 4)]
    f = oracles.transform(workloads._kernel_measure(rng, shape, chars), shape)
    diff = oracles.difference_exponents(chars, shape)
    assert max(abs(f[k]) for k in diff) < 1e-12
    assert max(abs(f[k]) for k in np.ndindex(*shape) if k not in diff) > 0.1


def test_relabelled_instances_realize_the_same_map():
    base_chars, base = workloads._relabelled(np.random.default_rng(0), 12, 4, 2, base=9)
    for seed in range(1, 4):
        chars, moved = workloads._relabelled(np.random.default_rng(seed), 12, 4, 2, base=9)
        for w0, w1 in zip(base, moved):
            s0 = oracles.symbol(w0, (12,), base_chars)
            s1 = oracles.symbol(w1, (12,), chars)
            assert np.allclose(s0, s1, atol=1e-12)


def test_oracles_agree_with_ehtp_on_a_small_regular_representation():
    from ehtp import Measure, diagonalize, gamma, make_cyclic_product, regular_rep, schur_form
    from ehtp import choi, transfer_matrix

    n = 6
    rng = np.random.default_rng(6)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = make_cyclic_product([n])
    pi = regular_rep(g)
    diag = diagonalize(pi, seed=0)
    labels = [(c.exponents[0],) for c in diag.char_of_index]
    op = gamma(pi, Measure(g, w)).op
    assert np.allclose(schur_form(diag, Measure(g, w)), oracles.symbol(w, (n,), labels), atol=1e-10)
    assert np.allclose(transfer_matrix(op), oracles.regular_transfer(w), atol=1e-12)
    assert np.allclose(choi(op), oracles.regular_choi(w), atol=1e-12)


def test_tracer_rebinds_every_name_and_restores_it():
    import importlib

    import ehtp
    from tracing import Tracer

    gamma_module = importlib.import_module("ehtp.gamma")
    suites = importlib.import_module("ehtp.suites")
    cli = importlib.import_module("ehtp.cli")
    original = gamma_module.gamma
    original_exp = cli.exp_square_example
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = gamma_module.gamma
        assert wrapped is not original
        assert suites.gamma is wrapped and cli.gamma is wrapped and ehtp.gamma is wrapped
        assert cli.EXPERIMENTS["square-example"] is cli.exp_square_example is not original_exp
        g = ehtp.make_cyclic_product([4])
        pi = ehtp.regular_rep(g)
        mu = ehtp.Measure(g, np.arange(4) + 1j)
        suites.homomorphism_residual(pi, mu, mu)
    finally:
        tracer.uninstall()
    assert gamma_module.gamma is original and suites.gamma is original
    assert cli.EXPERIMENTS["square-example"] is original_exp
    summary = tracer.summary()
    assert summary["gamma.gamma.calls"] == 3
    assert summary["measures.convolve.calls"] == 1
    # self times partition the time of the outermost spans
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] is None)
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert abs(self_total - roots) < 1e-9


def test_pool_spans_nest_under_the_span_that_started_the_pool():
    import time
    from concurrent.futures import ThreadPoolExecutor

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inner = tracer.wrap("cli.exp_schur_identity", lambda: time.sleep(0.02))

        def start_pool():
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(lambda _: inner(), range(4)))

        tracer.wrap("cli.main", start_pool)()
    finally:
        tracer.uninstall()
    spans = tracer.spans
    main = next(s for s in spans if s[0] == "cli.main")
    work = [s for s in spans if s[0] == "cli.exp_schur_identity"]
    assert len(work) == 4 and all(s[3] is main for s in work)
    summary = tracer.summary()
    # the two workers overlap, so the union of their spans, not the sum, is
    # taken from cli.main
    assert summary["cli.exp_schur_identity.s"] > summary["cli.main.s"]
    assert 0.0 <= summary["cli.overhead.s"] < 0.5 * summary["cli.main.s"]
