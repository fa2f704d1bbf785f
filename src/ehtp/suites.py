"""Randomized invariant suites, and the checks they share with the command
line.

Each check gates one identity and returns a record body: ``passed`` plus the
measurements its gate read.  The suites and the ``ehtp run`` experiments call
the same checks, so each gate is written once; :func:`record` adds the fixed
keys (``suite``, ``case``, ``identity``) and the caller's context fields, so
reports serialize to stable JSON lines.

Each suite is a generator: it yields one record per case as the case's
check returns, so a caller that writes records as they arrive (``ehtp
selftest --out``) holds one record at a time, whatever the trial counts.
Wrap a suite in ``list(...)`` to keep its records.

Randomness policy: everything flows from a single 64-bit seed through
numpy's PCG64.  Each suite owns a fixed stream number, spawned off the seed
with ``SeedSequence(seed, spawn_key=(stream,))``, so results do not depend
on which suites run or in what order.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

import numpy as np

from .elementary import ElementaryOperator, choi_distance, composition_distance
from .errors import TOL
from .gamma import (
    checked_symbol,
    gamma,
    kernel_test_difference_set,
    kernel_test_transfer,
    restriction_spectrum_check,
    slice_identity_residual,
)
from .groups import (
    Character,
    FiniteGroup,
    difference_set,
    dual_group,
    from_cayley,
    make_cyclic_product,
    subgroup_and_restriction,
)
from .hnorm import haagerup_norm_bounds
from .measures import (
    Measure,
    convolve,
    dirac,
    from_density,
    from_transform,
    in_augmentation_ideal,
    reverse_conj,
)
from .representations import (
    block_algebra_basis,
    character_rep,
    cyclic_vector,
    diagonalize,
    regular_rep,
)
from .varopoulos import equivalence_suite

__all__ = [
    "make_rng",
    "s3_cayley",
    "homomorphism_roster",
    "random_measure",
    "random_positive_measure",
    "random_character_rep",
    "record",
    "homomorphism_residual",
    "unit_check",
    "homomorphism_check",
    "symbol_check",
    "kernel_check",
    "cp_posdef_check",
    "restriction_check",
    "norm_check",
    "gamma_report",
    "kernel_measure",
    "square_scan",
    "homomorphism_suite",
    "contractivity_suite",
    "schur_suite",
    "square_suite",
    "kernel_suite",
    "cp_posdef_suite",
    "norm_interval_suite",
    "slice_suite",
    "cyclic_vector_suite",
    "restriction_suite",
    "run_all",
    "SUITE_NAMES",
    "IDENTITIES",
]

# One-line statement of the identity each suite exercises; embedded in every
# record under the "identity" key so reports are self-describing.
IDENTITIES = {
    "gamma-homomorphism": "convolution maps to composition; the unit point mass maps to the identity map",
    "contractivity": "cb upper bound is at most the total variation norm; positive measures attain their total mass",
    "schur-identity": "in the joint eigenbasis the map scales entry (j,k) by the transform at chi_j/chi_k",
    "square-example": "with quadratic-exponent characters the symbol is 1 exactly where m^2 - n^2 = k (mod N)",
    "kernel-equivalence": "zero transfer matrix, transform vanishing on the difference set, and zero tensor-conjugate integral agree",
    "cp-posdef-equivalence": "complete positivity of the realized map equals positive semidefiniteness of its symbol",
    "norm-interval": "the bracket contains the cb norm; a single term attains the product of operator norms",
    "slice-identity": "left slice equals the integrated reversal of the functional-weighted measure",
    "cyclic-vector": "the orbit of the built vector under the block-diagonal algebra spans the inputs",
    "restriction-check": "the spectrum of a restricted representation is the restriction of the spectrum",
}

# Abelian shapes used when a suite draws a random group.
SHAPE_POOL_12 = (
    (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,), (12,),
    (2, 2), (2, 4), (2, 6), (3, 3), (2, 2, 3),
)
SHAPE_POOL_24 = SHAPE_POOL_12 + (
    (13,), (15,), (16,), (18,), (20,), (21,), (24,),
    (2, 8), (2, 10), (2, 12), (3, 6), (4, 4), (2, 2, 4), (2, 2, 6), (2, 3, 4),
)

_MAX_SEED = 2**63
SQUARE_MODULUS = 101       # the square-example suite's group Z_N, index set and shifts k
SQUARE_INDICES = (1, 2, 3, 4, 5, 6)
SQUARE_KS = (5, 7, 9)
CP_SAMPLE_TRIALS = 20      # sampled states per cp-posdef triple
NORM_REL_WIDTH = 1e-6      # widest cb-norm bracket, relative to its upper end


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The package-wide random source: PCG64 keyed by one 64-bit seed.

    ``stream`` isolates consumers (one fixed number per suite) via the seed
    sequence spawn key.
    """
    root = np.random.SeedSequence(int(seed) & (2**64 - 1), spawn_key=(int(stream),))
    return np.random.default_rng(np.random.PCG64(root))


def s3_cayley() -> list[list[int]]:
    """Cayley table of the symmetric group on three letters (order 6,
    non-abelian), with elements indexed as flip * 3 + rotation."""
    def mul(a: int, b: int) -> int:
        r1, f1 = a % 3, a // 3
        r2, f2 = b % 3, b // 3
        r = (r1 + (r2 if f1 == 0 else -r2)) % 3
        return (f1 ^ f2) * 3 + r

    return [[mul(a, b) for b in range(6)] for a in range(6)]


def _shape_label(shape) -> str:
    return "x".join(f"Z{n}" for n in shape)


def homomorphism_roster() -> list[tuple[str, FiniteGroup]]:
    """The groups the homomorphism suite runs over: all cyclic groups up to
    order 12, two products, and one non-abelian order-6 Cayley group."""
    groups: list[tuple[str, FiniteGroup]] = []
    for n in range(2, 13):
        groups.append((f"Z{n}", make_cyclic_product([n])))
    for shape in ((2, 2), (2, 4)):
        groups.append((_shape_label(shape), make_cyclic_product(shape)))
    groups.append(("S3", from_cayley(s3_cayley())))
    return groups


def _pick_group(rng: np.random.Generator, pool) -> FiniteGroup:
    return make_cyclic_product(pool[int(rng.integers(len(pool)))])


def random_measure(group: FiniteGroup, rng: np.random.Generator) -> Measure:
    w = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return Measure(group, w)


def random_positive_measure(group: FiniteGroup, rng: np.random.Generator) -> Measure:
    return Measure(group, rng.random(group.order))


def random_character(group: FiniteGroup, rng: np.random.Generator) -> Character:
    shape = group.abelian_shape
    assert shape is not None
    return Character(shape, tuple(int(rng.integers(n)) for n in shape))


def random_character_rep(group: FiniteGroup, rng: np.random.Generator, max_dim: int = 8):
    d = int(rng.integers(1, max_dim + 1))
    return character_rep(group, [random_character(group, rng) for _ in range(d)])


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(_MAX_SEED))


def record(suite: str, case: str, body: dict, **context) -> dict:
    """One report record: the suite, the case and its identity, then a
    check's body (``passed`` plus its measurements) and the caller's
    context fields."""
    rec = {"suite": suite, "case": case, "identity": IDENTITIES[suite], **body, **context}
    rec["passed"] = bool(rec["passed"])
    return rec


# ---------------------------------------------------------------------------
# Checks, shared with the CLI experiments: each returns a record body,
# ``passed`` plus the measurements its gate read
# ---------------------------------------------------------------------------


def homomorphism_residual(pi, mu: Measure, nu: Measure) -> float:
    """Frobenius gap between realizing the convolution and composing the
    realizations, measured on transfer matrices by
    :func:`ehtp.elementary.composition_distance`: one d^4 array, the
    transfer matrix of ``gamma(pi, mu)``, plus column blocks of the other
    two and of the product, which is still one d^6 product."""
    return composition_distance(gamma(pi, convolve(mu, nu)).op, gamma(pi, mu).op, gamma(pi, nu).op)


def unit_check(pi, tol: float = TOL) -> dict:
    """The realized unit point mass is the identity map: the Frobenius
    distance of their transfer matrices, taken from the terms by
    :func:`ehtp.elementary.choi_distance`."""
    identity = ElementaryOperator.from_terms(pi.dim, [(np.eye(pi.dim), np.eye(pi.dim))])
    resid = choi_distance(gamma(pi, dirac(pi.group, pi.group.identity)).op, identity)
    return {"passed": resid <= tol, "residual": resid}


def homomorphism_check(pi, mu: Measure, nu: Measure, tol: float = TOL) -> dict:
    """Convolution maps to composition, to ``tol * d * ||mu||_1 * ||nu||_1``:
    each d^2 x d^2 transfer matrix has operator norm at most its measure's
    l1 norm, so Frobenius norm at most d times that."""
    resid = homomorphism_residual(pi, mu, nu)
    return {"passed": resid <= tol * pi.dim * mu.norm * nu.norm, "residual": resid}


def symbol_check(diag, mu: Measure, tol: float = TOL) -> dict:
    """The map acts as its Fourier symbol, to ``tol * ||mu||_1``: the gate
    :func:`ehtp.gamma.schur_form` raises at."""
    _, resid, ok = checked_symbol(diag, mu, tol)
    return {"passed": ok, "residual": float(resid)}


def kernel_check(pi, diag, mu: Measure) -> dict:
    """The kernel criterion: the realized map vanishes exactly when the
    transform vanishes on the difference set, each to ``TOL`` at its own
    scale.  The zero transfer matrix and the zero tensor-conjugate integral
    are one Frobenius norm (see :func:`ehtp.gamma.kernel_test_tensor_conjugate`),
    read once and reported under both names."""
    zero_map = kernel_test_transfer(gamma(pi, mu))
    diffset = kernel_test_difference_set(diag, mu)
    return {"passed": zero_map == diffset, "transfer": zero_map, "diffset": diffset,
            "tensorconj": zero_map}


def cp_posdef_check(diag, mu: Measure, trials: int, seed: int, tol: float = TOL) -> dict:
    """Complete positivity equals positive semidefiniteness of the symbol,
    sampled positivity holds on a completely positive map, the Gram and
    Kraus families have the same size, and a completely positive map's
    Kraus family is independent and diagonal in the eigenbasis.  The
    criteria read ``tol`` (:func:`ehtp.varopoulos.equivalence_suite`); the
    two Kraus gates do not, since they are relative to the family's own
    scale: the family is built with a condition number of at most
    ``CUTOFF ** -0.5``, so they fail only on a broken extraction, at any
    scale of ``mu``."""
    report = equivalence_suite(diag, mu, trials=trials, tol=tol, seed=seed)
    cp = report.completely_positive
    ok = (report.consistent and report.gram_count == report.kraus_count
          and (report.sampled_positive or not cp))
    if report.kraus_count:          # so cp
        ok = ok and report.kraus_min_singular > TOL * report.kraus_max_singular
        # relative to the largest Kraus norm: an element of a Choi eigenvalue
        # near the cutoff is accurate only to that scale
        ok = ok and report.kraus_diagonality <= TOL
    return {"passed": ok, "cp": cp,
            "posdef": report.positive_definite, "sampled": report.sampled_positive,
            "kraus_count": int(report.kraus_count), "gram_count": int(report.gram_count),
            "kraus_min_singular": report.kraus_min_singular,
            "kraus_diagonality": report.kraus_diagonality}


def restriction_check(pi, sub, seed: int, tol: float = TOL) -> dict:
    """Restricting the representation restricts its spectrum (the two
    exponent sets of :func:`ehtp.gamma.restriction_spectrum_check` are
    equal), and the restricted symbol identity holds on a random measure
    ``kappa``, to ``tol * ||kappa||_1``: the gate :func:`symbol_check`
    reads.  Both exponent lists are recorded, so a failed record shows
    how the spectra differ."""
    report = restriction_spectrum_check(pi, sub, seed=seed, tol=tol)
    return {"passed": report.match and report.symbol_ok,
            "subgroup_order": sub.subgroup.order,
            "spectrum_size": len(report.expected_exponents),
            "expected_exponents": [list(e) for e in report.expected_exponents],
            "actual_exponents": [list(e) for e in report.actual_exponents],
            "symbol_residual": float(report.symbol_residual)}


def norm_check(op: ElementaryOperator, mu: Measure | None = None, tol: float = TOL) -> dict:
    """The cb-norm bracket of ``op`` is not crossed, is at most
    ``NORM_REL_WIDTH`` wide relative to its upper end, and its upper trace
    never rises, not even by rounding: on every path it is a running minimum
    times a positive scale; given the measure ``op`` realizes, its upper end
    is at most ``||mu||_1``, to ``tol`` relative (contractivity)."""
    bounds = haagerup_norm_bounds(op)
    trace = bounds.upper_trace
    ok = (bounds.lower <= bounds.upper * (1 + 1e-12) and bounds.width <= NORM_REL_WIDTH * bounds.upper
          and all(b <= a for a, b in zip(trace, trace[1:])))
    body = {**bounds.report(), "width": float(bounds.width)}
    if mu is not None:
        body["excess"] = float(bounds.upper - mu.norm)
        ok = ok and body["excess"] <= tol * mu.norm
    return {"passed": ok, **body}


def gamma_report(pi, mu: Measure, diag=None, tol: float = TOL) -> dict:
    """The standard wire report for one realized measure, passed when the
    homomorphism law holds for ``mu * mu`` and the map is contractive."""
    pair = homomorphism_check(pi, mu, mu, tol)
    image = gamma(pi, mu)
    norm = norm_check(image.op, mu, tol)
    # kernel_test_tensor_conjugate(pi, mu) is this predicate of a new image
    kernel = {"tensorconj": bool(kernel_test_transfer(image))}
    kernel["diffset"] = bool(kernel_test_difference_set(diag, mu)) if diag is not None else None
    return {
        "passed": pair["passed"] and norm["passed"],
        "homomorphism_resid": pair["residual"],
        "cb_upper": norm["upper"],
        "mu_norm": float(mu.norm),
        "in_augmentation_ideal": bool(in_augmentation_ideal(mu)),
        "kernel": kernel,
    }


def kernel_measure(diag, rng: np.random.Generator) -> Measure:
    """A measure the realization sends to zero: its transform is drawn at
    random off the difference set of the spectrum, one ``(re, im)`` pair per
    character in dual-group order, and vanishes on the difference set."""
    group = diag.rep.group
    diff = difference_set(diag.spectrum).exponent_set()
    coeffs = {c.exponents: complex(rng.standard_normal(), rng.standard_normal())
              for c in dual_group(group) if c.exponents not in diff}
    return from_transform(group, coeffs)


def square_scan(modulus: int, indices, k: int, tol: float = TOL) -> dict:
    """Exhaustive-oracle comparison for the quadratic-exponent symbol.

    The oracle scans all index pairs with exact integer arithmetic first;
    the symbol is then computed through the full pipeline (diagonalization
    included) and must be 1 on the oracle pairs and 0 elsewhere, to ``tol``.
    """
    indices = [int(n) for n in indices]
    modulus = int(modulus)
    if modulus < 1:
        raise ValueError(f"modulus must be a positive integer, got {modulus}")
    squares = [n * n % modulus for n in indices]
    if len(set(squares)) != len(squares):
        raise ValueError("indices have colliding squares modulo N; pairs would be ambiguous")
    oracle = sorted(
        (n, m) for n in indices for m in indices if (m * m - n * n) % modulus == k % modulus
    )

    group = make_cyclic_product([modulus])
    pi = character_rep(group, [Character((modulus,), (sq,)) for sq in squares])
    diag = diagonalize(pi)
    mu = from_density(group, Character((modulus,), (int(k),)).values(group))
    symbol, verify, _ = checked_symbol(diag, mu, tol)

    index_of_square = {sq: n for sq, n in zip(squares, indices)}
    labels = [index_of_square[c.exponents[0]] for c in diag.char_of_index]
    # moduli by hypot, the rounding of scalar abs (np.abs on a complex array
    # may differ in the last bit), so the deviations keep their digits
    magnitude = np.hypot(symbol.real, symbol.imag)
    on = magnitude > 0.5
    found = sorted((labels[j], labels[kk]) for j, kk in zip(*np.nonzero(on)))
    gap = symbol[on] - 1.0
    max_on = float(np.hypot(gap.real, gap.imag).max(initial=0.0))
    max_off = float(magnitude[~on].max(initial=0.0))
    return {
        "modulus": modulus,
        "k": int(k),
        "oracle_pairs": [list(p) for p in oracle],
        "found_pairs": [list(p) for p in found],
        "max_on_deviation": max_on,
        "max_off_deviation": max_off,
        "symbol_verification": float(verify),
        "passed": found == oracle and max_on <= tol and max_off <= tol,
    }


# ---------------------------------------------------------------------------
# Suites: generators that yield one record per case as its check returns
# ---------------------------------------------------------------------------


def homomorphism_suite(pairs_per_group: int = 100, seed: int = 0) -> Iterator[dict]:
    rng = make_rng(seed, stream=1)
    for label, group in homomorphism_roster():
        if group.abelian_shape is None:
            pi = regular_rep(group)
        else:
            pi = random_character_rep(group, rng, max_dim=8)
        yield record("gamma-homomorphism", f"{label}/unit", unit_check(pi),
                     group=label, dim=pi.dim)
        for i in range(pairs_per_group):
            mu = random_measure(group, rng)
            nu = random_measure(group, rng)
            yield record("gamma-homomorphism", f"{label}/pair-{i:03d}",
                         homomorphism_check(pi, mu, nu), group=label, dim=pi.dim)


def contractivity_suite(trials: int = 100, seed: int = 0) -> Iterator[dict]:
    rng = make_rng(seed, stream=2)
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_12)
        pi = random_character_rep(group, rng, max_dim=6)
        mu = random_measure(group, rng)
        body = norm_check(gamma(pi, mu).op, mu)
        yield record("contractivity", f"generic-{i:03d}", body, tv_norm=float(mu.norm))
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_12)
        pi = random_character_rep(group, rng, max_dim=6)
        mu = random_positive_measure(group, rng)
        bounds = haagerup_norm_bounds(gamma(pi, mu).op)
        mass = float(mu.total_mass.real)
        resid = abs(bounds.upper - mass)
        ok = resid <= 1e-12 * mass and bounds.lower == bounds.upper
        yield record("contractivity", f"positive-{i:03d}",
                     {"passed": ok, "upper": float(bounds.upper), "mass": mass,
                      "residual": float(resid)})


def schur_suite(trials: int = 200, seed: int = 0) -> Iterator[dict]:
    rng = make_rng(seed, stream=3)
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_12)
        pi = random_character_rep(group, rng, max_dim=8)
        mu = random_measure(group, rng)
        yield record("schur-identity", f"triple-{i:03d}", symbol_check(diagonalize(pi), mu),
                     group=_shape_label(group.abelian_shape), dim=pi.dim)


def square_suite(seed: int = 0) -> Iterator[dict]:
    for k in SQUARE_KS:
        yield record("square-example", f"N{SQUARE_MODULUS}-k{k}",
                     square_scan(SQUARE_MODULUS, SQUARE_INDICES, k))


def kernel_suite(trials: int = 500, seed: int = 0) -> Iterator[dict]:
    rng = make_rng(seed, stream=5)
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_12)
        pi = random_character_rep(group, rng, max_dim=6)
        diag = diagonalize(pi)
        if i % 2 == 0:
            flavor, mu = "generic", random_measure(group, rng)
        else:
            flavor, mu = "constructed-kernel", kernel_measure(diag, rng)
        yield record("kernel-equivalence", f"random-{i:03d}", kernel_check(pi, diag, mu),
                     flavor=flavor, group=_shape_label(group.abelian_shape))

    # adversarial block: single-character transforms straddling the boundary
    # of the difference set
    adversarial_shapes = ((7,), (8,), (11,), (12,), (2, 6), (3, 3))
    case = 0
    for shape in adversarial_shapes:
        group = make_cyclic_product(shape)
        pi = character_rep(group, [random_character(group, rng) for _ in range(2)])
        diag = diagonalize(pi)
        diff = difference_set(diag.spectrum).exponent_set()
        off = [c for c in dual_group(group) if c.exponents not in diff]
        on = [c for c in dual_group(group) if c.exponents in diff]
        picks = [("off-diffset", c) for c in off[:3]] + [("on-diffset", c) for c in on[:1]]
        for side, c in picks:
            scale = complex(rng.standard_normal() + 1j * rng.standard_normal())
            mu = from_transform(group, {c.exponents: scale})
            yield record("kernel-equivalence", f"adversarial-{case:03d}",
                         kernel_check(pi, diag, mu), flavor=side, group=_shape_label(shape))
            case += 1


def cp_posdef_suite(trials: int = 1000, seed: int = 0) -> Iterator[dict]:
    rng = make_rng(seed, stream=6)
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_12)
        pi = random_character_rep(group, rng, max_dim=8)
        diag = diagonalize(pi)
        flavor = ("generic", "positive", "symmetric", "unit", "difference")[i % 5]
        if flavor == "generic":
            mu = random_measure(group, rng)
        elif flavor == "positive":
            mu = random_positive_measure(group, rng)
        elif flavor == "symmetric":
            # fixed by the involution, w(s) = conj(w(s^-1)), so the symbol is Hermitian
            nu = random_measure(group, rng)
            mu = nu + reverse_conj(nu)
        elif flavor == "unit":
            mu = dirac(group, group.identity) * float(rng.random() + 0.5)
        else:
            s = int(rng.integers(group.order))
            mu = (dirac(group, s) - dirac(group, group.identity)) * float(rng.random() + 0.5)
        body = cp_posdef_check(diag, mu, CP_SAMPLE_TRIALS, _sub_seed(rng))
        yield record("cp-posdef-equivalence", f"triple-{i:04d}", body, flavor=flavor)


def norm_interval_suite(trials: int = 100, seed: int = 0) -> Iterator[dict]:
    rng = make_rng(seed, stream=7)
    for i in range(trials):
        d = int(rng.integers(1, 7))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        body = norm_check(ElementaryOperator.from_terms(d, [(a, b)]))
        target = float(np.linalg.norm(a, 2) * np.linalg.norm(b, 2))
        body["passed"] = (body["passed"] and body["lower"] <= target * (1 + 1e-12)
                          and body["upper"] >= target * (1 - 1e-12))
        yield record("norm-interval", f"single-term-{i:03d}", body, target=target, dim=d)


def slice_suite(instances: int = 100, functionals: int = 50, seed: int = 0) -> Iterator[dict]:
    rng = make_rng(seed, stream=8)
    s3 = from_cayley(s3_cayley())
    for i in range(instances):
        if i % 10 == 9:
            group, pi, label = s3, regular_rep(s3), "S3"
        else:
            group = _pick_group(rng, SHAPE_POOL_12)
            pi = random_character_rep(group, rng, max_dim=8)
            label = _shape_label(group.abelian_shape)
        mu = random_measure(group, rng)
        image = gamma(pi, mu)
        d = pi.dim
        worst = 0.0
        for _ in range(functionals):
            w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            worst = max(worst, slice_identity_residual(image, w))
        yield record("slice-identity", f"instance-{i:03d}",
                     {"passed": worst <= TOL, "residual": float(worst)},
                     group=label, dim=d, functionals=functionals)


def cyclic_vector_suite(trials: int = 100, seed: int = 0) -> Iterator[dict]:
    rng = make_rng(seed, stream=9)
    for i in range(trials):
        d = int(rng.integers(1, 11))
        count = int(rng.integers(1, 5))
        vectors = []
        for _ in range(count):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            if i % 2 == 1:
                # sparse supports exercise the first-touch bookkeeping
                mask = rng.random(d) < 0.5
                v = np.where(mask, v, 0.0)
            vectors.append(v)
        xi = cyclic_vector([1] * d, vectors)
        orbit = np.stack([m @ xi for m in block_algebra_basis([1] * d)], axis=1)
        target = np.stack(vectors, axis=1)
        rank_orbit = int(np.linalg.matrix_rank(orbit, tol=TOL))
        rank_joint = int(np.linalg.matrix_rank(np.concatenate([orbit, target], axis=1), tol=TOL))
        yield record("cyclic-vector", f"instance-{i:03d}",
                     {"passed": rank_joint == rank_orbit, "rank_orbit": rank_orbit,
                      "rank_joint": rank_joint}, dim=d, vectors=count)


def restriction_suite(trials: int = 50, seed: int = 0) -> Iterator[dict]:
    rng = make_rng(seed, stream=10)
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_24)
        generators = [int(rng.integers(group.order)) for _ in range(int(rng.integers(1, 3)))]
        sub = subgroup_and_restriction(group, generators)
        pi = random_character_rep(group, rng, max_dim=8)
        yield record("restriction-check", f"instance-{i:03d}", restriction_check(pi, sub, _sub_seed(rng)),
                     group=_shape_label(group.abelian_shape))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# (name, suite, quick sizes): a full run takes each suite's own defaults
_SUITE_SPECS = (
    ("gamma-homomorphism", homomorphism_suite, {"pairs_per_group": 10}),
    ("contractivity", contractivity_suite, {"trials": 10}),
    ("schur-identity", schur_suite, {"trials": 20}),
    ("square-example", square_suite, {}),
    ("kernel-equivalence", kernel_suite, {"trials": 50}),
    ("cp-posdef-equivalence", cp_posdef_suite, {"trials": 100}),
    ("norm-interval", norm_interval_suite, {"trials": 10}),
    ("slice-identity", slice_suite, {"instances": 10, "functionals": 10}),
    ("cyclic-vector", cyclic_vector_suite, {"trials": 20}),
    ("restriction-check", restriction_suite, {"trials": 10}),
)

SUITE_NAMES = tuple(name for name, *_ in _SUITE_SPECS)


def run_all(seed: int = 0, quick: bool = False) -> Iterator[dict]:
    """The records of every registered suite, in registry order, as one lazy
    stream: a suite starts when the one before it is exhausted, and each
    record is computed when it is read.  A full run takes each suite's own
    default sizes; ``quick`` takes the reduced sizes of the registry."""
    return chain.from_iterable(fn(seed=seed, **(quick_sizes if quick else {}))
                               for _, fn, quick_sizes in _SUITE_SPECS)
