"""Randomized invariant suites shared by the command line and the tests.

Each suite function returns a list of plain-dict records, one per assertion,
with a fixed key layout (``suite``, ``case``, ``identity``, ``passed`` plus
numeric detail), so reports serialize to stable JSON lines.

Randomness policy: everything flows from a single 64-bit seed through
numpy's PCG64.  Each suite owns a fixed stream number, spawned off the seed
with ``SeedSequence(seed, spawn_key=(stream,))``, so results do not depend
on which suites run or in what order.
"""

from __future__ import annotations

import numpy as np

from .elementary import ElementaryOperator
from .errors import (
    TOL,
    EquivalenceViolationError,
    NumericalError,
    RestrictionMismatchError,
)
from .gamma import (
    gamma,
    kernel_test_difference_set,
    kernel_test_tensor_conjugate,
    kernel_test_transfer,
    restriction_spectrum_check,
    slice_identity_residual,
    symbol_residual,
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
    fourier_symbol,
    from_density,
    from_transform,
    in_augmentation_ideal,
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
    "homomorphism_residual",
    "unitality_residual",
    "gamma_report",
    "kernel_verdicts",
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


def _rec(suite: str, case: str, passed, **metrics) -> dict:
    rec = {"suite": suite, "case": case, "identity": IDENTITIES[suite], "passed": bool(passed)}
    rec.update(metrics)
    return rec


def _monotone(trace) -> bool:
    return all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


# ---------------------------------------------------------------------------
# Check primitives, shared with the CLI experiments
# ---------------------------------------------------------------------------


def homomorphism_residual(pi, mu: Measure, nu: Measure) -> float:
    """Frobenius gap between realizing the convolution and composing the
    realizations, measured on transfer matrices."""
    lhs = gamma(pi, convolve(mu, nu)).transfer()
    rhs = gamma(pi, mu).transfer() @ gamma(pi, nu).transfer()
    return float(np.linalg.norm(lhs - rhs))


def unitality_residual(pi) -> float:
    """Distance of the realized unit point mass from the identity map."""
    d = pi.dim
    lhs = gamma(pi, dirac(pi.group, pi.group.identity)).transfer()
    return float(np.linalg.norm(lhs - np.eye(d * d)))


def gamma_report(pi, mu: Measure, diag=None) -> dict:
    """The standard wire report for one realized measure."""
    image = gamma(pi, mu)
    bounds = haagerup_norm_bounds(image.op)
    kernel = {"tensorconj": bool(kernel_test_tensor_conjugate(pi, mu))}
    kernel["diffset"] = bool(kernel_test_difference_set(diag, mu)) if diag is not None else None
    return {
        "homomorphism_resid": homomorphism_residual(pi, mu, mu),
        "cb_upper": float(bounds.upper),
        "mu_norm": float(mu.norm),
        "in_augmentation_ideal": bool(in_augmentation_ideal(mu)),
        "kernel": kernel,
    }


def kernel_verdicts(pi, diag, mu: Measure) -> tuple[bool, bool, bool]:
    """The three kernel predicates for one measure: zero transfer matrix,
    transform vanishing on the difference set, zero tensor-conjugate
    integral."""
    return (kernel_test_transfer(gamma(pi, mu)), kernel_test_difference_set(diag, mu),
            kernel_test_tensor_conjugate(pi, mu))


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
    symbol = fourier_symbol(mu, diag.char_of_index)
    verify = symbol_residual(diag, mu, symbol)

    index_of_square = {sq: n for sq, n in zip(squares, indices)}
    labels = [index_of_square[c.exponents[0]] for c in diag.char_of_index]
    found = []
    max_on = 0.0
    max_off = 0.0
    d = len(labels)
    for j in range(d):
        for kk in range(d):
            value = symbol[j, kk]
            if abs(value) > 0.5:
                found.append((labels[j], labels[kk]))
                max_on = max(max_on, float(abs(value - 1.0)))
            else:
                max_off = max(max_off, float(abs(value)))
    found.sort()
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
# Suites
# ---------------------------------------------------------------------------


def homomorphism_suite(pairs_per_group: int = 100, seed: int = 0) -> list[dict]:
    rng = make_rng(seed, stream=1)
    records = []
    for label, group in homomorphism_roster():
        if group.abelian_shape is None:
            pi = regular_rep(group)
        else:
            pi = random_character_rep(group, rng, max_dim=8)
        resid = unitality_residual(pi)
        records.append(_rec("gamma-homomorphism", f"{label}/unit", resid <= TOL,
                            residual=resid, group=label, dim=pi.dim))
        for i in range(pairs_per_group):
            mu = random_measure(group, rng)
            nu = random_measure(group, rng)
            resid = homomorphism_residual(pi, mu, nu)
            records.append(_rec("gamma-homomorphism", f"{label}/pair-{i:03d}", resid <= TOL,
                                residual=resid, group=label, dim=pi.dim))
    return records


def contractivity_suite(trials: int = 100, seed: int = 0) -> list[dict]:
    rng = make_rng(seed, stream=2)
    records = []
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_12)
        pi = random_character_rep(group, rng, max_dim=6)
        mu = random_measure(group, rng)
        bounds = haagerup_norm_bounds(gamma(pi, mu).op)
        _sub_seed(rng)  # one draw per case, so each seed keeps selecting the same cases
        excess = bounds.upper - mu.norm
        ok = (excess <= TOL * mu.norm and bounds.lower <= bounds.upper * (1 + 1e-12)
              and bounds.width <= NORM_REL_WIDTH * bounds.upper and _monotone(bounds.upper_trace))
        records.append(_rec("contractivity", f"generic-{i:03d}", ok,
                            upper=float(bounds.upper), lower=float(bounds.lower),
                            width=float(bounds.width), tv_norm=float(mu.norm),
                            excess=float(excess), iters=int(bounds.iterations)))
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_12)
        pi = random_character_rep(group, rng, max_dim=6)
        mu = random_positive_measure(group, rng)
        bounds = haagerup_norm_bounds(gamma(pi, mu).op)
        _sub_seed(rng)
        mass = float(mu.total_mass.real)
        resid = abs(bounds.upper - mass)
        ok = resid <= 1e-12 * mass and bounds.lower == bounds.upper
        records.append(_rec("contractivity", f"positive-{i:03d}", ok,
                            upper=float(bounds.upper), mass=mass, residual=float(resid)))
    return records


def schur_suite(trials: int = 200, seed: int = 0) -> list[dict]:
    rng = make_rng(seed, stream=3)
    records = []
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_12)
        pi = random_character_rep(group, rng, max_dim=8)
        mu = random_measure(group, rng)
        _sub_seed(rng)
        diag = diagonalize(pi)
        resid = symbol_residual(diag, mu, fourier_symbol(mu, diag.char_of_index))
        records.append(_rec("schur-identity", f"triple-{i:03d}", resid <= TOL,
                            residual=float(resid), group=_shape_label(group.abelian_shape),
                            dim=pi.dim))
    return records


def square_suite(seed: int = 0) -> list[dict]:
    records = []
    for k in SQUARE_KS:
        scan = square_scan(SQUARE_MODULUS, SQUARE_INDICES, k)
        passed = scan.pop("passed")
        records.append(_rec("square-example", f"N{SQUARE_MODULUS}-k{k}", passed, **scan))
    return records


def kernel_suite(trials: int = 500, seed: int = 0) -> list[dict]:
    rng = make_rng(seed, stream=5)
    records = []
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_12)
        pi = random_character_rep(group, rng, max_dim=6)
        _sub_seed(rng)
        diag = diagonalize(pi)
        if i % 2 == 0:
            flavor, mu = "generic", random_measure(group, rng)
        else:
            flavor, mu = "constructed-kernel", kernel_measure(diag, rng)
        t1, t2, t3 = kernel_verdicts(pi, diag, mu)
        records.append(_rec("kernel-equivalence", f"random-{i:03d}", t1 == t2 == t3,
                            flavor=flavor, transfer=t1, diffset=t2, tensorconj=t3,
                            group=_shape_label(group.abelian_shape)))

    # adversarial block: single-character transforms straddling the boundary
    # of the difference set
    adversarial_shapes = ((7,), (8,), (11,), (12,), (2, 6), (3, 3))
    case = 0
    for shape in adversarial_shapes:
        group = make_cyclic_product(shape)
        pi = character_rep(group, [random_character(group, rng) for _ in range(2)])
        _sub_seed(rng)
        diag = diagonalize(pi)
        diff = difference_set(diag.spectrum).exponent_set()
        off = [c for c in dual_group(group) if c.exponents not in diff]
        on = [c for c in dual_group(group) if c.exponents in diff]
        picks = [("off-diffset", c) for c in off[:3]] + [("on-diffset", c) for c in on[:1]]
        for side, c in picks:
            scale = complex(rng.standard_normal() + 1j * rng.standard_normal())
            mu = from_transform(group, {c.exponents: scale})
            t1, t2, t3 = kernel_verdicts(pi, diag, mu)
            records.append(_rec("kernel-equivalence", f"adversarial-{case:03d}", t1 == t2 == t3,
                                flavor=side, transfer=t1, diffset=t2, tensorconj=t3,
                                group=_shape_label(shape)))
            case += 1
    return records


def cp_posdef_suite(trials: int = 1000, seed: int = 0) -> list[dict]:
    rng = make_rng(seed, stream=6)
    records = []
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_12)
        pi = random_character_rep(group, rng, max_dim=8)
        _sub_seed(rng)
        diag = diagonalize(pi)
        flavor = ("generic", "positive", "symmetric", "unit", "difference")[i % 5]
        if flavor == "generic":
            mu = random_measure(group, rng)
        elif flavor == "positive":
            mu = random_positive_measure(group, rng)
        elif flavor == "symmetric":
            # weights satisfying w(s) = conj(w(s^-1)), so the symbol is Hermitian
            v = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
            mu = Measure(group, v + np.conj(v[group.inverse]))
        elif flavor == "unit":
            mu = dirac(group, group.identity) * float(rng.random() + 0.5)
        else:
            s = int(rng.integers(group.order))
            mu = (dirac(group, s) - dirac(group, group.identity)) * float(rng.random() + 0.5)
        try:
            report = equivalence_suite(diag, mu, trials=CP_SAMPLE_TRIALS, seed=_sub_seed(rng))
        except (EquivalenceViolationError, NumericalError) as exc:
            records.append(_rec("cp-posdef-equivalence", f"triple-{i:04d}", False,
                                flavor=flavor, error=str(exc)))
            continue
        ok = report.consistent
        if report.completely_positive and report.kraus_count:
            ok = ok and report.kraus_min_singular > TOL
        records.append(_rec("cp-posdef-equivalence", f"triple-{i:04d}", ok,
                            flavor=flavor, cp=report.completely_positive,
                            posdef=report.positive_definite,
                            sampled=report.sampled_positive,
                            kraus_count=int(report.kraus_count),
                            kraus_min_singular=report.kraus_min_singular,
                            kraus_diagonality=report.kraus_diagonality))
    return records


def norm_interval_suite(trials: int = 100, seed: int = 0) -> list[dict]:
    rng = make_rng(seed, stream=7)
    records = []
    for i in range(trials):
        d = int(rng.integers(1, 7))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        t = ElementaryOperator.from_terms(d, [(a, b)])
        bounds = haagerup_norm_bounds(t)
        _sub_seed(rng)
        target = float(np.linalg.norm(a, 2) * np.linalg.norm(b, 2))
        contains = (bounds.lower <= target * (1 + 1e-12)
                    and bounds.upper >= target * (1 - 1e-12))
        ok = (contains and bounds.width <= NORM_REL_WIDTH * bounds.upper
              and _monotone(bounds.upper_trace))
        records.append(_rec("norm-interval", f"single-term-{i:03d}", ok,
                            lower=float(bounds.lower), upper=float(bounds.upper),
                            width=float(bounds.width), target=target, dim=d,
                            iters=int(bounds.iterations)))
    return records


def slice_suite(instances: int = 100, functionals: int = 50, seed: int = 0) -> list[dict]:
    rng = make_rng(seed, stream=8)
    s3 = from_cayley(s3_cayley())
    records = []
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
        records.append(_rec("slice-identity", f"instance-{i:03d}", worst <= TOL,
                            residual=float(worst), group=label, dim=d,
                            functionals=functionals))
    return records


def cyclic_vector_suite(trials: int = 100, seed: int = 0) -> list[dict]:
    rng = make_rng(seed, stream=9)
    records = []
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
        records.append(_rec("cyclic-vector", f"instance-{i:03d}", rank_joint == rank_orbit,
                            dim=d, vectors=count, rank_orbit=rank_orbit,
                            rank_joint=rank_joint))
    return records


def restriction_suite(trials: int = 50, seed: int = 0) -> list[dict]:
    rng = make_rng(seed, stream=10)
    records = []
    for i in range(trials):
        group = _pick_group(rng, SHAPE_POOL_24)
        generators = [int(rng.integers(group.order)) for _ in range(int(rng.integers(1, 3)))]
        sub = subgroup_and_restriction(group, generators)
        pi = random_character_rep(group, rng, max_dim=8)
        try:
            report = restriction_spectrum_check(pi, sub, seed=_sub_seed(rng))
        except (RestrictionMismatchError, NumericalError) as exc:
            records.append(_rec("restriction-check", f"instance-{i:03d}", False,
                                group=_shape_label(group.abelian_shape),
                                subgroup_order=sub.subgroup.order, error=str(exc)))
            continue
        records.append(_rec("restriction-check", f"instance-{i:03d}",
                            report.match and report.symbol_residual <= TOL,
                            group=_shape_label(group.abelian_shape),
                            subgroup_order=sub.subgroup.order,
                            spectrum_size=len(report.expected_exponents),
                            symbol_residual=float(report.symbol_residual)))
    return records


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_SUITE_SPECS = (
    ("gamma-homomorphism", homomorphism_suite, {"pairs_per_group": 100}, {"pairs_per_group": 10}),
    ("contractivity", contractivity_suite, {"trials": 100}, {"trials": 10}),
    ("schur-identity", schur_suite, {"trials": 200}, {"trials": 20}),
    ("square-example", square_suite, {}, {}),
    ("kernel-equivalence", kernel_suite, {"trials": 500}, {"trials": 50}),
    ("cp-posdef-equivalence", cp_posdef_suite, {"trials": 1000}, {"trials": 100}),
    ("norm-interval", norm_interval_suite, {"trials": 100}, {"trials": 10}),
    ("slice-identity", slice_suite, {"instances": 100, "functionals": 50},
     {"instances": 10, "functionals": 10}),
    ("cyclic-vector", cyclic_vector_suite, {"trials": 100}, {"trials": 20}),
    ("restriction-check", restriction_suite, {"trials": 50}, {"trials": 10}),
)

SUITE_NAMES = tuple(name for name, *_ in _SUITE_SPECS)


def run_all(seed: int = 0, quick: bool = False, names=None) -> list[dict]:
    """Run the registered suites one after another and return their records
    in registry order.

    ``quick`` switches every suite to its reduced trial counts.
    """
    selected = [spec for spec in _SUITE_SPECS if names is None or spec[0] in names]
    if names is not None:
        unknown = set(names) - {spec[0] for spec in _SUITE_SPECS}
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
    records: list[dict] = []
    for _, fn, full_kwargs, quick_kwargs in selected:
        records.extend(fn(seed=seed, **(quick_kwargs if quick else full_kwargs)))
    return records