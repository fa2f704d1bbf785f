"""Full-size acceptance gate.

One test per shipped guarantee, each running the corresponding randomized
suite at its full trial count and stated tolerance. ``pytest -v`` therefore
prints one pass/fail line per guarantee.
"""

import time

from ehtp.suites import (
    contractivity_suite,
    cp_posdef_suite,
    cyclic_vector_suite,
    homomorphism_roster,
    homomorphism_suite,
    kernel_suite,
    norm_interval_suite,
    restriction_suite,
    schur_suite,
    slice_suite,
    square_suite,
)


def _failures(records):
    return [r for r in records if not r["passed"]]


def test_transfer_composition_is_multiplicative_across_group_roster():
    # cyclic orders 2..12, two cyclic products, one non-abelian order-6 group;
    # 100 random measure pairs each, Frobenius residual at 1e-9, under 30 s
    names = [name for name, _ in homomorphism_roster()]
    assert names == [f"Z{n}" for n in range(2, 13)] + ["Z2xZ2", "Z2xZ4", "S3"]
    start = time.perf_counter()
    records = list(homomorphism_suite(pairs_per_group=100, seed=0))
    elapsed = time.perf_counter() - start
    pair_records = [r for r in records if "/pair-" in r["case"]]
    assert len(pair_records) == 100 * len(names)
    assert not _failures(records), _failures(records)[:3]
    assert max(r["residual"] for r in records) <= 1e-9
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"


def test_cb_upper_bound_contracts_total_variation_and_is_exact_on_positive_mass():
    # upper bound never exceeds the total variation norm by more than 1e-9;
    # for 100 positive measures the fast path returns the total mass exactly
    records = list(contractivity_suite(trials=100, seed=0))
    assert not _failures(records), _failures(records)[:3]
    generic = [r for r in records if r["case"].startswith("generic")]
    positive = [r for r in records if r["case"].startswith("positive")]
    assert len(generic) == 100 and len(positive) == 100
    assert max(r["excess"] for r in generic) <= 1e-9
    assert max(r["residual"] for r in positive) <= 1e-12
    assert all(r["upper"] == r["mass"] + r["residual"] or r["residual"] <= 1e-12
               for r in positive)


def test_diagonal_rep_action_matches_fourier_symbol_entrywise():
    # 200 random (abelian group, diagonalized rep, measure) triples, d <= 8
    records = list(schur_suite(trials=200, seed=0))
    assert len(records) == 200
    assert not _failures(records), _failures(records)[:3]
    assert max(r["dim"] for r in records) <= 8
    assert max(r["residual"] for r in records) <= 1e-9


def test_square_difference_scan_finds_unique_pairs():
    # mod 101 with square indices 1..6: the entrywise action has exactly one
    # active pair per offset, located by an exhaustive integer scan first
    records = list(square_suite(seed=0))
    assert not _failures(records), records
    by_k = {r["case"]: r for r in records}
    assert by_k["N101-k5"]["found_pairs"] == [[2, 3]]
    assert by_k["N101-k7"]["found_pairs"] == [[3, 4]]
    assert by_k["N101-k9"]["found_pairs"] == [[4, 5]]
    for r in records:
        assert r["oracle_pairs"] == r["found_pairs"]
        assert r["max_on_deviation"] <= 1e-10
        assert r["max_off_deviation"] <= 1e-10


def test_three_kernel_predicates_agree_on_random_and_adversarial_instances():
    # 500 randomized instances (half with transforms prescribed off the
    # difference set) plus boundary single-character cases: the transfer-zero,
    # difference-set and tensor-conjugate verdicts must never disagree
    records = list(kernel_suite(trials=500, seed=0))
    random_cases = [r for r in records if r["case"].startswith("random")]
    adversarial = [r for r in records if r["case"].startswith("adversarial")]
    assert len(random_cases) == 500 and adversarial
    disagreements = [r for r in records
                     if not (r["transfer"] == r["diffset"] == r["tensorconj"])]
    assert not disagreements, disagreements[:3]
    assert not _failures(records)
    assert any(r["flavor"] == "constructed-kernel" for r in random_cases)


def test_choi_positivity_matches_symbol_positivity_with_valid_kraus_families():
    # 1000 triples, zero verdict disagreements; every completely positive
    # instance yields a strongly independent Kraus family (stacked
    # vectorizations well-conditioned) of eigenbasis-diagonal elements
    records = list(cp_posdef_suite(trials=1000, seed=0))
    assert len(records) == 1000
    disagreements = [r for r in records if "cp" in r and r["cp"] != r["posdef"]]
    assert not disagreements, disagreements[:3]
    assert not _failures(records), _failures(records)[:3]
    assert all(r["gram_count"] == r["kraus_count"] for r in records)
    cp_cases = [r for r in records if r.get("cp") and r["kraus_count"]]
    assert cp_cases
    assert min(r["kraus_min_singular"] for r in cp_cases) > 1e-9
    assert max(r["kraus_diagonality"] for r in cp_cases) <= 1e-8


def test_single_term_norm_interval_brackets_spectral_product():
    # 100 random rank-one-term operators with d <= 6: the interval contains
    # ||a||*||b||, closes to 1e-4 relative width within 500 iterations, and
    # the logged upper-bound trace is monotone non-increasing
    records = list(norm_interval_suite(trials=100, seed=0))
    assert len(records) == 100
    assert not _failures(records), _failures(records)[:3]
    for r in records:
        assert r["lower"] <= r["target"] * (1 + 1e-12)
        assert r["upper"] >= r["target"] * (1 - 1e-12)
        assert r["width"] <= 1e-4 * r["target"]
        assert r["iters"] <= 500


def test_functional_slices_match_reweighted_integrals():
    # slicing the image against 50 random functionals per instance agrees
    # with integrating the reweighted measure, over 100 (rep, measure) pairs
    records = list(slice_suite(instances=100, functionals=50, seed=0))
    assert len(records) == 100
    assert not _failures(records), _failures(records)[:3]
    assert max(r["residual"] for r in records) <= 1e-9


def test_constructed_cyclic_vector_spans_target_vectors():
    # 100 random instances, dimension <= 10 and up to 4 target vectors over
    # the diagonal algebra: the orbit of the constructed vector covers them
    records = list(cyclic_vector_suite(trials=100, seed=0))
    assert len(records) == 100
    assert not _failures(records), _failures(records)[:3]
    assert all(r["rank_joint"] == r["rank_orbit"] for r in records)


def test_subgroup_restriction_reproduces_quotient_spectrum():
    # 50 random (group of order <= 24, random subgroup, rep of d <= 8)
    # instances: restricted spectrum equals the pushed-forward character set
    records = list(restriction_suite(trials=50, seed=0))
    assert len(records) == 50
    assert not _failures(records), _failures(records)[:3]
