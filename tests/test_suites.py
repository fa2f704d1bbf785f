"""Randomized invariant suites: registry, determinism, the worked square scan."""

import numpy as np
import pytest

from ehtp import suites
from ehtp.elementary import ElementaryOperator
from ehtp.gamma import gamma, kernel_test_transfer
from ehtp.groups import difference_set, dual_group, from_cayley, make_cyclic_product
from ehtp.measures import fourier_on
from ehtp.hnorm import NormInterval
from ehtp.representations import diagonalize
from ehtp.suites import (
    SUITE_NAMES,
    homomorphism_roster,
    kernel_measure,
    make_rng,
    random_character_rep,
    run_all,
    s3_cayley,
    square_scan,
)


def _quick_suites(seed, *names):
    """The quick records of the named suites, each called through the registry."""
    return [rec for name, fn, quick in suites._SUITE_SPECS if name in names
            for rec in fn(seed=seed, **quick)]


class TestRegistry:
    def test_all_ten_suites_are_registered(self):
        assert len(SUITE_NAMES) == 10
        assert "gamma-homomorphism" in SUITE_NAMES
        assert "cp-posdef-equivalence" in SUITE_NAMES

    def test_quick_run_is_green(self):
        records = list(run_all(seed=0, quick=True))
        assert records and all(r["passed"] for r in records)
        assert {r["suite"] for r in records} == set(SUITE_NAMES)

    def test_records_carry_identities(self):
        records = _quick_suites(0, "slice-identity")
        assert records and all(r["identity"] for r in records)
        assert all(r["case"] for r in records)

    def test_same_seed_reproduces_records_exactly(self):
        a = _quick_suites(9, "contractivity", "schur-identity")
        b = _quick_suites(9, "contractivity", "schur-identity")
        assert a and a == b

    def test_different_seeds_differ(self):
        a = _quick_suites(0, "schur-identity")
        b = _quick_suites(1, "schur-identity")
        assert a != b


class TestRngPolicy:
    def test_streams_are_independent(self):
        a = make_rng(0, stream=1).standard_normal(4)
        b = make_rng(0, stream=2).standard_normal(4)
        assert not np.allclose(a, b)

    def test_same_stream_reproduces(self):
        assert np.allclose(make_rng(5, stream=3).standard_normal(4),
                           make_rng(5, stream=3).standard_normal(4))

    def test_wide_seeds_are_accepted(self):
        make_rng(2**64 + 17).standard_normal(1)


class TestRoster:
    def test_contains_cyclics_products_and_a_nonabelian_group(self):
        roster = homomorphism_roster()
        names = [name for name, _ in roster]
        assert "Z2" in names and "Z12" in names
        assert "Z2xZ2" in names and "Z2xZ4" in names
        assert "S3" in names
        nonabelian = dict(roster)["S3"]
        assert not np.array_equal(nonabelian.cayley, nonabelian.cayley.T)
        assert nonabelian.order == 6

    def test_s3_table_is_a_group(self):
        g = from_cayley(s3_cayley())
        assert g.order == 6
        r, f = 1, 3  # a rotation and a flip
        assert g.mul(r, f) != g.mul(f, r)


class TestSquareScan:
    def test_offset_five_pairs(self):
        scan = square_scan(101, range(1, 7), 5)
        assert scan["oracle_pairs"] == [[2, 3]]
        assert scan["found_pairs"] == [[2, 3]]
        assert scan["max_on_deviation"] <= 1e-10
        assert scan["passed"]

    def test_offset_seven_and_nine_pairs(self):
        assert square_scan(101, range(1, 7), 7)["found_pairs"] == [[3, 4]]
        assert square_scan(101, range(1, 7), 9)["found_pairs"] == [[4, 5]]

    def test_off_pairs_are_numerically_zero(self):
        scan = square_scan(101, range(1, 7), 5)
        assert scan["max_off_deviation"] <= 1e-10

    def test_colliding_square_indices_rejected(self):
        # 1^2 = 4^2 mod 5, so the index labels would be ambiguous
        with pytest.raises(ValueError):
            square_scan(5, [1, 4], 1)


class TestKernelMeasure:
    def test_transform_vanishes_on_the_difference_set_only(self):
        rng = make_rng(3)
        for shape in ((12,), (2, 6), (3, 3)):
            g = make_cyclic_product(shape)
            diag = diagonalize(random_character_rep(g, rng, max_dim=3))
            mu = kernel_measure(diag, rng)
            duals = dual_group(g)
            on = np.array([c in difference_set(diag.spectrum) for c in duals])
            values = np.abs(fourier_on(mu, duals))
            assert values[on].max() <= 1e-12 * mu.norm
            assert values[~on].min() > 1e-6
            assert kernel_test_transfer(gamma(diag.rep, mu))


class TestNormCheck:
    def test_an_upper_trace_that_rises_by_rounding_fails(self, monkeypatch):
        # on every path the trace is a running minimum times a positive
        # scale, so a rise of 1e-13 on an upper end of 1e-3 is a fault, not
        # rounding, and no absolute slack forgives it
        rising = NormInterval(1e-3, 1e-3, (), 1, (1e-3, 1e-3 + 1e-13), "weights")
        flat = NormInterval(1e-3, 1e-3, (), 1, (1e-3, 1e-3), "weights")
        op = ElementaryOperator.from_terms(1, [])
        for bounds, passed in ((flat, True), (rising, False)):
            monkeypatch.setattr(suites, "haagerup_norm_bounds", lambda t, _b=bounds: _b)
            assert suites.norm_check(op)["passed"] is passed
