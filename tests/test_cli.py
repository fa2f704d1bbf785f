"""Command line interface: exit codes, report determinism, scenario loaders,
the gates `ehtp run` shares with the suites, and a fuzz over malformed input."""

import contextlib
import copy
import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehtp import suites
from ehtp.cli import (
    load_group,
    load_measure,
    load_operator,
    load_representation,
    load_scenario,
    main,
)
from ehtp.errors import TOL, NumericalError, ScenarioError
from ehtp.groups import Character, make_cyclic_product as cyclic_product
from ehtp.measures import from_density


def scenario_file(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args):
    """``python -m ehtp ARGS`` in a fresh process, with the package on the path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ehtp", *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def parse_report(text):
    lines = [json.loads(line) for line in text.strip().splitlines()]
    assert lines[-1]["type"] == "summary"
    return lines[:-1], lines[-1]


SQUARE = {"experiment": "square-example",
          "params": {"modulus": 101, "indices": [1, 2, 3, 4, 5, 6], "k": 5}}


class TestExitCodes:
    def test_square_example_passes(self, tmp_path, capsys):
        code = main(["run", "--scenario", scenario_file(tmp_path, SQUARE)])
        records, summary = parse_report(capsys.readouterr().out)
        assert code == 0
        assert summary["failed"] == 0
        assert records[0]["found_pairs"] == [[2, 3]]
        assert records[0]["case"] == "k-5"

    def test_point_mass_is_completely_positive(self, tmp_path, capsys):
        payload = {
            "experiment": "cp-posdef-equivalence",
            "group": {"kind": "cyclic_product", "shape": [6]},
            "representation": {"kind": "regular"},
            "measures": [{"dirac": 2}],
        }
        code = main(["run", "--scenario", scenario_file(tmp_path, payload)])
        records, _ = parse_report(capsys.readouterr().out)
        assert code == 0
        assert records[0]["cp"] and records[0]["posdef"]

    def test_assertion_failure_exits_one(self, tmp_path, capsys):
        payload = {
            "experiment": "gamma-homomorphism",
            "group": {"kind": "cyclic_product", "shape": [4]},
            "representation": {"kind": "regular"},
            "measures": [{"dirac": 0}, {"dirac": 1}],
        }
        # a negative tolerance cannot be met by any residual
        code = main(["run", "--scenario", scenario_file(tmp_path, payload), "--tol", "-1"])
        _, summary = parse_report(capsys.readouterr().out)
        assert code == 1
        assert summary["failed"] > 0

    def test_contractivity_gate_scales_with_the_measure(self, tmp_path, capsys):
        # a positive measure of mass 5.7e8: the bracket is ||T(I)||, which lands
        # one ulp (1.2e-7) above ||mu||_1, more than an absolute TOL allows
        payload = {
            "experiment": "norm-interval",
            "group": {"kind": "cyclic_product", "shape": [11]},
            "representation": {"kind": "characters", "chars": [[3], [4], [1], [5]]},
            "measures": [{"density": (np.random.default_rng(0).random(11) * 1e9).tolist()}],
        }
        code = main(["run", "--scenario", scenario_file(tmp_path, payload)])
        records, summary = parse_report(capsys.readouterr().out)
        assert records[0]["mu_norm"] > 1e8
        assert summary["failed"] == 0
        assert code == 0

    def test_unknown_experiment_exits_two(self, tmp_path, capsys):
        code = main(["run", "--scenario",
                     scenario_file(tmp_path, {"experiment": "frobnicate"})])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--scenario", str(path)]) == 2

    def test_json_nested_too_deep_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["run", "--scenario", str(path)]) == 2

    def test_missing_file_exits_two(self, capsys):
        assert main(["run", "--scenario", "/nonexistent/path.json"]) == 2

    def test_bad_group_kind_exits_two(self, tmp_path, capsys):
        payload = dict(SQUARE, experiment="schur-identity",
                       group={"kind": "free_group"}, representation={"kind": "regular"})
        assert main(["run", "--scenario", scenario_file(tmp_path, payload)]) == 2

    def test_norm_interval_without_inputs_exits_two(self, tmp_path, capsys):
        payload = {"experiment": "norm-interval"}
        assert main(["run", "--scenario", scenario_file(tmp_path, payload)]) == 2

    def test_density_of_wrong_length_exits_two(self, tmp_path, capsys):
        payload = {
            "experiment": "schur-identity",
            "group": {"kind": "cyclic_product", "shape": [4]},
            "representation": {"kind": "regular"},
            "measures": [{"density": [1, 2]}],
        }
        assert main(["run", "--scenario", scenario_file(tmp_path, payload)]) == 2

    def test_nonunitary_matrix_rep_exits_three(self, tmp_path, capsys):
        data = [[[[1.0, 0.0]]], [[[2.0, 0.0]]]]  # 1x1 blocks: 1 and 2
        payload = {
            "experiment": "schur-identity",
            "group": {"kind": "cyclic_product", "shape": [2]},
            "representation": {"kind": "matrices", "data": data},
            "measures": [{"dirac": 0}],
        }
        code = main(["run", "--scenario", scenario_file(tmp_path, payload)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("check, suite", [("cp_posdef_check", "cp-posdef-equivalence"),
                                              ("restriction_check", "restriction-check")])
    def test_a_numerical_failure_in_the_selftest_exits_three_with_one_line(self, tmp_path, capsys,
                                                                           monkeypatch, check, suite):
        # exit 1 means only that a check failed; a suite does not turn a
        # NumericalError into a failed record
        def broken(*args, **kwargs):
            raise NumericalError("Kraus reconstruction residual 1.000e-03")

        monkeypatch.setattr(suites, check, broken)
        monkeypatch.setattr(suites, "_SUITE_SPECS", tuple(s for s in suites._SUITE_SPECS if s[0] == suite))
        out = tmp_path / "report.jsonl"
        assert main(["selftest", "--quick", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert lines == ["numerical failure: Kraus reconstruction residual 1.000e-03"]
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_an_impossible_allocation_exits_two_with_one_line(self, tmp_path, capsys, monkeypatch):
        # the regular representation of Z_4096 needs 1 TiB; exit 1 would
        # claim that a check failed
        def too_large(group):
            raise MemoryError("Unable to allocate 1.00 TiB for an array")

        monkeypatch.setattr(importlib.import_module("ehtp.cli"), "regular_rep", too_large)
        payload = {"experiment": "gamma-homomorphism", "group": {"kind": "cyclic_product", "shape": [4]},
                   "representation": {"kind": "regular"}, "measures": [{"dirac": 1}, {"dirac": 2}]}
        assert main(["run", "--scenario", scenario_file(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0] == "cannot allocate: Unable to allocate 1.00 TiB for an array"
        assert captured.out == ""


# inputs that used to escape the loaders as tracebacks
MALFORMED = {
    "coordinates-on-cayley-group": {
        "experiment": "gamma-homomorphism",
        "group": {"kind": "cayley", "table": [[0, 1], [1, 0]]},
        "representation": {"kind": "regular"},
        "measures": [{"dirac": [1]}, {"dirac": 0}],
    },
    "weight-not-a-number": {
        "experiment": "schur-identity",
        "group": {"kind": "cyclic_product", "shape": [6]},
        "representation": {"kind": "characters", "chars": [[0], [1]]},
        "measures": [{"weights": [{"elem": 1, "re": "x"}]}],
    },
    "square-modulus-zero": {
        "experiment": "square-example",
        "params": {"modulus": 0, "indices": [1, 2, 3], "ks": [1]},
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_scenario_exits_two_with_one_line(tmp_path, name):
    proc = run_cli("run", "--scenario", scenario_file(tmp_path, MALFORMED[name]))
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("scenario error:")
    assert "Traceback" not in proc.stderr


BATCH = [
    {"id": "c-kernel", "experiment": "kernel-equivalence",
     "group": {"kind": "cyclic_product", "shape": [5]},
     "representation": {"kind": "regular"}, "params": {"trials": 4}},
    {"id": "a-schur", "experiment": "schur-identity",
     "group": {"kind": "cyclic_product", "shape": [2, 3]},
     "representation": {"kind": "regular"}, "params": {"trials": 4}},
    {"id": "b-square", "experiment": "square-example",
     "params": {"modulus": 101, "indices": [1, 2, 3], "ks": [5]}},
]


class TestReports:
    def test_records_sorted_by_scenario_id(self, tmp_path, capsys):
        code = main(["run", "--scenario", scenario_file(tmp_path, BATCH), "--seed", "7"])
        records, _ = parse_report(capsys.readouterr().out)
        assert code == 0
        ids = [r["id"] for r in records]
        assert ids == sorted(ids)
        assert ids[0] == "a-schur" and ids[-1] == "c-kernel"

    def test_a_scenario_runs_when_its_first_record_is_read(self, monkeypatch):
        # the batch is not run whole before the first record is written
        cli_module = importlib.import_module("ehtp.cli")
        ran = []

        def probe(s, quick):
            ran.append(s.sid)
            return [{"id": s.sid, "suite": s.experiment, "case": "c", "identity": "i", "passed": True}]

        for name in cli_module.EXPERIMENTS:
            monkeypatch.setitem(cli_module.EXPERIMENTS, name, probe)
        scenarios = [load_scenario(obj, i, 7, None) for i, obj in enumerate(BATCH)]
        records = cli_module._run_records(scenarios, False)
        assert next(records)["id"] == "a-schur"
        assert ran == ["a-schur"]
        assert [r["id"] for r in records] == ["b-square", "c-kernel"]
        assert ran == ["a-schur", "b-square", "c-kernel"]

    def test_identical_invocations_write_identical_bytes(self, tmp_path):
        src = scenario_file(tmp_path, BATCH)
        outs = [str(tmp_path / f"report{i}.json") for i in range(2)]
        for out in outs:
            assert main(["run", "--scenario", src, "--seed", "11", "--out", out]) == 0
        first, second = (Path(out).read_bytes() for out in outs)
        assert first == second

    def test_csv_format(self, tmp_path, capsys):
        code = main(["run", "--scenario", scenario_file(tmp_path, SQUARE),
                     "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "id,suite,case,identity,passed,detail"
        assert lines[1].startswith("scenario-000,square-example,k-5,")
        assert ",pass," in lines[1]

    def test_selftest_quick(self, capsys):
        assert main(["selftest", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "suite" in out and "failed 0" in out

    def test_reports_are_strict_json(self, tmp_path, capsys):
        # RFC 8259 has no NaN or Infinity: a field without a value is null
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        out = tmp_path / "report.json"
        assert main(["selftest", "--quick", "--out", str(out)]) == 0
        capsys.readouterr()                   # the summary table
        texts = [out.read_text()]
        for name, (payload, flags, cases) in REPORT_RUNS.items():
            assert main(["run", "--scenario", scenario_file(tmp_path, payload), *flags]) == 0, name
            texts.append(capsys.readouterr().out)
            if cases is not None:
                assert [r["case"] for r in parse_report(texts[-1])[0]] == cases, name
        records = [json.loads(line, parse_constant=reject) for text in texts for line in text.splitlines()]
        assert any(r.get("kraus_count") == 0 and r["kraus_min_singular"] is None for r in records)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_report_that_cannot_be_serialized_leaves_the_out_file_alone(self, tmp_path, fmt):
        # records go to a temporary file beside the report, which is removed
        # when one cannot be serialized, so a NaN in a later record neither
        # truncates the file nor leaves half a report
        cli_module = importlib.import_module("ehtp.cli")
        fields = {"suite": "s", "case": "c", "identity": "i", "passed": True}
        records = [dict(fields, residual=0.0), dict(fields, residual=float("nan"))]
        out = tmp_path / "report.txt"
        out.write_text("earlier report\n")
        with pytest.raises(ValueError):
            cli_module._write_report(iter(records), fmt, str(out))
        assert out.read_text() == "earlier report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    @pytest.mark.parametrize("command", ["run", "selftest"])
    def test_an_unwritable_out_exits_two_before_any_check_runs(self, tmp_path, capsys, monkeypatch,
                                                               command):
        # exit 1 means a check failed; a report that cannot be written is
        # refused with one line, and no suite or experiment runs first
        ran = []

        def probe(*args, **kwargs):
            ran.append(command)
            return [{"suite": "probe", "case": "c", "identity": "i", "passed": True}]

        cli_module = importlib.import_module("ehtp.cli")
        monkeypatch.setattr(suites, "_SUITE_SPECS", (("probe", probe, {}),))
        monkeypatch.setitem(cli_module.EXPERIMENTS, "square-example", probe)
        out = str(tmp_path / "missing" / "report.jsonl")
        argv = ["run", "--scenario", scenario_file(tmp_path, SQUARE)] if command == "run" else ["selftest"]
        assert main([*argv, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not ran
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("cannot write report: ")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_selftest_memory_does_not_grow_with_its_report(self, tmp_path, capsys, monkeypatch, fmt):
        # 20,000 records held at once take several MB; written as they
        # arrive, the run holds one record and the per-suite counts
        def many(seed=0):
            for i in range(20_000):
                yield {"suite": "probe", "case": f"case-{i:05d}", "identity": "i", "passed": True,
                       "residual": 0.0}

        monkeypatch.setattr(suites, "_SUITE_SPECS", (("probe", many, {}),))
        out = tmp_path / "report.txt"
        tracemalloc.start()
        try:
            assert main(["selftest", "--format", fmt, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "total 20000  failed 0" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 20_001
        assert peak < 2_000_000, f"peak {peak / 1e6:.2f} MB"

    def test_selftest_has_no_tolerance_flag(self, capsys):
        # the suites carry their own tolerances; --tol belongs to `run`
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--quick", "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_console_entry_point(self, tmp_path):
        src = scenario_file(tmp_path, SQUARE)
        proc = run_cli("run", "--scenario", src)
        assert proc.returncode == 0
        _, summary = parse_report(proc.stdout)
        assert summary["failed"] == 0


class TestLoaders:
    def test_group_kinds(self):
        g = load_group({"kind": "cyclic_product", "shape": [2, 3]})
        assert g.order == 6 and g.abelian_shape == (2, 3)
        h = load_group({"kind": "cayley", "table": [[0, 1], [1, 0]]})
        assert h.order == 2

    def test_duplicate_weight_entries_accumulate(self):
        g = cyclic_product([4])
        mu = load_measure({"weights": [
            {"elem": 1, "re": 0.5},
            {"elem": 1, "re": 0.25, "im": 1.0},
        ]}, g)
        assert mu.weights[1] == pytest.approx(0.75 + 1.0j)
        assert mu.weights[0] == 0

    def test_element_coordinates(self):
        g = cyclic_product([2, 3])
        mu = load_measure({"dirac": [1, 2]}, g)
        assert mu.weights[g.element_index([1, 2])] == 1
        assert mu.support().tolist() == [5]

    def test_character_density(self):
        g = cyclic_product([4])
        mu = load_measure({"character_density": [1]}, g)
        expected = from_density(g, Character((4,), (1,)).values(g))
        assert np.allclose(mu.weights, expected.weights)

    def test_complex_entries_as_pairs(self):
        g = cyclic_product([2])
        mu = load_measure({"density": [[0.0, 1.0], 2.0]}, g)
        assert mu.weights[0] == pytest.approx(0.5j)
        assert mu.weights[1] == pytest.approx(1.0)

    def test_representation_kinds(self):
        g = cyclic_product([3])
        reg = load_representation({"kind": "regular"}, g)
        assert reg.dim == 3
        chars = load_representation({"kind": "characters", "chars": [[0], [1]]}, g)
        assert chars.dim == 2

    def test_scenario_defaults(self):
        s = load_scenario({"experiment": "square-example"}, 4, None, None)
        assert s.sid == "scenario-004"
        assert s.seed == 0 and s.tol == 1e-9

    def test_scenario_overrides(self):
        s = load_scenario({"experiment": "square-example", "seed": 3, "tol": 1e-6},
                          0, 12, 1e-3)
        assert s.seed == 12 and s.tol == 1e-3

    def test_bad_element_index_rejected(self):
        g = cyclic_product([4])
        with pytest.raises(ScenarioError):
            load_measure({"dirac": 9}, g)

    def test_operator_of_the_wrong_size_rejected(self):
        with pytest.raises(ScenarioError):
            load_operator({"dim": 2, "terms": [{"a": [[[1, 0]]], "b": [[[1, 0]]]}]})


# ---------------------------------------------------------------------------
# Gates that scale with the data, shared with the suites
# ---------------------------------------------------------------------------

GENERIC = np.random.default_rng(12).standard_normal((2, 12, 2))


def z12_scenario(experiment, scale):
    """Z_12 with characters 1, 4, 7, 9 and two generic measures times ``scale``."""
    return {"experiment": experiment, "group": {"kind": "cyclic_product", "shape": [12]},
            "representation": {"kind": "characters", "chars": [[1], [4], [7], [9]]},
            "measures": [{"weights": [{"elem": s, "re": scale * re, "im": scale * im}
                                      for s, (re, im) in enumerate(w)]} for w in GENERIC]}


def run_records(tmp_path, capsys, payload, *flags):
    code = main(["run", "--scenario", scenario_file(tmp_path, payload), *flags])
    records, _ = parse_report(capsys.readouterr().out)
    return code, records


class TestScaledGates:
    def test_homomorphism_holds_at_scale_1e6(self, tmp_path, capsys):
        # the residuals are 0.15-0.25, 1.8e-16 of d * ||mu||_1 * ||nu||_1
        code, records = run_records(tmp_path, capsys, z12_scenario("gamma-homomorphism", 1e6))
        pairs = [r for r in records if r["case"].startswith("pair")]
        assert [r["case"] for r in pairs] == ["pair-00-01", "pair-01-00"]
        assert max(r["residual"] for r in pairs) > 1e-2
        assert code == 0 and all(r["passed"] for r in records)

    def test_symbol_holds_at_scale_1e8(self, tmp_path, capsys):
        code, records = run_records(tmp_path, capsys, z12_scenario("schur-identity", 1e8))
        assert max(r["residual"] for r in records) > 1e-9
        assert code == 0 and all(r["passed"] for r in records)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
    def test_a_faulty_convolution_fails_at_every_scale(self, tmp_path, capsys, monkeypatch, scale):
        real = suites.convolve
        monkeypatch.setattr(suites, "convolve", lambda mu, nu: real(mu, nu) * (1 + 1e-6))
        code, records = run_records(tmp_path, capsys, z12_scenario("gamma-homomorphism", scale))
        assert code == 1
        assert not any(r["passed"] for r in records if r["case"].startswith("pair"))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
    def test_a_faulty_symbol_fails_at_every_scale(self, tmp_path, capsys, monkeypatch, scale):
        gamma_module = importlib.import_module("ehtp.gamma")     # the package's `gamma` is the function
        real = gamma_module.fourier_symbol
        monkeypatch.setattr(gamma_module, "fourier_symbol", lambda mu, chars: real(mu, chars) * (1 + 1e-6))
        code, records = run_records(tmp_path, capsys, z12_scenario("schur-identity", scale))
        assert code == 1 and not any(r["passed"] for r in records)


NORM_OPERATOR = {"experiment": "norm-interval", "params": {"operators": [
    {"dim": 2, "terms": [{"a": [[[1, 0], [0, 1]], [[2, 0], [0, 0]]],
                          "b": [[[0, 0], [1, 0]], [[0, 1], [3, 0]]]}]}]}}
NORM_MEASURE = {"experiment": "norm-interval", "group": {"kind": "cyclic_product", "shape": [4]},
                "representation": {"kind": "characters", "chars": [[1], [2]]},
                "measures": [{"density": [1, 2, 3, [4, 1]]}]}
POINT_MASS = {"experiment": "cp-posdef-equivalence", "group": {"kind": "cyclic_product", "shape": [6]},
              "representation": {"kind": "regular"}, "measures": [{"dirac": 2}]}

NEARLY_HERMITIAN = {"experiment": "cp-posdef-equivalence", "group": {"kind": "cyclic_product", "shape": [7]},
                    "representation": {"kind": "characters", "chars": [[0], [1], [3]]},
                    "measures": [{"weights": [{"elem": 0, "re": 2, "im": 1e-6}, {"elem": 1, "re": 0.5},
                                              {"elem": 6, "re": 0.5}]}]}


def _zero_measure_scenario(experiment):
    """Z_4 on characters 1 and 2, with measures whose weights are all zero."""
    zero = {"density": [0, 0, 0, 0]}
    return {"id": f"zero-{experiment}", "experiment": experiment,
            "group": {"kind": "cyclic_product", "shape": [4]},
            "representation": {"kind": "characters", "chars": [[1], [2]]},
            "measures": [zero, zero] if experiment == "gamma-homomorphism" else [zero]}


class TestSharedGates:
    """`ehtp run` records read the gates the suites read."""

    def test_a_zero_measure_passes_every_experiment(self, tmp_path, capsys):
        # the zero measure realizes a map with no terms, whose cb norm is 0
        payload = [_zero_measure_scenario(e) for e in ("norm-interval", "gamma-homomorphism", "kernel-equivalence",
                                                      "cp-posdef-equivalence", "schur-identity")]
        code, records = run_records(tmp_path, capsys, payload)
        assert code == 0 and len(records) == 9 and all(r["passed"] for r in records)
        uppers = [r[key] for r in records for key in ("upper", "cb_upper") if key in r]
        assert uppers == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("payload", [NORM_OPERATOR, NORM_MEASURE], ids=["operator", "measure"])
    def test_a_rising_upper_trace_fails_the_norm_record(self, tmp_path, capsys, monkeypatch, payload):
        real = suites.haagerup_norm_bounds

        def rising(op):
            bounds = real(op)
            return dataclasses.replace(bounds, upper_trace=(bounds.upper, 2 * bounds.upper + 1))

        assert run_records(tmp_path, capsys, payload)[0] == 0
        monkeypatch.setattr(suites, "haagerup_norm_bounds", rising)
        code, records = run_records(tmp_path, capsys, payload)
        assert code == 1 and not records[0]["passed"]

    def test_norm_measure_records_carry_width_and_excess(self, tmp_path, capsys):
        code, records = run_records(tmp_path, capsys, NORM_MEASURE)
        rec = records[0]
        assert code == 0
        assert rec["width"] == pytest.approx(rec["upper"] - rec["lower"])
        assert rec["excess"] == pytest.approx(rec["upper"] - rec["mu_norm"])

    def test_a_dependent_kraus_family_fails_the_cp_record(self, tmp_path, capsys, monkeypatch):
        real = suites.equivalence_suite
        code, records = run_records(tmp_path, capsys, POINT_MASS)
        assert code == 0 and records[0]["kraus_count"] == 1 and records[0]["kraus_min_singular"] > 1e-9
        monkeypatch.setattr(suites, "equivalence_suite", lambda *a, **k: dataclasses.replace(
            real(*a, **k), kraus_min_singular=1e-12))
        code, records = run_records(tmp_path, capsys, POINT_MASS)
        assert code == 1 and not records[0]["passed"]
        assert records[0]["kraus_min_singular"] == 1e-12

    @pytest.mark.parametrize("field, key, value", [
        ("positive_definite", "posdef", False),
        ("sampled_positive", "sampled", False),
        ("kraus_diagonality", "kraus_diagonality", 1e-6),
    ], ids=["cp-but-not-posdef", "cp-but-not-sampled", "off-diagonal-kraus"])
    def test_a_broken_criterion_fails_the_cp_record(self, tmp_path, capsys, monkeypatch, field, key, value):
        # the point mass is completely positive with one Kraus element; each
        # fault breaks one gate and leaves the others holding
        real = suites.equivalence_suite
        monkeypatch.setattr(suites, "equivalence_suite", lambda *a, **k: dataclasses.replace(
            real(*a, **k), **{field: value}))
        code, records = run_records(tmp_path, capsys, POINT_MASS)
        rec = records[0]
        assert code == 1 and not rec["passed"] and "error" not in rec
        assert rec[key] == value and rec["cp"] and rec["kraus_count"] == rec["gram_count"] == 1

    def test_a_restricted_spectrum_that_differs_fails_the_record(self, tmp_path, capsys, monkeypatch):
        real = suites.restriction_spectrum_check

        def dropped(*args, **kwargs):
            report = real(*args, **kwargs)
            assert len(report.actual_exponents) == 2
            return dataclasses.replace(report, actual_exponents=report.actual_exponents[:1])

        monkeypatch.setattr(suites, "restriction_spectrum_check", dropped)
        code, records = run_records(tmp_path, capsys, RESTRICTION)
        rec = records[0]
        assert code == 1 and not rec["passed"] and "error" not in rec
        assert rec["spectrum_size"] == 2 and rec["symbol_residual"] <= TOL
        # H = <4> = Z_3 with generator 4: characters 1 and 5 restrict to 1 and 2
        assert rec["expected_exponents"] == [[1], [2]] and rec["actual_exponents"] == [[1]]

    @pytest.mark.parametrize("flags, positive", [((), False), (("--tol", "1e-3"), True)],
                             ids=["default-tol", "loose-tol"])
    def test_tol_reaches_the_whole_positivity_decision(self, tmp_path, capsys, flags, positive):
        # a kernel Hermitian to 3.5e-6 on a data scale of 9, so positive at
        # tol 1e-3 and not at 1e-9; its Kraus family rebuilds the map to
        # 3e-6, which the reconstruction gate failed at TOL (exit 3)
        code, records = run_records(tmp_path, capsys, NEARLY_HERMITIAN, *flags)
        rec = records[0]
        assert code == 0 and rec["passed"]
        assert rec["cp"] is rec["posdef"] is positive
        if positive:
            assert rec["sampled"] and rec["kraus_count"] == rec["gram_count"] == 3

    @pytest.mark.parametrize("scale", [1e-20, 1e-8, 1e8])
    @pytest.mark.parametrize("flags", [(), ("--tol", "1e-3")], ids=["default-tol", "loose-tol"])
    def test_the_kraus_gate_reads_the_family_scale(self, tmp_path, capsys, scale, flags):
        # one Kraus element of norm sqrt(6 * scale): an absolute gate at tol
        # failed it below scale 1.7e-19 (1.7e-7 at tol 1e-3)
        payload = changed(POINT_MASS, "measures", 0, {"weights": [{"elem": 2, "re": scale}]})
        code, records = run_records(tmp_path, capsys, payload, *flags)
        assert records[0]["kraus_count"] == 1
        assert records[0]["kraus_min_singular"] == pytest.approx((6 * scale) ** 0.5)
        assert code == 0 and records[0]["passed"]

    @pytest.mark.parametrize("between", [True, False], ids=["between-old-bounds", "above-both"])
    def test_the_restriction_record_reads_the_symbol_gate(self, tmp_path, capsys, monkeypatch, between):
        # the gate is tol * ||kappa||_1, about 1.25 |H| tol; it was tol in the
        # record and raised NumericalError above tol * ||kappa||_1
        gamma_module = importlib.import_module("ehtp.gamma")
        norms = []

        def residual(diag, mu, symbol):
            norms.append(mu.norm)
            return (1 + mu.norm) / 2 * TOL if between else 2 * max(1.0, mu.norm) * TOL

        monkeypatch.setattr(gamma_module, "symbol_residual", residual)
        code, records = run_records(tmp_path, capsys, RESTRICTION)
        assert len(norms) == 1 and norms[0] > 1.0
        rec = records[0]
        assert TOL < rec["symbol_residual"]
        assert (rec["symbol_residual"] <= TOL * norms[0]) is between
        assert rec["passed"] is between and code == (0 if between else 1)

    def test_report_records_read_the_contractivity_gate(self, tmp_path, capsys):
        payload = z12_scenario("gamma-homomorphism", 1.0)
        code, records = run_records(tmp_path, capsys, payload)
        reports = [r for r in records if r["case"].endswith("/report")]
        assert code == 0 and len(reports) == 2 and all(r["passed"] for r in reports)
        # a tolerance no residual can meet fails the reports too
        code, records = run_records(tmp_path, capsys, payload, "--tol", "-1")
        assert code == 1 and not any(r["passed"] for r in records if r["case"].endswith("/report"))


# ---------------------------------------------------------------------------
# Malformed and non-finite input
# ---------------------------------------------------------------------------

CP_RANDOM = {"experiment": "cp-posdef-equivalence", "group": {"kind": "cyclic_product", "shape": [5]},
             "representation": {"kind": "characters", "chars": [[1], [2]]},
             "params": {"trials": 2, "sample_trials": 5}}
CHARACTER_DENSITY = {"experiment": "schur-identity", "group": {"kind": "cyclic_product", "shape": [6]},
                     "representation": {"kind": "characters", "chars": [[0], [1]]},
                     "measures": [{"character_density": [1]}]}
MATRICES = {"experiment": "kernel-equivalence", "group": {"kind": "cyclic_product", "shape": [2]},
            "representation": {"kind": "matrices", "data": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]},
            "measures": [{"dirac": 0}]}
RESTRICTION = {"experiment": "restriction-check", "group": {"kind": "cyclic_product", "shape": [12]},
               "representation": {"kind": "characters", "chars": [[1], [5]]},
               "params": {"subgroup_generators": [[4]]}}


def changed(payload, *path_and_value):
    """A deep copy of ``payload`` with the value at ``path`` replaced."""
    *path, value = path_and_value
    out = copy.deepcopy(payload)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


# runs whose reports must be strict JSON: the payload, the flags and the
# record cases expected, or None for any
REPORT_RUNS = {
    "batch": (BATCH, (), None),
    "square": (SQUARE, (), None),
    "cp-given": ({"experiment": "cp-posdef-equivalence", "group": {"kind": "cyclic_product", "shape": [6]},
                  "representation": {"kind": "characters", "chars": [[1], [2], [5]]},
                  "measures": [{"dirac": 2}, {"density": [1, -1, 0, 0, 0, 0]}]}, (), None),
    # --quick quarters the trial count, 8 -> 2
    "quick": (changed(CP_RANDOM, "params", "trials", 8), ("--quick",), ["measure-00", "measure-01"]),
    # random measures pair off (0, 1), (2, 3), ...; given ones pair every way
    "random-pairs": ({"experiment": "gamma-homomorphism", "group": {"kind": "cyclic_product", "shape": [5]},
                      "representation": {"kind": "characters", "chars": [[1], [3]]}, "params": {"trials": 4}},
                     (), ["unit", *(f"measure-{i:02d}/report" for i in range(4)), "pair-00-01", "pair-02-03"]),
    # without subgroup_generators the subgroup is drawn from the seed
    "restriction-drawn": ({k: v for k, v in RESTRICTION.items() if k != "params"}, (), ["spectrum"]),
    "weights-at-coordinates": ({"experiment": "schur-identity",
                                "group": {"kind": "cyclic_product", "shape": [2, 3]},
                                "representation": {"kind": "characters", "chars": [[1, 1], [0, 2]]},
                                "measures": [{"weights": [{"elem": [1, 2], "re": 1.0},
                                                          {"elem": [0, 1], "im": 0.5}]}]},
                               (), ["measure-00"]),
}


# Z_70 with the intercalate at rows 10, 45 and columns 6, 41 swapped (16 <-> 51): a Latin
# square with an identity and inverses, not associative, that 2,000 sampled triples accepted
SWAPPED_Z70 = [[{(10, 6): 51, (10, 41): 16, (45, 6): 16, (45, 41): 51}.get((i, j), (i + j) % 70) for j in range(70)]
               for i in range(70)]

# inputs that escaped the loaders as tracebacks, or were read as numbers they are not
MALFORMED_INPUTS = {
    "experiment-object": changed(SQUARE, "experiment", {}),
    "experiment-list": changed(SQUARE, "experiment", []),
    "trials-list": changed(CP_RANDOM, "params", "trials", [0]),
    "trials-nan": changed(CP_RANDOM, "params", "trials", float("nan")),
    "trials-negative": changed(CP_RANDOM, "params", "trials", -1),
    "sample-trials-negative": changed(CP_RANDOM, "params", "sample_trials", -1),
    "sample-trials-list": changed(CP_RANDOM, "params", "sample_trials", [4]),
    "ks-not-a-list": changed(SQUARE, "params", "ks", 1),
    "character-density-bool": changed(CHARACTER_DENSITY, "measures", 0, "character_density", True),
    "character-density-string": changed(CHARACTER_DENSITY, "measures", 0, "character_density", ["x"]),
    "operator-terms-object": changed(NORM_OPERATOR, "params", "operators", 0, "terms", {}),
    "matrix-data-ragged": changed(MATRICES, "representation", "data", [[[[1.0, 0.0]]], [[1.0, 0.0]]]),
    "matrix-data-object": changed(MATRICES, "representation", "data", [[[{}]], [[[-1.0, 0.0]]]]),
    "matrix-data-null": changed(MATRICES, "representation", "data", [[[[1.0, None]]], [[[-1.0, 0.0]]]]),
    "cayley-entry-huge": {"experiment": "gamma-homomorphism",
                          "group": {"kind": "cayley", "table": [[0, 1], [1, 10**30]]},
                          "representation": {"kind": "regular"}, "measures": [{"dirac": 0}]},
    "density-null": changed(NORM_MEASURE, "measures", 0, "density", [1, None, 3, 4]),
    "density-nan": changed(NORM_MEASURE, "measures", 0, "density", [1, float("nan"), 3, 4]),
    "weight-infinite": changed(z12_scenario("schur-identity", 1.0), "measures", 0, "weights", 0, "re",
                               float("inf")),
    "element-coordinates-too-many": changed(POINT_MASS, "measures", 0, "dirac", [2, 1]),
    "seed-fraction": changed(SQUARE, "seed", 0.5),
    "seed-negative": changed(CP_RANDOM, "seed", -1),
    "seed-beyond-64-bits": changed(CP_RANDOM, "seed", 2**64),
    "tol-bool": changed(SQUARE, "tol", True),
    "density-integer-beyond-float": changed(NORM_MEASURE, "measures", 0, "density", [1, 10**400, 3, 4]),
    "group-shape-beyond-the-order-bound": changed(NORM_MEASURE, "group", "shape", [4097]),
    "character-exponents-of-the-wrong-length": changed(CHARACTER_DENSITY, "measures", 0, "character_density",
                                                       [1, 2]),
    "measure-spec-without-a-kind": changed(NORM_MEASURE, "measures", 0, {"mass": 1}),
    "cayley-not-associative": {"experiment": "gamma-homomorphism", "group": {"kind": "cayley", "table": SWAPPED_Z70},
                               "representation": {"kind": "regular"}, "measures": [{"dirac": 1}, {"dirac": 2}]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_two_with_one_line(tmp_path, capsys, name):
    code = main(["run", "--scenario", scenario_file(tmp_path, MALFORMED_INPUTS[name])])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("scenario error:")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_a_seed_flag_out_of_range_exits_two(tmp_path, capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", scenario_file(tmp_path, CP_RANDOM), "--seed", seed])
    assert exc.value.code == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "1e400"])
def test_a_non_finite_tol_flag_exits_two_with_one_line(tmp_path, capsys, tol):
    # read as a bare float, --tol inf passed every gate and --tol nan failed
    # every gate; the flag is read as a scenario's own tol is
    code = main(["run", "--scenario", scenario_file(tmp_path, z12_scenario("schur-identity", 1.0)), "--tol", tol])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("scenario error:") and "--tol" in lines[0]


OVERFLOWS = {
    # the data scale of this map overflows, and `x <= tol * inf` passed
    # every positivity gate: the map was declared completely positive
    "data-scale": {"experiment": "cp-posdef-equivalence", "group": {"kind": "cyclic_product", "shape": [3]},
                   "representation": {"kind": "characters", "chars": [[0], [1]]},
                   "measures": [{"weights": [{"elem": 1, "re": 1e200, "im": 1e200}]}]},
    # finite weights whose l1 norm overflows
    "measure-norm": {"experiment": "schur-identity", "group": {"kind": "cyclic_product", "shape": [4]},
                     "representation": {"kind": "characters", "chars": [[1], [3]]},
                     "measures": [{"weights": [{"elem": s, "re": 1.5e308} for s in range(4)]}]},
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_overflowing_scales_are_a_numerical_failure(tmp_path, capsys, name):
    payload = OVERFLOWS[name]
    with np.errstate(over="ignore"):
        code = main(["run", "--scenario", scenario_file(tmp_path, payload)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


FUZZ_SCENARIOS = [SQUARE, *BATCH, *MALFORMED.values(), *MALFORMED_INPUTS.values(),
                  z12_scenario("gamma-homomorphism", 1.0), NORM_OPERATOR, NORM_MEASURE, POINT_MASS, CP_RANDOM, CHARACTER_DENSITY, MATRICES,
                  RESTRICTION]
FUZZ_VALUES = [None, True, -1, 1e300, "x", [], {}]


def _paths(node, path=()):
    """The path of every value under ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_scenarios_exit_with_a_code(data):
    # one value replaced, deleted or wrapped in a list: the run ends with an
    # exit code, never an exception
    scenario = copy.deepcopy(data.draw(st.sampled_from(FUZZ_SCENARIOS)))
    path = data.draw(st.sampled_from(list(_paths(scenario))))
    node = scenario
    for key in path[:-1]:
        node = node[key]
    how = data.draw(st.sampled_from(["delete", "wrap", *FUZZ_VALUES]))
    if how == "delete":
        del node[path[-1]]
    elif how == "wrap":
        node[path[-1]] = [node[path[-1]]]
    else:
        node[path[-1]] = copy.deepcopy(how)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "scenario.json"
        src.write_text(json.dumps(scenario))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                np.errstate(all="ignore"):
            code = main(["run", "--scenario", str(src)])
    assert code in (0, 1, 2, 3)
