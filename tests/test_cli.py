"""Command line interface: exit codes, report determinism, scenario loaders."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ehtp.cli import (
    load_group,
    load_measure,
    load_representation,
    load_scenario,
    main,
)
from ehtp.errors import ScenarioError
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

    def test_identical_invocations_write_identical_bytes(self, tmp_path):
        src = scenario_file(tmp_path, BATCH)
        outs = [str(tmp_path / f"report{i}.json") for i in range(2)]
        for out in outs:
            assert main(["run", "--scenario", src, "--seed", "11", "--out", out]) == 0
        first, second = (open(out, "rb").read() for out in outs)
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

        cp = {"experiment": "cp-posdef-equivalence", "group": {"kind": "cyclic_product", "shape": [6]},
              "representation": {"kind": "characters", "chars": [[1], [2], [5]]},
              "measures": [{"dirac": 2}, {"density": [1, -1, 0, 0, 0, 0]}]}
        out = tmp_path / "report.json"
        assert main(["selftest", "--quick", "--out", str(out)]) == 0
        capsys.readouterr()                   # the summary table
        texts = [out.read_text()]
        for payload in (BATCH, SQUARE, cp):
            assert main(["run", "--scenario", scenario_file(tmp_path, payload)]) == 0
            texts.append(capsys.readouterr().out)
        records = [json.loads(line, parse_constant=reject) for text in texts for line in text.splitlines()]
        assert any(r.get("kraus_count") == 0 and r["kraus_min_singular"] is None for r in records)

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
