"""Batch command line front end.

Two subcommands:

``ehtp run --scenario FILE``
    Load one JSON scenario (or a list of them), execute the named
    experiments, and emit a machine-readable report: one JSON object per
    assertion plus a trailing summary object (CSV behind ``--format csv``).
    Scenarios in a batch run one after another; the report is sorted by
    scenario id.

``ehtp selftest``
    Run the full randomized invariant suite with a fixed default seed and
    print a summary table.  ``--quick`` switches to reduced trial counts.

Exit codes: 0 all assertions pass; 1 assertion failure; 2 malformed
scenario/schema; 3 numerical failure (for example a corrupted
representation that cannot be diagonalized).

Reports are byte-identical across runs given identical seed and flags: all
randomness flows from the single seed (see :func:`ehtp.suites.make_rng`)
and no timestamps or environment data are embedded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .elementary import op_from_json
from .errors import (
    TOL,
    EquivalenceViolationError,
    NonAbelianError,
    NumericalError,
    RestrictionMismatchError,
    ScenarioError,
)
from .gamma import gamma, restriction_spectrum_check, symbol_residual
from .groups import Character, FiniteGroup, from_cayley, make_cyclic_product, \
    subgroup_and_restriction
from .hnorm import haagerup_norm_bounds
from .measures import Measure, dirac, fourier_symbol, from_density, in_augmentation_ideal
from .representations import character_rep, diagonalize, make_representation, regular_rep
from .suites import (
    IDENTITIES,
    NORM_REL_WIDTH,
    gamma_report,
    homomorphism_residual,
    kernel_measure,
    kernel_verdicts,
    make_rng,
    random_measure,
    run_all,
    square_scan,
    unitality_residual,
)
from .varopoulos import equivalence_suite

__all__ = ["main", "EXPERIMENT_NAMES"]


# ---------------------------------------------------------------------------
# Scenario loading
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    sid: str
    experiment: str
    seed: int
    tol: float
    group_spec: dict | None
    rep_spec: dict | None
    measure_specs: list
    params: dict = field(default_factory=dict)


def _schema(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def load_group(spec) -> FiniteGroup:
    _schema(isinstance(spec, dict) and "kind" in spec, "group spec needs a 'kind'")
    try:
        if spec["kind"] == "cyclic_product":
            return make_cyclic_product(spec["shape"])
        if spec["kind"] == "cayley":
            return from_cayley(spec["table"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad group spec: {exc}") from exc
    raise ScenarioError(f"unknown group kind {spec['kind']!r}")


def load_representation(spec, group: FiniteGroup):
    _schema(isinstance(spec, dict) and "kind" in spec, "representation spec needs a 'kind'")
    kind = spec["kind"]
    if kind == "regular":
        return regular_rep(group)
    if kind == "characters":
        _schema("chars" in spec, "character representation needs 'chars'")
        shape = group.abelian_shape
        _schema(shape is not None, "character representations need a cyclic-product group")
        try:
            chars = [Character(shape, tuple(int(k) for k in exps)) for exps in spec["chars"]]
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad character exponents: {exc}") from exc
        _schema(len(chars) > 0, "character representation needs at least one character")
        return character_rep(group, chars)
    if kind == "matrices":
        _schema("data" in spec, "matrix representation needs 'data'")
        arr = np.asarray(spec["data"], dtype=np.float64)
        _schema(arr.ndim == 4 and arr.shape[0] == group.order and arr.shape[3] == 2
                and arr.shape[1] == arr.shape[2],
                "matrix data must be one [re, im] square matrix per group element")
        # validation failures below (unitarity, homomorphism law) are
        # numerical failures, exit code 3, not schema errors
        return make_representation(group, arr[..., 0] + 1j * arr[..., 1])
    raise ScenarioError(f"unknown representation kind {kind!r}")


def _as_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            pass
    raise ScenarioError(f"cannot read {value!r} as a complex number")


def _as_element(value, group: FiniteGroup) -> int:
    try:
        if isinstance(value, (list, tuple)):
            return group.element_index([int(v) for v in value])
        idx = int(value)
    except (NonAbelianError, TypeError, ValueError) as exc:
        raise ScenarioError(f"cannot read {value!r} as a group element: {exc}") from exc
    _schema(0 <= idx < group.order, f"element index {idx} out of range")
    return idx


def load_measure(spec, group: FiniteGroup) -> Measure:
    _schema(isinstance(spec, dict), "measure spec must be an object")
    if "dirac" in spec:
        return dirac(group, _as_element(spec["dirac"], group))
    if "density" in spec:
        vals = [_as_complex(v) for v in spec["density"]]
        _schema(len(vals) == group.order, "density must list one value per group element")
        return from_density(group, vals)
    if "weights" in spec:
        w = np.zeros(group.order, dtype=np.complex128)
        for entry in spec["weights"]:
            _schema(isinstance(entry, dict) and "elem" in entry, "weight entries need 'elem'")
            w[_as_element(entry["elem"], group)] += _as_complex(
                [entry.get("re", 0.0), entry.get("im", 0.0)])
        return Measure(group, w)
    if "character_density" in spec:
        shape = group.abelian_shape
        _schema(shape is not None, "character densities need a cyclic-product group")
        chi = Character(shape, tuple(int(k) for k in spec["character_density"]))
        return from_density(group, chi.values(group))
    raise ScenarioError("measure spec needs one of 'dirac', 'density', 'weights', 'character_density'")


def load_scenario(obj, index: int, seed_override, tol_override) -> Scenario:
    _schema(isinstance(obj, dict), "each scenario must be a JSON object")
    _schema("experiment" in obj, "scenario needs an 'experiment'")
    experiment = obj["experiment"]
    _schema(experiment in EXPERIMENTS,
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}")
    seed = seed_override if seed_override is not None else int(obj.get("seed", 0))
    tol = tol_override if tol_override is not None else float(obj.get("tol", TOL))
    params = obj.get("params", {})
    _schema(isinstance(params, dict), "'params' must be an object")
    measures = obj.get("measures", [])
    _schema(isinstance(measures, list), "'measures' must be a list")
    return Scenario(
        sid=str(obj.get("id", f"scenario-{index:03d}")),
        experiment=experiment,
        seed=seed,
        tol=tol,
        group_spec=obj.get("group"),
        rep_spec=obj.get("representation"),
        measure_specs=measures,
        params=params,
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _need_group(s: Scenario) -> FiniteGroup:
    _schema(s.group_spec is not None, f"{s.experiment} needs a 'group'")
    return load_group(s.group_spec)


def _need_rep(s: Scenario, group: FiniteGroup):
    _schema(s.rep_spec is not None, f"{s.experiment} needs a 'representation'")
    return load_representation(s.rep_spec, group)


def _measures_or_random(s: Scenario, group: FiniteGroup, quick: bool, minimum: int = 1):
    given = [load_measure(spec, group) for spec in s.measure_specs]
    if len(given) >= minimum:
        return given, "given"
    trials = int(s.params.get("trials", 20))
    if quick:
        trials = max(1, trials // 4)
    rng = make_rng(s.seed)
    return [random_measure(group, rng) for _ in range(max(trials, minimum))], "random"


def _rec(s: Scenario, case: str, passed, **metrics) -> dict:
    rec = {
        "id": s.sid,
        "suite": s.experiment,
        "case": case,
        "identity": IDENTITIES[s.experiment],
        "passed": bool(passed),
    }
    rec.update(metrics)
    return rec


def exp_gamma_homomorphism(s: Scenario, quick: bool) -> list[dict]:
    group = _need_group(s)
    pi = _need_rep(s, group)
    measures, origin = _measures_or_random(s, group, quick, minimum=2)
    diag = diagonalize(pi) if group.abelian_shape is not None else None
    records = []
    resid = unitality_residual(pi)
    records.append(_rec(s, "unit", resid <= s.tol, residual=float(resid)))
    for i, mu in enumerate(measures):
        records.append(_rec(s, f"measure-{i:02d}/report", True,
                            **gamma_report(pi, mu, diag=diag)))
    pairs = [(i, j) for i in range(len(measures)) for j in range(len(measures)) if i != j]
    if origin == "random":
        pairs = [(i, i + 1) for i in range(0, len(measures) - 1, 2)]
    for i, j in pairs:
        resid = homomorphism_residual(pi, measures[i], measures[j])
        records.append(_rec(s, f"pair-{i:02d}-{j:02d}", resid <= s.tol, residual=float(resid)))
    return records


def exp_schur_identity(s: Scenario, quick: bool) -> list[dict]:
    group = _need_group(s)
    pi = _need_rep(s, group)
    _schema(group.abelian_shape is not None, "schur-identity needs a cyclic-product group")
    diag = diagonalize(pi)
    measures, _ = _measures_or_random(s, group, quick)
    records = []
    for i, mu in enumerate(measures):
        resid = symbol_residual(diag, mu, fourier_symbol(mu, diag.char_of_index))
        records.append(_rec(s, f"measure-{i:02d}", resid <= s.tol,
                            residual=float(resid), mu_norm=float(mu.norm)))
    return records


def exp_kernel_equivalence(s: Scenario, quick: bool) -> list[dict]:
    group = _need_group(s)
    pi = _need_rep(s, group)
    _schema(group.abelian_shape is not None, "kernel-equivalence needs a cyclic-product group")
    diag = diagonalize(pi)
    measures, origin = _measures_or_random(s, group, quick)
    if origin == "random":
        # make sure at least one instance lands in the kernel
        measures = measures + [kernel_measure(diag, make_rng(s.seed, stream=1))]
    records = []
    for i, mu in enumerate(measures):
        t1, t2, t3 = kernel_verdicts(pi, diag, mu)
        records.append(_rec(s, f"measure-{i:02d}", t1 == t2 == t3,
                            transfer=t1, diffset=t2, tensorconj=t3))
    return records


def exp_cp_posdef(s: Scenario, quick: bool) -> list[dict]:
    group = _need_group(s)
    pi = _need_rep(s, group)
    _schema(group.abelian_shape is not None, "cp-posdef-equivalence needs a cyclic-product group")
    diag = diagonalize(pi)
    measures, _ = _measures_or_random(s, group, quick)
    trials = 10 if quick else int(s.params.get("sample_trials", 50))
    records = []
    for i, mu in enumerate(measures):
        try:
            report = equivalence_suite(diag, mu, trials=trials, tol=s.tol, seed=s.seed)
        except EquivalenceViolationError as exc:
            records.append(_rec(s, f"measure-{i:02d}", False, error=str(exc)))
            continue
        records.append(_rec(s, f"measure-{i:02d}", report.consistent,
                            cp=report.completely_positive,
                            posdef=report.positive_definite,
                            sampled=report.sampled_positive,
                            kraus_count=int(report.kraus_count)))
    return records


def exp_square_example(s: Scenario, quick: bool) -> list[dict]:
    params = s.params
    modulus = params.get("modulus", 101)
    indices = params.get("indices", list(range(1, 7)))
    ks = params.get("ks", [params.get("k", 5)])
    records = []
    for k in ks:
        try:
            k = int(k)
            scan = square_scan(modulus, indices, k, tol=s.tol)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad square-example parameters: {exc}") from exc
        passed = scan.pop("passed")
        records.append(_rec(s, f"k-{k}", passed, **scan))
    return records


def exp_restriction_check(s: Scenario, quick: bool) -> list[dict]:
    group = _need_group(s)
    pi = _need_rep(s, group)
    _schema(group.abelian_shape is not None, "restriction-check needs a cyclic-product group")
    gen_spec = s.params.get("subgroup_generators")
    if gen_spec is None:
        rng = make_rng(s.seed)
        generators = [int(rng.integers(group.order)) for _ in range(2)]
    else:
        _schema(isinstance(gen_spec, list), "'subgroup_generators' must be a list")
        generators = [_as_element(g, group) for g in gen_spec]
    sub = subgroup_and_restriction(group, generators)
    try:
        report = restriction_spectrum_check(pi, sub, seed=s.seed, tol=s.tol)
    except RestrictionMismatchError as exc:
        return [_rec(s, "spectrum", False, subgroup_order=sub.subgroup.order, error=str(exc))]
    return [_rec(s, "spectrum", report.match and report.symbol_residual <= s.tol,
                 subgroup_order=sub.subgroup.order,
                 spectrum_size=len(report.expected_exponents),
                 symbol_residual=float(report.symbol_residual))]


def exp_norm_interval(s: Scenario, quick: bool) -> list[dict]:
    records = []
    operators = s.params.get("operators", [])
    _schema(isinstance(operators, list), "'operators' must be a list")
    for i, spec in enumerate(operators):
        try:
            t = op_from_json(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"bad operator spec: {exc}") from exc
        bounds = haagerup_norm_bounds(t)
        ok = bounds.lower <= bounds.upper * (1 + 1e-12) and bounds.width <= NORM_REL_WIDTH * bounds.upper
        records.append(_rec(s, f"operator-{i:02d}", ok, **bounds.report(),
                            width=float(bounds.width)))
    if s.group_spec is not None:
        group = _need_group(s)
        pi = _need_rep(s, group)
        measures, _ = _measures_or_random(s, group, quick)
        for i, mu in enumerate(measures):
            bounds = haagerup_norm_bounds(gamma(pi, mu).op)
            ok = (bounds.lower <= bounds.upper * (1 + 1e-12) and bounds.width <= NORM_REL_WIDTH * bounds.upper
                  and bounds.upper <= mu.norm * (1 + s.tol))
            records.append(_rec(s, f"measure-{i:02d}", ok, **bounds.report(),
                                mu_norm=float(mu.norm),
                                in_augmentation_ideal=bool(in_augmentation_ideal(mu))))
    _schema(bool(records), "norm-interval needs 'operators' or a group/representation/measures")
    return records


EXPERIMENTS = {
    "gamma-homomorphism": exp_gamma_homomorphism,
    "schur-identity": exp_schur_identity,
    "kernel-equivalence": exp_kernel_equivalence,
    "cp-posdef-equivalence": exp_cp_posdef,
    "square-example": exp_square_example,
    "restriction-check": exp_restriction_check,
    "norm-interval": exp_norm_interval,
}

EXPERIMENT_NAMES = tuple(sorted(EXPERIMENTS))


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _summary(records: list[dict]) -> dict:
    by_suite: dict[str, dict] = {}
    for rec in records:
        slot = by_suite.setdefault(rec["suite"], {"total": 0, "failed": 0})
        slot["total"] += 1
        slot["failed"] += 0 if rec["passed"] else 1
    return {
        "type": "summary",
        "total": len(records),
        "failed": sum(slot["failed"] for slot in by_suite.values()),
        "suites": by_suite,
    }


def _render(records: list[dict], summary: dict, fmt: str) -> str:
    if fmt == "json":
        return "\n".join([_json_line(r) for r in records] + [_json_line(summary)]) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "suite", "case", "identity", "passed", "detail"])
    for rec in records:
        rest = {k: v for k, v in rec.items()
                if k not in ("id", "suite", "case", "identity", "passed")}
        writer.writerow([rec.get("id", ""), rec["suite"], rec["case"], rec["identity"],
                         "pass" if rec["passed"] else "fail", _json_line(rest)])
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _print_table(records: list[dict], stream) -> None:
    by_suite: dict[str, list[dict]] = {}
    for rec in records:
        by_suite.setdefault(rec["suite"], []).append(rec)
    width = max(len(name) for name in by_suite) if by_suite else 10
    print(f"{'suite':<{width}}  {'checks':>6}  {'failed':>6}  status", file=stream)
    for name, recs in by_suite.items():
        failed = sum(not r["passed"] for r in recs)
        status = "ok" if failed == 0 else "FAIL"
        print(f"{name:<{width}}  {len(recs):>6}  {failed:>6}  {status}", file=stream)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    try:
        text = Path(args.scenario).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    objs = payload if isinstance(payload, list) else [payload]
    scenarios = [load_scenario(obj, i, args.seed, args.tol) for i, obj in enumerate(objs)]
    chunks = [(s.sid, EXPERIMENTS[s.experiment](s, args.quick)) for s in scenarios]
    chunks.sort(key=lambda pair: pair[0])
    records = [rec for _, chunk in chunks for rec in chunk]
    summary = _summary(records)
    _emit(_render(records, summary, args.format), args.out)
    if args.out:
        print(f"wrote {summary['total']} records to {args.out}", file=sys.stderr)
    return 1 if summary["failed"] else 0


def _cmd_selftest(args) -> int:
    records = run_all(seed=args.seed, quick=args.quick)
    summary = _summary(records)
    _print_table(records, sys.stdout)
    print(f"total {summary['total']}  failed {summary['failed']}", file=sys.stdout)
    if args.out:
        _emit(_render(records, summary, args.format), args.out)
    return 1 if summary["failed"] else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehtp",
        description="Measure-algebra realizations on matrix algebras: scenario runner and selftest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run experiments from a JSON scenario file")
    run_p.add_argument("--scenario", required=True, metavar="FILE",
                       help="JSON scenario object or list of objects")
    run_p.add_argument("--tol", type=float, default=None, help="override assertion tolerance")
    self_p = sub.add_parser("selftest", help="run the randomized invariant suite")
    for p in (run_p, self_p):
        p.add_argument("--seed", type=int, default=None,
                       help="64-bit base seed (default: scenario value or 0)")
        p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json lines)")
        p.add_argument("--quick", action="store_true", help="reduced trial counts")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selftest" and args.seed is None:
        args.seed = 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_selftest(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())