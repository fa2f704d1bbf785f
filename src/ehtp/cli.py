"""Batch command line front end.

Two subcommands:

``ehtp run --scenario FILE``
    Load one JSON scenario (or a list of them), execute the named
    experiments, and emit a machine-readable report: one JSON object per
    assertion plus a trailing summary object (CSV behind ``--format csv``).
    Scenarios in a batch run one after another, in scenario-id order, each
    when the report reaches it.

``ehtp selftest``
    Run the full randomized invariant suite with a fixed default seed and
    print a summary table.  ``--quick`` switches to reduced trial counts.

This module loads and validates scenarios and writes reports; it gates
nothing itself.  Each experiment records the checks of :mod:`ehtp.suites`,
the ones ``selftest`` runs, so a record passes under ``run`` exactly when it
would under ``selftest``; ``--tol`` (or a scenario's ``tol``) is the ``tol``
those checks read.  Every number in a scenario goes through one reader that
refuses null, booleans, non-finite values and integers beyond 64 bits.

Exit codes: 0 all assertions pass; 1 assertion failure; 2 malformed
scenario/schema, a report that cannot be written, or an input too large to
allocate; 3 numerical failure (for example a corrupted representation that
cannot be diagonalized).

Reports are byte-identical across runs given identical seed and flags: all
randomness flows from the single seed (see :func:`ehtp.suites.make_rng`)
and no timestamps or environment data are embedded.  ``selftest`` writes
each record as its check returns and keeps only per-suite counts, so its
memory does not grow with the trial counts; ``run`` holds the records of
one scenario at a time.  ``--out`` is replaced
atomically: the report goes to a temporary file beside it, opened before
any check runs, which is moved onto ``--out`` at the end and removed on
any error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .elementary import ElementaryOperator
from .errors import (
    TOL,
    NonAbelianError,
    NumericalError,
    ScenarioError,
)
from .gamma import gamma
from .groups import Character, FiniteGroup, from_cayley, make_cyclic_product, \
    subgroup_and_restriction
from .measures import Measure, dirac, from_density, in_augmentation_ideal
from .representations import character_rep, diagonalize, make_representation, regular_rep
from .suites import (
    cp_posdef_check,
    gamma_report,
    homomorphism_check,
    kernel_check,
    kernel_measure,
    make_rng,
    norm_check,
    random_measure,
    record,
    restriction_check,
    run_all,
    square_scan,
    symbol_check,
    unit_check,
)

__all__ = ["main"]


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


MAX_SEED = 2**64 - 1       # seeds are 64-bit, unsigned


def _schema(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _array(value, what: str, shape: tuple = (), integer: bool = False, low=None, high=None) -> np.ndarray:
    """Every number a scenario gives is read here: a nested list of JSON
    numbers (not null, not booleans) with the given shape (``None`` matches
    any length; ``()`` reads one number), finite and within ``[low, high]``.
    When ``integer``, each value must be integral and within 64 bits, and
    is read exactly, as a Python ``int`` in an object array."""
    arr = np.array(value, dtype=object)      # ragged nesting leaves lists as entries
    _schema(arr.ndim == len(shape) and all(n is None or n == m for n, m in zip(shape, arr.shape)),
            f"{what} must have shape {shape}, got {arr.shape}")
    entries = arr.ravel().tolist()
    types = set(map(type, entries))
    if not types <= {int, float}:            # a boolean's type is bool, not int
        bad = next(v for v in entries if type(v) not in (int, float))
        raise ScenarioError(f"{what} must be a number, got {bad!r}")
    if integer:
        _schema(float not in types or all(v.is_integer() for v in entries if type(v) is float),
                f"{what} must be integers")      # is_integer() is False for NaN and inf
        ints = [int(v) for v in entries]
        lo, hi = min(ints, default=0), max(ints, default=0)
        _schema(-2**64 < lo and hi < 2**64, f"{what} does not fit in 64 bits")
        out = np.array(ints, dtype=object).reshape(arr.shape)
    else:
        try:
            out = arr.astype(np.float64)
        except OverflowError as exc:         # an integer beyond the float range
            raise ScenarioError(f"{what} must be finite: {exc}") from exc
        _schema(bool(np.isfinite(out).all()), f"{what} must be finite")
        lo, hi = out.min(initial=np.inf), out.max(initial=-np.inf)
    _schema((low is None or lo >= low) and (high is None or hi <= high), f"{what} is out of range")
    return out


def _number(value, what: str, integer: bool = False, low=None, high=None):
    """One number, read by :func:`_array`: an ``int`` when ``integer``, else a ``float``."""
    return _array(value, what, (), integer, low, high).item()


def _integers(value, what: str, low=None) -> list[int]:
    _schema(isinstance(value, list), f"{what} must be a list, got {value!r}")
    return _array(value, what, (None,), integer=True, low=low).tolist()


def load_group(spec) -> FiniteGroup:
    _schema(isinstance(spec, dict) and "kind" in spec, "group spec needs a 'kind'")
    try:
        if spec["kind"] == "cyclic_product":
            return make_cyclic_product(_integers(spec.get("shape"), "group shape", low=1))
        if spec["kind"] == "cayley":
            table = spec.get("table")
            _schema(isinstance(table, list), "cayley 'table' must be a list of rows")
            return from_cayley(_array(table, "cayley table", (None, None), integer=True,
                                      low=0, high=len(table) - 1))
    except ValueError as exc:
        raise ScenarioError(f"bad group spec: {exc}") from exc
    raise ScenarioError(f"unknown group kind {spec['kind']!r}")


def _character(exps, group: FiniteGroup) -> Character:
    shape = group.abelian_shape
    _schema(shape is not None, "characters need a cyclic-product group")
    exps = _integers(exps, "character exponent")
    if len(exps) != len(shape):
        raise ScenarioError(f"character exponents {exps} do not match the shape {shape}")
    return Character(shape, tuple(exps))


def load_representation(spec, group: FiniteGroup):
    _schema(isinstance(spec, dict) and "kind" in spec, "representation spec needs a 'kind'")
    kind = spec["kind"]
    if kind == "regular":
        return regular_rep(group)
    if kind == "characters":
        chars = spec.get("chars")
        _schema(isinstance(chars, list) and len(chars) > 0,
                "character representation needs a non-empty 'chars' list")
        return character_rep(group, [_character(exps, group) for exps in chars])
    if kind == "matrices":
        _schema("data" in spec, "matrix representation needs 'data'")
        arr = _array(spec["data"], "matrix data", (group.order, None, None, 2))
        _schema(arr.shape[1] == arr.shape[2],
                "matrix data must be one [re, im] square matrix per group element")
        # validation failures below (unitarity, homomorphism law) are
        # numerical failures, exit code 3, not schema errors
        return make_representation(group, arr[..., 0] + 1j * arr[..., 1])
    raise ScenarioError(f"unknown representation kind {kind!r}")


def _as_complex(value) -> complex:
    if not isinstance(value, list):
        return complex(_number(value, "complex number"))
    if len(value) != 2:
        raise ScenarioError(f"cannot read {value!r} as a complex number")
    return complex(_number(value[0], "real part"), _number(value[1], "imaginary part"))


def _as_element(value, group: FiniteGroup) -> int:
    if isinstance(value, list):
        try:
            return group.element_index(_integers(value, "element coordinate"))
        except (NonAbelianError, ValueError) as exc:
            raise ScenarioError(f"cannot read {value!r} as a group element: {exc}") from exc
    return _number(value, "element index", integer=True, low=0, high=group.order - 1)


def _as_elements(values: list, group: FiniteGroup) -> np.ndarray:
    """Many elements, read in one pass when all are given as indices."""
    if any(isinstance(v, list) for v in values):
        return np.array([_as_element(v, group) for v in values], dtype=np.intp)
    return _array(values, "element index", (None,), integer=True, low=0,
                  high=group.order - 1).astype(np.intp)


def load_measure(spec, group: FiniteGroup) -> Measure:
    _schema(isinstance(spec, dict), "measure spec must be an object")
    if "dirac" in spec:
        return dirac(group, _as_element(spec["dirac"], group))
    if "density" in spec:
        _schema(isinstance(spec["density"], list), "density must be a list")
        vals = [_as_complex(v) for v in spec["density"]]
        _schema(len(vals) == group.order, "density must list one value per group element")
        return from_density(group, vals)
    if "weights" in spec:
        entries = spec["weights"]
        _schema(isinstance(entries, list) and all(isinstance(e, dict) and "elem" in e for e in entries),
                "weights must be a list of entries with an 'elem'")
        elems = _as_elements([e["elem"] for e in entries], group)
        re, im = (_array([e.get(part, 0.0) for e in entries], f"weight '{part}'", (None,))
                  for part in ("re", "im"))
        w = np.zeros(group.order, dtype=np.complex128)
        np.add.at(w, elems, re + 1j * im)             # repeated elements accumulate
        return Measure(group, w)
    if "character_density" in spec:
        chi = _character(spec["character_density"], group)
        return from_density(group, chi.values(group))
    raise ScenarioError("measure spec needs one of 'dirac', 'density', 'weights', 'character_density'")


def load_operator(spec) -> ElementaryOperator:
    """The operator ``x -> sum_i a_i x b_i`` from the object
    ``{"dim": d, "terms": [{"a": A, "b": B}, ...]}``: ``d`` an integer of at
    least 1, and at least one term, whose ``A`` and ``B`` are d x d grids,
    row by row, of ``[re, im]`` pairs, so ``A[j][k] = [Re a_jk, Im a_jk]``."""
    _schema(isinstance(spec, dict), "operator spec must be an object")
    dim = _number(spec.get("dim"), "operator 'dim'", integer=True, low=1)
    terms = spec.get("terms")
    _schema(isinstance(terms, list) and len(terms) > 0, "operator needs a non-empty 'terms' list")
    pairs = []
    for term in terms:
        _schema(isinstance(term, dict) and "a" in term and "b" in term, "operator terms need 'a' and 'b'")
        a, b = (_array(term[side], "operator matrix", (dim, dim, 2)) for side in "ab")
        pairs.append((a[..., 0] + 1j * a[..., 1], b[..., 0] + 1j * b[..., 1]))
    return ElementaryOperator.from_terms(dim, pairs)


def load_scenario(obj, index: int, seed_override, tol_override) -> Scenario:
    _schema(isinstance(obj, dict), "each scenario must be a JSON object")
    _schema("experiment" in obj, "scenario needs an 'experiment'")
    experiment = obj["experiment"]
    _schema(isinstance(experiment, str) and experiment in EXPERIMENTS,
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}")
    seed = seed_override
    if seed is None:
        seed = _number(obj.get("seed", 0), "seed", integer=True, low=0, high=MAX_SEED)
    tol = tol_override if tol_override is not None else _number(obj.get("tol", TOL), "tol")
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
# Experiments: each loads its inputs and records the shared checks
# ---------------------------------------------------------------------------


def _need_group(s: Scenario) -> FiniteGroup:
    _schema(s.group_spec is not None, f"{s.experiment} needs a 'group'")
    return load_group(s.group_spec)


def _need_rep(s: Scenario, group: FiniteGroup):
    _schema(s.rep_spec is not None, f"{s.experiment} needs a 'representation'")
    return load_representation(s.rep_spec, group)


def _need_abelian(s: Scenario, group: FiniteGroup) -> None:
    _schema(group.abelian_shape is not None, f"{s.experiment} needs a cyclic-product group")


def _measures_or_random(s: Scenario, group: FiniteGroup, quick: bool, minimum: int = 1):
    given = [load_measure(spec, group) for spec in s.measure_specs]
    if len(given) >= minimum:
        return given, "given"
    trials = _number(s.params.get("trials", 20), "'trials'", integer=True, low=0)
    if quick:
        trials = max(1, trials // 4)
    rng = make_rng(s.seed)
    return [random_measure(group, rng) for _ in range(max(trials, minimum))], "random"


def _rec(s: Scenario, case: str, body: dict, **context) -> dict:
    return {"id": s.sid, **record(s.experiment, case, body, **context)}


def exp_gamma_homomorphism(s: Scenario, quick: bool) -> list[dict]:
    group = _need_group(s)
    pi = _need_rep(s, group)
    measures, origin = _measures_or_random(s, group, quick, minimum=2)
    diag = diagonalize(pi) if group.abelian_shape is not None else None
    records = [_rec(s, "unit", unit_check(pi, s.tol))]
    for i, mu in enumerate(measures):
        records.append(_rec(s, f"measure-{i:02d}/report", gamma_report(pi, mu, diag=diag, tol=s.tol)))
    pairs = [(i, j) for i in range(len(measures)) for j in range(len(measures)) if i != j]
    if origin == "random":
        pairs = [(i, i + 1) for i in range(0, len(measures) - 1, 2)]
    for i, j in pairs:
        records.append(_rec(s, f"pair-{i:02d}-{j:02d}",
                            homomorphism_check(pi, measures[i], measures[j], s.tol)))
    return records


def exp_schur_identity(s: Scenario, quick: bool) -> list[dict]:
    group = _need_group(s)
    pi = _need_rep(s, group)
    _need_abelian(s, group)
    diag = diagonalize(pi)
    measures, _ = _measures_or_random(s, group, quick)
    return [_rec(s, f"measure-{i:02d}", symbol_check(diag, mu, s.tol), mu_norm=float(mu.norm))
            for i, mu in enumerate(measures)]


def exp_kernel_equivalence(s: Scenario, quick: bool) -> list[dict]:
    group = _need_group(s)
    pi = _need_rep(s, group)
    _need_abelian(s, group)
    diag = diagonalize(pi)
    measures, origin = _measures_or_random(s, group, quick)
    if origin == "random":
        # make sure at least one instance lands in the kernel
        measures = measures + [kernel_measure(diag, make_rng(s.seed, stream=1))]
    return [_rec(s, f"measure-{i:02d}", kernel_check(pi, diag, mu)) for i, mu in enumerate(measures)]


def exp_cp_posdef(s: Scenario, quick: bool) -> list[dict]:
    group = _need_group(s)
    pi = _need_rep(s, group)
    _need_abelian(s, group)
    diag = diagonalize(pi)
    measures, _ = _measures_or_random(s, group, quick)
    trials = 10 if quick else _number(s.params.get("sample_trials", 50), "'sample_trials'",
                                      integer=True, low=0)
    return [_rec(s, f"measure-{i:02d}", cp_posdef_check(diag, mu, trials, s.seed, s.tol))
            for i, mu in enumerate(measures)]


def exp_square_example(s: Scenario, quick: bool) -> list[dict]:
    params = s.params
    modulus = _number(params.get("modulus", 101), "'modulus'", integer=True)
    indices = _integers(params.get("indices", list(range(1, 7))), "'indices'")
    if "ks" in params:
        ks = _integers(params["ks"], "'ks'")
    else:
        ks = [_number(params.get("k", 5), "'k'", integer=True)]
    try:
        return [_rec(s, f"k-{k}", square_scan(modulus, indices, k, tol=s.tol)) for k in ks]
    except ValueError as exc:
        raise ScenarioError(f"bad square-example parameters: {exc}") from exc


def exp_restriction_check(s: Scenario, quick: bool) -> list[dict]:
    group = _need_group(s)
    pi = _need_rep(s, group)
    _need_abelian(s, group)
    gen_spec = s.params.get("subgroup_generators")
    if gen_spec is None:
        rng = make_rng(s.seed)
        generators = [int(rng.integers(group.order)) for _ in range(2)]
    else:
        _schema(isinstance(gen_spec, list), "'subgroup_generators' must be a list")
        generators = [_as_element(g, group) for g in gen_spec]
    sub = subgroup_and_restriction(group, generators)
    return [_rec(s, "spectrum", restriction_check(pi, sub, s.seed, s.tol))]


def exp_norm_interval(s: Scenario, quick: bool) -> list[dict]:
    operators = s.params.get("operators", [])
    _schema(isinstance(operators, list), "'operators' must be a list")
    records = [_rec(s, f"operator-{i:02d}", norm_check(load_operator(spec)))
               for i, spec in enumerate(operators)]
    if s.group_spec is not None:
        group = _need_group(s)
        pi = _need_rep(s, group)
        measures, _ = _measures_or_random(s, group, quick)
        for i, mu in enumerate(measures):
            records.append(_rec(s, f"measure-{i:02d}", norm_check(gamma(pi, mu).op, mu, s.tol),
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


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _summary(records: Iterable[dict]) -> dict:
    """Read the records as they pass, keeping only per-suite counts."""
    by_suite: dict[str, dict] = {}
    for rec in records:
        slot = by_suite.setdefault(rec["suite"], {"total": 0, "failed": 0})
        slot["total"] += 1
        slot["failed"] += 0 if rec["passed"] else 1
    return {
        "type": "summary",
        "total": sum(slot["total"] for slot in by_suite.values()),
        "failed": sum(slot["failed"] for slot in by_suite.values()),
        "suites": by_suite,
    }


def _csv_row(rec: dict) -> list:
    rest = {k: v for k, v in rec.items() if k not in ("id", "suite", "case", "identity", "passed")}
    return [rec.get("id", ""), rec["suite"], rec["case"], rec["identity"],
            "pass" if rec["passed"] else "fail", _json_line(rest)]


def _written(records: Iterable[dict], write) -> Iterator[dict]:
    """Each record, passed on once ``write`` has serialized it."""
    for rec in records:
        write(rec)
        yield rec


@contextmanager
def _report_stream(out: str | None):
    """The stream a report goes to: stdout without ``out``, else a temporary
    sibling of ``out`` that replaces it when the block ends and is removed
    if the block raises, so ``out`` holds an earlier report or a whole new
    one, never part of one."""
    if not out:
        yield sys.stdout
        return
    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as stream:
            yield stream
        os.replace(tmp, out)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _write_report(records: Iterable[dict], fmt: str, out: str | None) -> dict:
    """Write each record as it arrives, one JSON object per line and then
    the summary, or a CSV header and one row per record, to ``out`` (see
    :func:`_report_stream`) or stdout, and return the summary.  The stream
    is opened before the first record is asked for, so an unwritable
    ``out`` fails before any check runs, and only per-suite counts are
    kept, so memory does not grow with the report."""
    with _report_stream(out) as stream:
        if fmt == "json":
            def write(obj: dict) -> None:
                stream.write(_json_line(obj) + "\n")
        else:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["id", "suite", "case", "identity", "passed", "detail"])

            def write(obj: dict) -> None:
                writer.writerow(_csv_row(obj))
        summary = _summary(_written(records, write))
        if fmt == "json":
            write(summary)
    return summary


def _print_table(summary: dict, stream) -> None:
    by_suite = summary["suites"]
    width = max(len(name) for name in by_suite) if by_suite else 10
    print(f"{'suite':<{width}}  {'checks':>6}  {'failed':>6}  status", file=stream)
    for name, slot in by_suite.items():
        status = "ok" if slot["failed"] == 0 else "FAIL"
        print(f"{name:<{width}}  {slot['total']:>6}  {slot['failed']:>6}  {status}", file=stream)
    print(f"total {summary['total']}  failed {summary['failed']}", file=stream)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _run_records(scenarios: list[Scenario], quick: bool) -> Iterator[dict]:
    """The records of each scenario in scenario-id order (equal ids keep
    their file order).  A scenario runs when its first record is asked for."""
    for s in sorted(scenarios, key=lambda s: s.sid):
        yield from EXPERIMENTS[s.experiment](s, quick)


def _cmd_run(args) -> int:
    try:
        text = Path(args.scenario).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # the second: nesting too deep
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    objs = payload if isinstance(payload, list) else [payload]
    scenarios = [load_scenario(obj, i, args.seed, args.tol) for i, obj in enumerate(objs)]
    summary = _write_report(_run_records(scenarios, args.quick), args.format, args.out)
    if args.out:
        print(f"wrote {summary['total']} records to {args.out}", file=sys.stderr)
    return 1 if summary["failed"] else 0


def _cmd_selftest(args) -> int:
    records = run_all(seed=args.seed, quick=args.quick)
    if args.out:
        summary = _write_report(records, args.format, args.out)
    else:
        summary = _summary(records)
    _print_table(summary, sys.stdout)
    return 1 if summary["failed"] else 0


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"seed {seed} is not in [0, 2**64 - 1]")
    return seed


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
        p.add_argument("--seed", type=_seed, default=None,
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
    except OSError as exc:          # the scenario file's own read is a ScenarioError
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:      # an input too large for this machine
        print(f"cannot allocate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())