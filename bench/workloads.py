"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up),
does its timed work in ``round`` through the public API or the ``ehtp``
command, and compares the outputs with the oracles in ``check``.  ``check``
counts operations attempted and failed, and lists every problem that makes
the run incorrect.  Faults of the program that are known and fail every
time are counted as failed operations but are not problems.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Workload:
    name = ""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.layer_times: dict[str, float] = {}

    def round(self):
        raise NotImplementedError

    def check(self, output) -> None:
        raise NotImplementedError

    def _expect(self, ok: bool, what: str) -> None:
        """One checked operation; a failure makes the run incorrect."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def _known_fault(self, ok: bool) -> None:
        """One operation that a known fault of the program makes fail."""
        self.attempted += 1
        if not ok:
            self.failed += 1


def _quiet_main(argv) -> int:
    from ehtp import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read_report(path: Path) -> tuple[list[dict], dict]:
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return lines[:-1], lines[-1]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# selftest: the full `ehtp selftest` at one fixed seed
# ---------------------------------------------------------------------------

SELFTEST_SEED = 0
SELFTEST_RECORDS = 3691


def source_digest() -> str:
    """Hash of the package source, so report digests are only compared
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ehtp").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Selftest(Workload):
    """``ehtp selftest --seed 0`` through the CLI entry point.  The seed is
    fixed: the selftest's cost moves about 1.6x between seeds, so the
    benchmark's ``--seed`` does not reach it."""

    name = "selftest"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(workdir)
        from ehtp import cli  # noqa: F401  (the import is part of the set-up)

        self.report = workdir / "selftest.jsonl"
        self.digest_file = ROOT / ".bench_work" / f"selftest-{source_digest()}-seed{SELFTEST_SEED}.sha256"
        self.digest: str | None = None

    def round(self):
        return _quiet_main(["selftest", "--seed", str(SELFTEST_SEED), "--out", str(self.report)])

    def check(self, rc) -> None:
        raw = self.report.read_bytes()
        records, summary = _read_report(self.report)
        self._expect(rc == 0, f"selftest exited {rc}")
        self._expect(len(records) == SELFTEST_RECORDS and summary["total"] == SELFTEST_RECORDS,
                     f"selftest wrote {len(records)} records, expected {SELFTEST_RECORDS}")
        self._expect(summary["failed"] == 0, f"selftest summary reports {summary['failed']} failed")
        for rec in records:
            label = f"{rec['suite']}/{rec['case']}"
            ok = rec["passed"]
            if rec["suite"] == "contractivity" and rec["case"].startswith("generic"):
                ok = ok and rec["upper"] <= rec["tv_norm"] + 1e-9
            elif rec["suite"] == "contractivity":
                ok = ok and _close(rec["upper"], rec["mass"], 1e-9)
            elif rec["suite"] == "norm-interval":
                ok = ok and rec["lower"] <= rec["target"] * (1 + 1e-12) <= rec["upper"] * (1 + 2e-12)
            self._expect(ok, f"selftest record {label} fails its property")
        self._expect(self._same_digest(hashlib.sha256(raw).hexdigest()),
                     "selftest report differs from an earlier report of the same code and seed")

    def _same_digest(self, digest: str) -> bool:
        if self.digest is None and self.digest_file.exists():
            self.digest = self.digest_file.read_text().strip()
        if self.digest is None:
            self.digest = digest
            tmp = self.digest_file.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(digest + "\n")
            os.replace(tmp, self.digest_file)
        return digest == self.digest


# ---------------------------------------------------------------------------
# regular-ladder: regular representations of Z_n, d = n
# ---------------------------------------------------------------------------

LADDER = (4, 6, 8, 10, 12, 14, 16)
NORM_RESTARTS = 1


class RegularLadder(Workload):
    """Every stage of the verifier on the regular representation of Z_n,
    for each n of the ladder.  Weights come from the seed: a generic complex
    measure ``mu``, a second one ``nu`` for the homomorphism, and a strictly
    positive measure for the positivity stages."""

    name = "regular-ladder"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(workdir)
        import ehtp  # noqa: F401

        self.rungs = []
        for n in LADDER:
            rng = np.random.default_rng([seed, n])
            self.rungs.append({
                "n": n,
                "seed": int(rng.integers(2**31)),
                "mu": rng.standard_normal(n) + 1j * rng.standard_normal(n),
                "nu": rng.standard_normal(n) + 1j * rng.standard_normal(n),
                "pos": rng.random(n) + 0.05,
            })

    def round(self):
        from ehtp import (
            Measure, choi, diagonalize, equivalence_suite, gamma, haagerup_norm_bounds,
            is_completely_positive, kernel_test_difference_set, kernel_test_tensor_conjugate,
            kernel_test_transfer, make_cyclic_product, regular_rep, schur_form, transfer_matrix,
        )
        from ehtp.suites import homomorphism_residual

        outputs = []
        for rung in self.rungs:
            g = make_cyclic_product([rung["n"]])
            pi = regular_rep(g)
            mu, nu, pos = (Measure(g, rung[k]) for k in ("mu", "nu", "pos"))
            diag = diagonalize(pi, seed=rung["seed"])
            image = gamma(pi, mu)
            out = {
                "basis": diag.basis,
                "labels": [c.exponents[0] for c in diag.char_of_index],
                "transfer": transfer_matrix(image.op),
                "choi": choi(image.op),
                "homomorphism": homomorphism_residual(pi, mu, nu),
                "symbol": schur_form(diag, mu),
                "kernel": (kernel_test_transfer(image), kernel_test_difference_set(diag, mu),
                           kernel_test_tensor_conjugate(pi, mu)),
                "cp": (is_completely_positive(image.op), is_completely_positive(gamma(pi, pos).op)),
                "equivalence": equivalence_suite(diag, pos, seed=rung["seed"]),
            }
            t0 = time.perf_counter()
            out["upper_only"] = haagerup_norm_bounds(image.op, restarts=0, seed=rung["seed"])
            t1 = time.perf_counter()
            out["bounds"] = haagerup_norm_bounds(image.op, restarts=NORM_RESTARTS, seed=rung["seed"])
            t2 = time.perf_counter()
            out["upper_s"], out["lower_s"] = t1 - t0, (t2 - t1) - (t1 - t0)
            outputs.append(out)
        return outputs

    def check(self, outputs) -> None:
        self.layer_times = {
            "hnorm.upper_half.s": sum(o["upper_s"] for o in outputs),
            "hnorm.lower_half.s": sum(o["lower_s"] for o in outputs),
        }
        for rung, out in zip(self.rungs, outputs):
            self._check_rung(rung, out)

    def _check_rung(self, rung, out) -> None:
        n, mu, nu, pos = rung["n"], rung["mu"], rung["nu"], rung["pos"]
        tv = float(np.abs(mu).sum())
        tag = f"Z{n}"

        p1 = oracles.shift(n, 1)
        phases = np.exp(2j * np.pi * np.array(out["labels"]) / n)
        label_resid = np.abs(p1 @ out["basis"] - out["basis"] * phases).max()
        self._expect(label_resid <= 1e-8, f"{tag}: eigenbasis labels off by {label_resid:.2e}")

        t_mu = oracles.regular_transfer(mu)
        gap = np.abs(out["transfer"] - t_mu).max()
        self._expect(gap <= 1e-12 * max(1.0, tv), f"{tag}: transfer matrix off by {gap:.2e}")
        gap = np.abs(out["choi"] - oracles.regular_choi(mu)).max()
        self._expect(gap <= 1e-12 * max(1.0, tv), f"{tag}: Choi matrix off by {gap:.2e}")

        t_conv = oracles.regular_transfer(oracles.circular_convolution(mu, nu))
        oracle_resid = float(np.linalg.norm(t_conv - t_mu @ oracles.regular_transfer(nu)))
        tol = 1e-9 * max(1.0, float(np.linalg.norm(t_conv)))
        self._expect(out["homomorphism"] <= tol and oracle_resid <= tol,
                     f"{tag}: homomorphism residual {out['homomorphism']:.2e}, oracle {oracle_resid:.2e}")

        expected = oracles.symbol(mu, (n,), [(e,) for e in out["labels"]])
        gap = np.abs(out["symbol"] - expected).max()
        self._expect(gap <= 1e-9 * max(1.0, tv), f"{tag}: symbol differs from the DFT by {gap:.2e}")

        fhat = oracles.transform(mu, (n,))
        diff = oracles.difference_exponents([(e,) for e in out["labels"]], (n,))
        in_kernel = max(abs(fhat[k]) for k in diff) <= 1e-9 * tv
        for name, verdict in zip(("transfer", "difference-set", "tensor-conjugate"), out["kernel"]):
            self._expect(verdict == in_kernel, f"{tag}: {name} kernel verdict {verdict}")

        for label, verdict, weights in zip(("generic", "positive"), out["cp"], (mu, pos)):
            self._expect(verdict == oracles.regular_cp(weights), f"{tag}: CP verdict {verdict} on {label}")

        eq = out["equivalence"]
        self._expect(eq.consistent and eq.completely_positive == oracles.regular_cp(pos)
                     and eq.kraus_count == n,
                     f"{tag}: equivalence report cp={eq.completely_positive} "
                     f"pd={eq.positive_definite} kraus={eq.kraus_count}")

        # regular rep of an abelian group: the cb norm is the total variation norm
        for label, b in (("restarts=0", out["upper_only"]), ("restarts", out["bounds"])):
            self._expect(_close(b.upper, tv, 1e-9) and 0.0 <= b.lower <= b.upper * (1 + 1e-12),
                         f"{tag}: norm bracket [{b.lower}, {b.upper}] with {label}, ||mu||_1 = {tv}")


# ---------------------------------------------------------------------------
# scenario-batch: one `ehtp run` over a batch of scenarios
# ---------------------------------------------------------------------------


def _weights_json(w: np.ndarray) -> dict:
    return {"weights": [{"elem": i, "re": float(v.real), "im": float(v.imag)}
                        for i, v in enumerate(np.asarray(w, dtype=np.complex128))]}


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _generic(rng, order: int) -> np.ndarray:
    return rng.standard_normal(order) + 1j * rng.standard_normal(order)


def _characters(rng, shape, d: int) -> list[tuple[int, ...]]:
    order = int(np.prod(shape))
    flat = rng.choice(order, size=d, replace=False)
    return [tuple(int(c) for c in np.unravel_index(int(i), shape)) for i in sorted(flat)]


def _char_scenario(sid, experiment, shape, chars, measures, seed, **params) -> dict:
    return {
        "id": sid,
        "experiment": experiment,
        "seed": seed,
        "group": {"kind": "cyclic_product", "shape": list(shape)},
        "representation": {"kind": "characters", "chars": [list(c) for c in chars]},
        "measures": [_weights_json(w) for w in measures],
        "params": params,
    }


def _relabelled(rng, n: int, d: int, count: int, base: int):
    """Characters and measures on Z_n: a fixed base instance moved by an
    automorphism ``s -> u s`` of Z_n and a twist of every character by one
    character ``c``, both drawn from ``rng``.

    The realized maps carry the same terms, reordered and with phases that
    cancel, so the cb-norm search costs the same for every seed while the
    inputs differ.
    """
    gen = np.random.default_rng(base)
    chars = [int(k) for k in gen.choice(n, size=d, replace=False)]
    measures = [_generic(gen, n) for _ in range(count)]
    units = [u for u in range(1, n) if np.gcd(u, n) == 1]
    u = int(rng.choice(units))
    c = int(rng.integers(n))
    u_inv = pow(u, -1, n)
    moved = []
    for w in measures:
        v = np.empty_like(w)
        v[(u * np.arange(n)) % n] = w
        moved.append(v)
    return [((u_inv * k + c) % n,) for k in chars], moved


def _kernel_measure(rng, shape, chars) -> np.ndarray:
    """Transform random off the difference set and zero on it."""
    diff = oracles.difference_exponents(chars, shape)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for k in diff:
        values[k] = 0.0
    return oracles.measure_from_transform(values)


class ScenarioBatch(Workload):
    """One ``ehtp run`` over a batch that covers all seven experiments on
    groups of order 120 to 360, plus the four known faults, each run on its
    own outside the timed part."""

    name = "scenario-batch"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(workdir)
        import ehtp  # noqa: F401

        self.expect: dict[str, dict] = {}
        scenarios = self._build(np.random.default_rng([seed, 7]), seed)
        self.batch = workdir / "batch.json"
        self.batch.write_text(json.dumps(scenarios))
        self.out = workdir / "batch.jsonl"
        self.faults = self._write_faults()

    # -- inputs --------------------------------------------------------------

    def _build(self, rng, seed: int) -> list[dict]:
        scen = []

        def add(sc: dict, **expect) -> None:
            scen.append(sc)
            self.expect[sc["id"]] = expect

        shape = (120,)
        chars, ms = _relabelled(rng, 120, 6, 3, base=1)
        add(_char_scenario("homomorphism-z120", "gamma-homomorphism", shape, chars, ms, 0),
            shape=shape, chars=chars, measures=ms)

        # dihedral group of order 120 with its two-dimensional representation,
        # twisted by a one-dimensional character; fixed base weights turned by
        # a global phase (the same maps for every seed, so the same cost)
        n = 60
        base = np.random.default_rng(4)
        turn = np.exp(2j * np.pi * rng.random())
        ms = [_generic(base, 2 * n) * turn for _ in range(2)]
        r, f = np.arange(2 * n) % n, np.arange(2 * n) // n
        twist = [np.ones(2 * n), (-1.0) ** f, (-1.0) ** r, (-1.0) ** (r + f)][int(rng.integers(4))]
        mats = oracles.dihedral_matrices(n) * twist[:, None, None]
        add({"id": "homomorphism-d60", "experiment": "gamma-homomorphism", "seed": 0,
             "group": {"kind": "cayley", "table": oracles.dihedral_table(n)},
             "representation": {"kind": "matrices", "data": [_matrix_json(m) for m in mats]},
             "measures": [_weights_json(w) for w in ms]},
            mats=mats, table=oracles.dihedral_table(n), measures=ms)

        shape, d = (240,), 8
        chars = _characters(rng, shape, d)
        ms = [_generic(rng, 240) for _ in range(3)]
        add(_char_scenario("schur-z240", "schur-identity", shape, chars, ms, seed),
            shape=shape, chars=chars, measures=ms)

        shape, d = (180,), 8
        chars = _characters(rng, shape, d)
        ms = [_kernel_measure(rng, shape, chars), _generic(rng, 180), _kernel_measure(rng, shape, chars)]
        add(_char_scenario("kernel-z180", "kernel-equivalence", shape, chars, ms, seed),
            shape=shape, chars=chars, measures=ms, verdicts=[True, False, True])

        shape, d = (4, 60), 6
        chars = _characters(rng, shape, d)
        add(_char_scenario("kernel-random-z4xz60", "kernel-equivalence", shape, chars, [], seed,
                           trials=4),
            verdicts=[False] * 4 + [True])

        shape, d = (360,), 6
        chars = _characters(rng, shape, d)
        nonneg = rng.random(360)
        negative = rng.random(360)
        negative -= negative.mean() + 0.1  # transform at the trivial character is -36
        ms = [nonneg, negative, _generic(rng, 360)]
        add(_char_scenario("cp-z360", "cp-posdef-equivalence", shape, chars, ms, seed),
            shape=shape, chars=chars, measures=ms, verdicts=[True, False, None])

        modulus = 211
        indices = list(range(1, 9))
        ks: set[int] = set()
        while len(ks) < 3:  # three shifts with pairs, and one drawn at random
            n_, m = rng.choice(indices, size=2, replace=False)
            ks.add(int(m * m - n_ * n_) % modulus)
        while len(ks) < 4:
            ks.add(int(rng.integers(1, modulus)))
        ks = sorted(ks)
        add({"id": "square-n211", "experiment": "square-example", "seed": seed,
             "params": {"modulus": modulus, "indices": indices, "ks": ks}},
            modulus=modulus, indices=indices)

        shape, d = (12, 30), 8
        chars = _characters(rng, shape, d)
        # generators of orders 6 and 10, so the subgroup has order 60 for every seed
        gens = [[2 * int(rng.choice([1, 5, 7, 11])) % 12, 0],
                [0, 3 * int(rng.choice([1, 7, 11, 13, 17, 19, 23, 29])) % 30]]
        add({"id": "restriction-z12xz30", "experiment": "restriction-check", "seed": seed,
             "group": {"kind": "cyclic_product", "shape": list(shape)},
             "representation": {"kind": "characters", "chars": [list(c) for c in chars]},
             "params": {"subgroup_generators": gens}},
            shape=shape, chars=chars, gens=gens)

        operators, targets = [], []
        base = np.random.default_rng(2)
        for i in range(8):
            dim = 2 + i % 4
            terms = 1 if i < 4 else 3
            a = base.standard_normal((terms, dim, dim)) + 1j * base.standard_normal((terms, dim, dim))
            b = base.standard_normal((terms, dim, dim)) + 1j * base.standard_normal((terms, dim, dim))
            # reorder the terms and move a phase from each b_i to its a_i: the same map
            order = rng.permutation(terms)
            phase = np.exp(2j * np.pi * rng.random(terms))[:, None, None]
            a, b = phase * a[order], b[order] / phase
            operators.append({"dim": dim, "terms": [{"a": _matrix_json(x), "b": _matrix_json(y)}
                                                    for x, y in zip(a, b)]})
            targets.append(("single", oracles.single_term_norm(a[0], b[0])) if terms == 1
                           else ("multi", oracles.norm_lower_target(a, b)))
        add({"id": "norm-operators", "experiment": "norm-interval", "seed": 0,
             "params": {"operators": operators}},
            targets=targets)

        shape = (120,)
        chars, ms = _relabelled(rng, 120, 6, 3, base=3)
        add(_char_scenario("norm-z120", "norm-interval", shape, chars, ms, 0),
            shape=shape, chars=chars, measures=ms)
        return scen

    def _write_faults(self) -> dict[str, Path]:
        """The known faults, on inputs that do not depend on the seed."""
        s3 = oracles.dihedral_table(3)
        rng = np.random.default_rng(20031)
        shape, chars = (60,), [(0,), (7,), (19,), (23,), (40,), (52,)]
        self.tiny = rng.standard_normal(60) * 1e-12 + 1j * rng.standard_normal(60) * 1e-12
        self.tiny_chars = chars
        specs = {
            "cayley-coordinates": {"experiment": "gamma-homomorphism",
                                   "group": {"kind": "cayley", "table": s3},
                                   "representation": {"kind": "regular"},
                                   "measures": [{"dirac": [1]}, {"dirac": 2}]},
            "weight-not-a-number": {"experiment": "schur-identity",
                                    "group": {"kind": "cyclic_product", "shape": [6]},
                                    "representation": {"kind": "characters", "chars": [[0], [1]]},
                                    "measures": [{"weights": [{"elem": 1, "re": "x"}]}]},
            "square-modulus-zero": {"experiment": "square-example",
                                    "params": {"modulus": 0, "indices": [1, 2, 3], "ks": [1]}},
            "kernel-scaled-1e-12": _char_scenario("kernel-scaled-1e-12", "kernel-equivalence",
                                                  shape, chars, [self.tiny], 0),
        }
        paths = {}
        for name, spec in specs.items():
            paths[name] = self.workdir / f"fault-{name}.json"
            paths[name].write_text(json.dumps(spec))
        return paths

    # -- timed work ------------------------------------------------------------

    def round(self):
        return _quiet_main(["run", "--scenario", str(self.batch), "--out", str(self.out)])

    # -- checks ----------------------------------------------------------------

    def check(self, rc) -> None:
        records, summary = _read_report(self.out)
        by_id: dict[str, list[dict]] = {}
        for rec in records:
            by_id.setdefault(rec["id"], []).append(rec)
        self._expect(rc == 0 and summary["failed"] == 0 and set(by_id) == set(self.expect),
                     f"batch exited {rc} with {summary['failed']} failed checks")
        for sid, recs in by_id.items():
            exp = self.expect.get(sid, {})
            for rec in recs:
                ok = rec["passed"] and self._record_ok(rec, exp)
                self._expect(ok, f"{sid}/{rec['case']}: {json.dumps(rec, sort_keys=True)[:300]}")
        self._run_faults()

    def _record_ok(self, rec: dict, exp: dict) -> bool:
        suite, case = rec["suite"], rec["case"]
        if suite == "gamma-homomorphism":
            return self._homomorphism_ok(rec, exp)
        if suite == "schur-identity":
            i = int(case.split("-")[1])
            return rec["residual"] <= 1e-9 and _close(rec["mu_norm"], np.abs(exp["measures"][i]).sum(), 1e-12)
        if suite == "kernel-equivalence":
            i = int(case.split("-")[1])
            want = exp["verdicts"][i]
            if "measures" in exp:
                mu = exp["measures"][i]
                fhat = oracles.transform(mu, exp["shape"])
                diff = oracles.difference_exponents(exp["chars"], exp["shape"])
                oracle = max(abs(fhat[k]) for k in diff) <= 1e-9 * np.abs(mu).sum()
                if oracle != want:
                    return False
            return rec["transfer"] == rec["diffset"] == rec["tensorconj"] == want
        if suite == "cp-posdef-equivalence":
            i = int(case.split("-")[1])
            sym = oracles.symbol(exp["measures"][i], exp["shape"], exp["chars"])
            want = oracles.is_psd(sym)
            if exp["verdicts"][i] is not None and exp["verdicts"][i] != want:
                return False
            kraus = int(np.linalg.matrix_rank(sym, tol=1e-9 * np.abs(sym).max())) if want else 0
            return rec["cp"] == rec["posdef"] == want and rec["kraus_count"] == kraus
        if suite == "square-example":
            want = oracles.square_pairs(exp["modulus"], exp["indices"], rec["k"])
            return rec["found_pairs"] == want == rec["oracle_pairs"]
        if suite == "restriction-check":
            elements = oracles.subgroup_elements(exp["shape"], [tuple(g) for g in exp["gens"]])
            size = oracles.restricted_spectrum_size(exp["shape"], exp["chars"], elements)
            return rec["subgroup_order"] == len(elements) and rec["spectrum_size"] == size
        if suite == "norm-interval":
            lower, upper = rec["lower"], rec["upper"]
            if not 0.0 <= lower <= upper * (1 + 1e-12):
                return False
            i = int(case.split("-")[1])
            if case.startswith("operator"):
                kind, target = exp["targets"][i]
                if kind == "single":
                    return lower <= target * (1 + 1e-12) and upper >= target * (1 - 1e-12)
                return upper >= target * (1 - 1e-12)
            mu = exp["measures"][i]
            tv = float(np.abs(mu).sum())
            floor = float(np.abs(oracles.symbol(mu, exp["shape"], exp["chars"])).max())
            return upper <= tv * (1 + 1e-9) and upper >= floor * (1 - 1e-9) and _close(rec["mu_norm"], tv, 1e-12)
        return False

    def _homomorphism_ok(self, rec: dict, exp: dict) -> bool:
        case = rec["case"]
        if case == "unit":
            return rec["residual"] <= 1e-9
        ms = exp["measures"]
        if case.startswith("pair"):
            i, j = (int(x) for x in case.split("-")[1:3])
            if "mats" in exp:
                mats, table = exp["mats"], exp["table"]
                lhs = oracles.group_transfer(oracles.table_convolution(ms[i], ms[j], table), mats)
                rhs = oracles.group_transfer(ms[i], mats) @ oracles.group_transfer(ms[j], mats)
                oracle = np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())
            else:
                n = exp["shape"][0]
                conv = oracles.circular_convolution(ms[i], ms[j])
                lhs = oracles.symbol(conv, (n,), exp["chars"])
                rhs = oracles.symbol(ms[i], (n,), exp["chars"]) * oracles.symbol(ms[j], (n,), exp["chars"])
                oracle = np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())
            return oracle and rec["residual"] <= 1e-9
        i = int(case.split("-")[1].split("/")[0])
        mu = ms[i]
        tv = float(np.abs(mu).sum())
        if "mats" in exp:
            left = mu[:, None, None] * exp["mats"]
            right = exp["mats"].transpose(0, 2, 1)
            floor = oracles.norm_lower_target(left, right)
            diffset_ok = rec["kernel"]["diffset"] is None
        else:
            sym = oracles.symbol(mu, exp["shape"], exp["chars"])
            floor = float(np.abs(sym).max())
            diffset_ok = rec["kernel"]["diffset"] is False
        return (diffset_ok and rec["kernel"]["tensorconj"] is False
                and _close(rec["mu_norm"], tv, 1e-12)
                and floor * (1 - 1e-9) <= rec["cb_upper"] <= tv * (1 + 1e-9))

    def _run_faults(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for name in ("cayley-coordinates", "weight-not-a-number", "square-modulus-zero"):
            proc = subprocess.run([sys.executable, "-m", "ehtp", "run", "--scenario", str(self.faults[name])],
                                  env=env, capture_output=True, text=True, timeout=120)
            lines = proc.stderr.strip().splitlines()
            # wanted: exit 2 with a one-line message; today each exits 1 with a traceback
            self._known_fault(proc.returncode == 2 and len(lines) == 1 and "Traceback" not in proc.stderr)

        out = self.workdir / "fault-kernel.jsonl"
        rc = _quiet_main(["run", "--scenario", str(self.faults["kernel-scaled-1e-12"]), "--out", str(out)])
        records, _ = _read_report(out)
        fhat = oracles.transform(self.tiny, (60,))
        diff = oracles.difference_exponents(self.tiny_chars, (60,))
        in_kernel = max(abs(fhat[k]) for k in diff) <= 1e-9 * np.abs(self.tiny).sum()
        # wanted: all three predicates say "not in the kernel"; today all say it is
        rec = records[0]
        self._known_fault(rc == 0 and not in_kernel
                          and rec["transfer"] == rec["diffset"] == rec["tensorconj"] == in_kernel)


WORKLOADS = {w.name: w for w in (Selftest, RegularLadder, ScenarioBatch)}
