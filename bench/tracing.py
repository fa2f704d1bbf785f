"""Spans around the public functions of each ``ehtp`` module, for the traced run.

``Tracer.install`` replaces every listed function at every name that binds
it: the module that defines it, every module that imported it with
``from .x import y``, the package namespace, and the dispatch tables that
hold it (``cli.EXPERIMENTS``, ``suites._SUITE_SPECS``).  Each call records a
span ``[name, start, end, parent span]`` in memory.  Every thread keeps its own
span stack and span list; a span opened on a pool thread with an empty
stack is parented to the span open on the installing thread, which is the
one that started the pool.  Spans are written out only when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

# Public functions timed per module, as ``<module>.<name>``; a dotted name
# is a method of a class in that module.
LAYERS = {
    "groups": ["Character.values", "dual_group", "difference_set", "subgroup_and_restriction"],
    "measures": ["fourier_stieltjes", "convolve"],
    "representations": ["diagonalize", "regular_rep", "character_rep", "tensor_conjugate"],
    "elementary": ["apply", "is_diagonal_bimodule", "transfer_matrix", "choi",
                   "is_completely_positive", "strongly_independent_kraus",
                   "positive_implies_cp_check", "conjugate_by"],
    "gamma": ["gamma", "schur_form", "kernel_test_transfer", "kernel_test_difference_set",
              "kernel_test_tensor_conjugate", "restriction_spectrum_check"],
    "hnorm": ["haagerup_norm_bounds", "prune_terms"],
    "varopoulos": ["equivalence_suite", "from_measure"],
    "suites": ["homomorphism_suite", "contractivity_suite", "schur_suite", "square_suite",
               "kernel_suite", "cp_posdef_suite", "norm_interval_suite", "slice_suite",
               "cyclic_vector_suite", "restriction_suite", "gamma_report",
               "homomorphism_residual", "square_scan"],
    "cli": ["load_scenario", "exp_gamma_homomorphism", "exp_schur_identity",
            "exp_kernel_equivalence", "exp_cp_posdef", "exp_square_example",
            "exp_restriction_check", "exp_norm_interval", "main"],
}


def _tensor_bytes(args, kwargs, result) -> tuple[str, int]:
    pi = args[0] if args else kwargs["pi"]
    # computed from the shapes: |G| * d^4 complex128 entries
    return "representations.tensor_conjugate.bytes", pi.group.order * pi.dim**4 * 16


def _iterations(args, kwargs, result) -> tuple[str, int]:
    return "hnorm.iterations", int(result.iterations)


COUNTERS = {
    "representations.tensor_conjugate": _tensor_bytes,
    "hnorm.haagerup_norm_bounds": _iterations,
}


class Tracer:
    """In-memory span recorder with one span stack and one span list per
    thread, so recording takes no lock."""

    def __init__(self) -> None:
        self._threads: list[tuple[list, dict]] = []   # (spans, counters) per thread
        self._register = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[list] = []
        self._undo: list = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # span: [name, start, end, parent span or None]
            state = self._local.state = ([], [], defaultdict(int))
            with self._register:
                self._threads.append((state[1], state[2]))
        return state

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        root_stack = self._root_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, counters = self._state()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = root_stack[-1]
                except IndexError:
                    parent = None
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                counters[key] += amount
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function, everywhere the package binds it."""
        stack, _, _ = self._state()
        self._root_stack = stack
        modules = [importlib.import_module("ehtp")]
        modules += [importlib.import_module(f"ehtp.{m}") for m in LAYERS]
        for module, names in LAYERS.items():
            home = importlib.import_module(f"ehtp.{module}")
            for qualname in names:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._set(cls, attr, self.wrap(f"{module}.{qualname}", original))
                    continue
                original = getattr(home, qualname)
                wrapped = self.wrap(f"{module}.{qualname}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
                        elif isinstance(value, dict) and any(v is original for v in value.values()):
                            self._rebind_dict(value, original, wrapped)
                        elif isinstance(value, tuple) and _contains(value, original):
                            self._set(mod, key, _replace(value, original, wrapped))

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _rebind_dict(self, table: dict, original, wrapped) -> None:
        for key, value in table.items():
            if value is original:
                self._undo.append((table, key, value))
                table[key] = wrapped

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    # -- derived figures ---------------------------------------------------

    @property
    def spans(self) -> list[list]:
        return [span for spans, _ in self._threads for span in spans]

    @property
    def counters(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for _, counters in self._threads:
            for key, value in counters.items():
                total[key] += value
        return dict(total)

    def summary(self) -> dict[str, float]:
        """Per function: ``.calls`` and inclusive ``.s``; per module:
        ``.self_s``; ``cli.overhead.s``; and the counters."""
        spans = self.spans
        children: dict[int, list[list]] = defaultdict(list)
        for span in spans:
            if span[3] is not None:
                children[id(span[3])].append(span)
        out: dict[str, float] = defaultdict(float)
        for span in spans:
            name, start, end, _ = span
            kids = children[id(span)]
            out[f"{name}.calls"] += 1
            if not _inside_same(span):
                out[f"{name}.s"] += end - start
            covered = _covered([(k[1], k[2]) for k in kids], start, end)
            out[f"{name.split('.')[0]}.self_s"] += (end - start) - covered
            if name == "cli.main":
                work = [(k[1], k[2]) for k in kids
                        if k[0].startswith("cli.exp_") or k[0].endswith("_suite")]
                out["cli.overhead.s"] += (end - start) - _covered(work, start, end)
        for key, value in self.counters.items():
            out[key] += value
        return dict(out)

    def write(self, path) -> None:
        """Spans as one JSON document: a name table and ``[name id, start,
        end, parent row]`` rows, times in seconds from the first span."""
        spans = sorted(self.spans, key=lambda s: s[1])
        row = {id(s): i for i, s in enumerate(spans)}
        names = sorted({s[0] for s in spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = spans[0][1] if spans else 0.0
        rows = [[ids[n], round(a - t0, 7), round(b - t0, 7), row.get(id(p), -1)]
                for n, a, b, p in spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows, "counters": self.counters}, fh,
                      separators=(",", ":"))


def _inside_same(span: list) -> bool:
    """True when an enclosing span has the same name (recursion)."""
    parent = span[3]
    while parent is not None:
        if parent[0] == span[0]:
            return True
        parent = parent[3]
    return False


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _contains(value, target) -> bool:
    return any(v is target or (isinstance(v, tuple) and _contains(v, target)) for v in value)


def _replace(value: tuple, target, wrapped) -> tuple:
    return tuple(wrapped if v is target else _replace(v, target, wrapped) if isinstance(v, tuple) else v
                 for v in value)
