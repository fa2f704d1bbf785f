"""Package layout, checked with ``ast`` in place of a linter: modules use each
other only through public names, the package starts no threads and reads no
environment, no file imports a name it never uses, no module but
``errors`` defines a threshold constant, the package needs nothing but
numpy, no ``einsum`` takes three or more operands, ``hnorm`` calls no
``einsum``, has one form class, which branches on no block size, and one
Newton loop, and holds no interior-point solve, whose test oracle writes the
W block once and whose cone helpers read no ``ndim``, no caller in the
package, the tests, the demos or the README passes an ignored parameter, no function that takes ``tol`` compares with
``TOL`` without a stated reason, neither rewriting gate builds a dense Choi
or transfer matrix, no function but the dense forms and the composition
distance calls ``transfer_matrix``, ``choi`` or their builders, no comparison in ``cli`` reads a tolerance, every
name in ``ehtp.__all__`` has a caller outside its module and the tests, or
a stated reason to be public, and so has every public method of its
classes, and every name in a module's ``__all__`` is defined there, once
in the package."""

import ast
import inspect
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ehtp"


def _private_imports(path):
    """``(line, module, name)`` for every underscore name imported from
    another ``ehtp`` module, at any depth of the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "ehtp":
            continue
        found += [(node.lineno, module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_private_names_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {p.name: _private_imports(p) for p in modules}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


TESTS = Path(__file__).resolve().parent


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _thread_and_environment_uses(path):
    """``(line, what)`` for every import of ``concurrent.futures`` or
    ``threading`` and every read of ``os.environ``."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "environ"
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, "os.environ"))
            continue
        else:
            continue
        found += [(node.lineno, m) for m in modules
                  if m.split(".")[0] == "threading" or m.startswith("concurrent.futures")
                  or m == "os.environ"]
    return found


def test_package_runs_on_one_thread_and_reads_no_environment():
    found = {p.name: _thread_and_environment_uses(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _unused_imports(path):
    """``(line, name)`` for every imported name the file never reads; a name
    listed in the module's ``__all__`` counts as read."""
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_imported_name_is_used():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(files) > 15
    found = {f"{p.parent.name}/{p.name}": _unused_imports(p) for p in files}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _threshold_constants(path):
    """``(line, name)`` for every module-level name ending in ``_TOL`` or
    ``_CUTOFF``."""
    found = []
    for node in _tree(path).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        found += [(node.lineno, t.id) for t in targets
                  if isinstance(t, ast.Name) and t.id.endswith(("_TOL", "_CUTOFF"))]
    return found


def test_thresholds_come_from_the_two_package_constants():
    # every gate reads errors.TOL and every rank decision errors.CUTOFF
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "errors.py"]
    assert len(modules) > 5
    found = {p.name: _threshold_constants(p) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _tolerance_comparisons(path):
    """``(line, name)`` for every comparison that reads a tolerance (``tol``,
    ``TOL``, ``NORM_REL_WIDTH`` or an attribute ``.tol``) in an operand."""
    found = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.Compare):
            continue
        for sub in (s for operand in [node.left, *node.comparators] for s in ast.walk(operand)):
            if isinstance(sub, ast.Name) and sub.id in {"tol", "TOL", "NORM_REL_WIDTH"}:
                found.append((node.lineno, sub.id))
            elif isinstance(sub, ast.Attribute) and sub.attr == "tol":
                found.append((node.lineno, ".tol"))
    return found


def test_the_command_line_writes_no_gate():
    # `ehtp run` records the checks of ehtp.suites, the ones selftest runs,
    # so each gate is written once
    assert _tolerance_comparisons(PACKAGE / "suites.py")
    assert _tolerance_comparisons(PACKAGE / "cli.py") == []


# Comparisons with ``TOL`` inside a function that takes ``tol``, one reason
# per comparison: each is a gate that ``--tol`` does not reach on purpose.
TOL_BESIDE_TOL = {
    "suites.cp_posdef_check": (
        "Kraus independence, relative to the family's largest singular value",
        "Kraus diagonality, relative to the family's largest norm",
    ),
}


def _fixed_gates_beside_tol(path):
    """``module.function`` once for every comparison that reads ``TOL`` in
    a function with a ``tol`` parameter."""
    found = []
    for fn in ast.walk(_tree(path)):
        if not (isinstance(fn, ast.FunctionDef)
                and "tol" in {a.arg for a in fn.args.args + fn.args.kwonlyargs}):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare) and any(
                    isinstance(sub, ast.Name) and sub.id == "TOL"
                    for operand in [node.left, *node.comparators] for sub in ast.walk(operand)):
                found.append(f"{path.stem}.{fn.name}")
    return found


def test_a_function_that_takes_tol_reads_TOL_only_for_a_stated_reason():
    # the Kraus reconstruction gate once read TOL beside a verdict at tol, so
    # `ehtp run --tol 1e-3` accepted a map as completely positive and then
    # failed its Kraus family at exit 3
    found = [hit for p in sorted(PACKAGE.glob("*.py")) for hit in _fixed_gates_beside_tol(p)]
    assert {name: found.count(name) for name in found} == {
        name: len(reasons) for name, reasons in TOL_BESIDE_TOL.items()}


def _imported_top_level(path):
    """``(line, package)`` for every absolute import in the file."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, (node.module or "").split(".")[0]))
    return found


def test_package_imports_no_solver_library():
    # scipy may be present on a machine, but pyproject.toml declares numpy only
    found = {p.name: [hit for hit in _imported_top_level(p) if hit[1] in {"scipy", "cvxpy"}]
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = PACKAGE.parent.parent / "README.md"

# Parameters a function accepts and ignores, kept so that old callers work.
IGNORED_KNOBS = {"haagerup_norm_bounds": {"restarts", "seed"}, "diagonalize": {"seed"}}


def _ignored_knobs(tree):
    """``(line, what)`` for every call under ``tree`` that passes an ignored
    parameter of a function in ``IGNORED_KNOBS``, by keyword or by position
    (each function has one parameter before its knobs)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in IGNORED_KNOBS:
            continue
        found += [(node.lineno, k.arg) for k in node.keywords if k.arg in IGNORED_KNOBS[name]]
        if len(node.args) > 1:
            found.append((node.lineno, "positional"))
    return found


def test_no_caller_passes_an_ignored_knob():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    assert len(files) > 20
    trees = {f"{p.parent.name}/{p.name}": _tree(p) for p in files}
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    trees.update({f"README.md python block {i}": ast.parse(b) for i, b in enumerate(blocks)})
    found = {name: _ignored_knobs(tree) for name, tree in trees.items()}
    # the one test that passes a knob, to show that it is ignored
    shown = next(node for node in ast.walk(trees["tests/test_representations.py"])
                 if isinstance(node, ast.FunctionDef) and node.name == "test_seed_is_ignored")
    assert _ignored_knobs(shown)
    found["tests/test_representations.py"] = [
        hit for hit in found["tests/test_representations.py"] if hit not in _ignored_knobs(shown)]
    assert {name: hits for name, hits in found.items() if hits} == {}


def _einsums(path):
    """``(line, operands)`` for every ``einsum`` call, with the number of
    operands after the subscripts."""
    found = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "einsum":
            found.append((node.lineno, len(node.args) - 1))
    return found


def test_no_einsum_takes_three_operands():
    # such a call runs without a contraction path; a chain of matmuls is the fast form
    found = {p.name: [hit for hit in _einsums(p) if hit[1] >= 3] for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_norm_solver_calls_no_einsum():
    # an unoptimized two-operand contraction of n terms, n^2 d^2 work in the
    # certificate, once cost 3 ms a call; matmul is the form used there
    assert _einsums(PACKAGE / "hnorm.py") == []


ORACLE = TESTS / "interior_point.py"
# what the interior-point solve was made of when it lived in ``hnorm``
IPM_NAMES = {"_factorization_sdp", "_hkm_direction", "_newton_assembly", "_barrier", "_max_steps", "_sym",
             "_sym_product", "_step", "_transposition", "_kept_roots"}
IPM_FORM_MEMBERS = {"c", "_compressed", "values", "adjoint", "newton", "spread_tops", "state_roots"}


def test_the_w_block_is_written_once():
    # one form class lays out the states of every map, in blocks of a size
    # it is given, and nothing in the package subclasses it; the oracle's
    # one subclass of it writes the W block: its rows of A, its part of A*
    # and the W part of the Newton matrix
    classes = [node for node in _tree(PACKAGE / "hnorm.py").body if isinstance(node, ast.ClassDef)]
    assert [cls.name for cls in classes] == ["NormInterval", "_Form"]
    assert [cls.name for cls in classes if cls.bases] == []
    oracle = [node for node in _tree(ORACLE).body if isinstance(node, ast.ClassDef)]
    writers = {cls.name: {f.name for f in cls.body if isinstance(f, ast.FunctionDef)} & {"values", "adjoint", "newton"}
               for cls in oracle}
    assert {name: found for name, found in writers.items() if found} == {"_SdpForm": {"values", "adjoint", "newton"}}
    assert [ast.unparse(base) for cls in oracle for base in cls.bases] == ["hnorm._Form"]
    calls = [node for node in ast.walk(_tree(ORACLE))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_newton_assembly"]
    assert len(calls) == 1


def test_the_package_holds_no_interior_point_solve():
    # the solve is the tests' oracle: hnorm defines none of its functions or
    # form members, and no bracket of the package takes the path "ipm"
    tree = _tree(PACKAGE / "hnorm.py")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assigned = {target.attr for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Attribute)}
    assert defined & (IPM_NAMES | IPM_FORM_MEMBERS) == set()
    assert assigned & IPM_FORM_MEMBERS == set()
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value == "ipm"] == []
    oracle = {node.name for node in ast.walk(_tree(ORACLE)) if isinstance(node, ast.FunctionDef)}
    assert IPM_NAMES | (IPM_FORM_MEMBERS - {"c"}) <= oracle


def test_the_norm_solver_has_one_newton_loop():
    # the Newton steps, at mu = 0 and on the barrier, run in one loop:
    # one call takes the Newton step and one loop halves it
    found = {}
    for func in _tree(PACKAGE / "hnorm.py").body:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_ascent_step":
                found.setdefault("step", []).append(func.name)
            if isinstance(node, ast.For) and "_WEIGHT_HALVINGS" in {n.id for n in ast.walk(node.iter)
                                                                     if isinstance(n, ast.Name)}:
                found.setdefault("halvings", []).append(func.name)
    assert found == {"step": ["_ascent"], "halvings": ["_ascent"]}


def test_one_model_feeds_the_newton_loop():
    # a Schur multiplier runs the factor path on 1 x 1 blocks: hnorm defines
    # no name of a separate weight path, one function calls the loop, and
    # the symbol of a Schur multiplier is not read
    tree = _tree(PACKAGE / "hnorm.py")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert sorted(name for name in defined if name.startswith("_weight_")) == []
    callers = [func.name for func in tree.body if isinstance(func, ast.FunctionDef) for node in ast.walk(func)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_ascent"]
    assert callers == ["_factor_ascent"]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert [name for name in imported if "schur_symbol" in name] == []


def test_the_form_does_not_branch_on_its_block_size():
    # the block size b only shapes the arrays of the form: no comparison,
    # condition or loop of a method reads ``self.b``
    form = next(node for node in _tree(PACKAGE / "hnorm.py").body
                if isinstance(node, ast.ClassDef) and node.name == "_Form")
    branches = (ast.Compare, ast.If, ast.IfExp, ast.While, ast.For, ast.comprehension, ast.Match)
    found = [node.lineno for node in ast.walk(form) if isinstance(node, branches)
             and any(isinstance(sub, ast.Attribute) and sub.attr == "b"
                     and getattr(sub.value, "id", None) == "self" for sub in ast.walk(node))]
    assert found == []


def test_the_cone_helpers_have_one_layout():
    # every block of the oracle's solve is a stack of PSD blocks of one size
    # (the orthant a stack of 1 x 1 blocks), so no cone helper branches on a
    # layout
    helpers = {"_sym", "_sym_product", "_barrier", "_max_steps"}
    found = {node.name: node for node in _tree(ORACLE).body if isinstance(node, ast.FunctionDef)}
    assert helpers <= set(found)
    layouts = {name: [node.lineno for node in ast.walk(found[name])
                      if isinstance(node, ast.Attribute) and node.attr == "ndim"] for name in helpers}
    assert {name: lines for name, lines in layouts.items() if lines} == {}


def _called_names(node):
    """The names of the functions called anywhere under ``node``."""
    return {getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_rewriting_gates_build_no_dense_choi_matrix():
    # the certificate-miss and Kraus reconstruction gates read the factors
    # through choi_distance; their d^2 x d^2 forms peaked at 913 MB at Z_64
    hnorm = _tree(PACKAGE / "hnorm.py")
    imported = {a.name for node in ast.walk(hnorm) if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    assert imported & {"transfer_matrix", "choi"} == set()
    kraus = next(node for node in ast.walk(_tree(PACKAGE / "elementary.py"))
                 if isinstance(node, ast.FunctionDef) and node.name == "strongly_independent_kraus")
    assert "choi" not in _called_names(kraus)


def _dense_builds(tree):
    """``qualified function name`` for every call under ``tree`` of
    ``transfer_matrix``, ``choi``, ``_vec_outer_sum`` or
    ``_transfer_columns``, named by the functions and classes that enclose
    it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id in {"transfer_matrix", "choi", "_vec_outer_sum",
                                                               "_transfer_columns"}:
                    found.append(".".join(scope))
            visit(child, scope)
    visit(tree, [])
    return found


def test_only_the_dense_forms_build_a_dense_transfer_or_choi_matrix():
    # every check that asks whether a map is another reads choi_distance on
    # the terms; the d^4 arrays are built only by the dense forms
    # transfer_matrix and choi and by composition_distance, which forms one
    # transfer matrix whole and the others in column blocks
    found = {f"{p.stem}:{where}" for p in sorted(PACKAGE.glob("*.py")) for where in _dense_builds(_tree(p))}
    assert found == {"elementary:transfer_matrix", "elementary:choi", "elementary:composition_distance"}


# Public names that no other package module, demo, benchmark or README
# example calls, and the one-word reason each is public all the same: a type
# that a public function returns, an exception a caller may catch, or an
# object of the paper.
PUBLIC_BY_REASON = {
    "EhtpError": "exception",
    "NormInterval": "returned",
    "PositivityReport": "returned",
    "GammaImage": "returned",
    "RestrictionReport": "returned",
    "VFunction": "returned",
    "EquivalenceReport": "returned",
    "compose": "paper",     # the homomorphism law: convolution becomes composition
    "gelfand": "paper",     # the Gelfand transform of the measure algebra
}
BENCH = PACKAGE.parent.parent / "bench"


def _referenced_names(tree):
    """Every name the tree reads: a bare name, an attribute, an import, or a
    string that spells a dotted name (``bench/tracing.py`` finds the
    functions it times with ``getattr`` on such strings)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names}
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            found |= set(node.value.split("."))
    return found


def test_every_public_name_has_a_caller_or_a_reason():
    import ehtp

    outside = set()
    for path in sorted(DEMOS.glob("*.py")) + sorted(BENCH.glob("*.py")):
        outside |= _referenced_names(_tree(path))
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        outside |= _referenced_names(ast.parse(block))
    by_module = {p.stem: _referenced_names(_tree(p)) for p in sorted(PACKAGE.glob("*.py"))
                 if p.name != "__init__.py"}
    assert set(PUBLIC_BY_REASON.values()) <= {"returned", "exception", "paper"}

    uncalled = []
    for name in ehtp.__all__:
        if name.startswith("__"):           # the version string: metadata, not a call
            continue
        home = getattr(ehtp, name).__module__.rsplit(".", 1)[-1]
        callers = [m for m, names in by_module.items() if m != home and name in names]
        if not callers and name not in outside:
            uncalled.append(name)
    assert sorted(uncalled) == sorted(PUBLIC_BY_REASON)


def _listed_but_not_defined(tree):
    """The names of the module's ``__all__`` that no function, class or
    assignment at its top level defines (an imported name does not count)."""
    defined, listed = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                listed = [elt.value for elt in node.value.elts]
    return sorted(set(listed) - defined)


def test_each_public_name_is_listed_once_in_the_module_that_defines_it():
    # ehtp.__all__ is the modules' lists, so a name listed in two of them
    # would be bound silently to the later one
    import ehtp
    from ehtp import errors

    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in {"__init__.py", "__main__.py"}]
    assert len(modules) > 5
    found = {p.name: _listed_but_not_defined(_tree(p)) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}

    exceptions = {name for name, value in vars(errors).items()
                  if inspect.isclass(value) and issubclass(value, errors.EhtpError)
                  and value.__module__ == errors.__name__}
    assert sorted(errors.__all__) == sorted(exceptions)

    assert len(ehtp.__all__) == len(set(ehtp.__all__))
    namespace = {}
    exec("from ehtp import *", namespace)
    assert [name for name in ehtp.__all__ if namespace.get(name) is not getattr(ehtp, name)] == []
    assert inspect.isfunction(ehtp.gamma)


# Public methods and properties of the classes in ``ehtp.__all__`` that no
# package module, demo, benchmark or README example reads, and why each is
# kept all the same: an exact form a test checks a fast path against.
METHODS_BY_REASON = {
    "Character.quotient": "oracle",     # sigma * tau^-1, the k^2 oracle of difference_set
    "Character.evaluate": "oracle",     # exact rational phases, the oracle of character_table
}


def _root_name(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _attribute_reads(tree):
    """Every attribute the tree reads, except those read off numpy (so
    ``np.allclose`` does not count as a read of a method named
    ``allclose``), and every part of a string that spells a dotted name
    (``bench/tracing.py`` times ``Character.values`` through such a
    string)."""
    found = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and _root_name(node) not in ("np", "numpy")}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch(r"[A-Za-z_]\w*(\.\w+)+", node.value)):
            found |= set(node.value.split("."))
    return found


def _public_methods(cls):
    """The public functions, properties, class and static methods that
    ``cls`` defines itself."""
    return sorted(name for name, value in vars(cls).items()
                  if not name.startswith("_")
                  and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod))))


def test_every_public_method_has_a_caller_or_a_reason():
    import ehtp

    paths = sorted(PACKAGE.glob("*.py")) + sorted(DEMOS.glob("*.py")) + sorted(BENCH.glob("*.py"))
    read = set()
    for path in paths:
        read |= _attribute_reads(_tree(path))
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        read |= _attribute_reads(ast.parse(block))
    assert set(METHODS_BY_REASON.values()) == {"oracle"}

    classes = [getattr(ehtp, name) for name in ehtp.__all__ if inspect.isclass(getattr(ehtp, name))]
    assert len(classes) > 10
    unread = [f"{cls.__name__}.{name}" for cls in classes for name in _public_methods(cls)
              if name not in read]
    assert sorted(unread) == sorted(METHODS_BY_REASON)
