"""The rules the source of `src/commutants` keeps, beside what its tests
check: which module knows a format, which routine builds a record, and
that no meaning lives where `python -O` would drop it.

Each rule takes the package's modules as {file name: source} and
returns one string per violation, "src/commutants/<file>:<line>: ...".
Each is run twice: on the sources as they are, where it must find
nothing, and on a copy with a violation appended to one module, where
it must flag that violation, so a rule whose pattern stops matching
fails here too."""

import ast
import collections
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "commutants"
SOURCES = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _trees(sources):
    return [(f"src/commutants/{name}", name, ast.parse(text)) for name, text in sources.items()]


def _lines(sources, pattern):
    return [
        f"src/commutants/{name}:{n}: {line.strip()}"
        for name, text in sources.items()
        for n, line in enumerate(text.splitlines(), 1)
        if re.search(pattern, line)
    ]


def no_assert_or_debug(sources):
    """src/ must not use assert or __debug__: python -O would change
    results."""
    return _lines(sources, r"^\s*assert\b|__debug__")


def no_module_level_rng(sources):
    """src/ must draw from a seeded random.Random, not the module-level
    RNG: no `from random import ...`, no call of random.<name> but
    random.Random, and every random.Random(...) given exactly one
    argument, its seed."""
    bad = _lines(sources, r"\brandom\.(random|randint|randrange|choice|choices|shuffle|sample|seed|uniform|getrandbits)\(")
    for path, _, tree in _trees(sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad.append(f"{path}:{node.lineno}: imports from random")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name) and node.func.value.id == "random":
                if node.func.attr != "Random":
                    bad.append(f"{path}:{node.lineno}: calls random.{node.func.attr}")
                elif len(node.args) + len(node.keywords) != 1:
                    bad.append(f"{path}:{node.lineno}: random.Random takes one argument, its seed")
    return bad


def no_unused_imports(sources):
    bad = []
    for path, module, tree in _trees(sources):
        if module == "__init__.py":  # re-exports
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        bad.append(f"{path}:{node.lineno}: {name} is imported but never used")
    return bad


def no_unused_private_helpers(sources):
    """A private module-level function, class or assigned name that
    nothing under src/ refers to; the references inside its own
    definitions, as in recursion or the assigned name itself, do not
    count."""
    names = lambda root: [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(root) if isinstance(n, (ast.Name, ast.Attribute))]
    refs, own, helpers = collections.Counter(), collections.Counter(), []
    for path, _, tree in _trees(sources):
        refs.update(names(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                if name.startswith("_") and not name.endswith("__"):
                    helpers.append((path, node, name))
                    own[name] += names(node).count(name)
    return [f"{path}:{node.lineno}: {name} is never referenced under src/" for path, node, name in helpers if refs[name] == own[name]]


def no_plane_offsets(sources):
    """The plane-major layout of lifted rows belongs to matrices.py (and
    to scalars.py, whose coefficient arrays it lays out): elsewhere a
    strided slice, a .phi or an import of the plane helpers or of the
    zeta^k mod Phi_q table is a module reading or folding planes by
    offset; reversing with [::-1] is fine."""
    bad = []
    for path, name, tree in _trees(sources):
        if name in ("matrices.py", "scalars.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Slice) and node.step is not None and ast.unparse(node.step) != "-1":
                bad.append(f"{path}:{node.lineno}: slice with step {ast.unparse(node.step)}")
            elif isinstance(node, ast.Attribute) and node.attr == "phi":
                bad.append(f"{path}:{node.lineno}: reads .phi")
            elif isinstance(node, ast.ImportFrom):
                bad += [f"{path}:{node.lineno}: imports {a.name}" for a in node.names if a.name in ("_planes", "_zeta_shifts", "_zeta_powers", "phi_degree")]
    return bad


def subspace_basis_built_by_from_reduced(sources):
    """Every basis the library returns is written out by one routine,
    subspaces._from_reduced, from lifted RREF rows, so a check run on
    those rows has seen exactly what a caller gets."""
    bad = []
    for path, name, tree in _trees(sources):
        allowed = {id(node) for f in tree.body if name == "subspaces.py" and isinstance(f, ast.FunctionDef) and f.name == "_from_reduced" for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed and ast.unparse(node.func).split(".")[-1] == "SubspaceBasis":
                bad.append(f"{path}:{node.lineno}: builds a SubspaceBasis outside subspaces._from_reduced")
    return bad


def lifted_record_built_in_matrices(sources):
    """matrices._Lifted is built and sliced in matrices.py alone:
    elsewhere a call of _Lifted or ._make, a .dens, a ._replace or an
    .ints changed in place (a list method that grows or shrinks it, an
    item assigned or deleted) is a module that knows the record's format
    instead of calling the module's primitives; reading .ints rows is
    fine."""
    ints = lambda node: isinstance(node, ast.Attribute) and node.attr == "ints"
    bad = []
    for path, name, tree in _trees(sources):
        if name == "matrices.py":
            continue
        found = collections.defaultdict(set)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("_Lifted", "_make"):
                found[node.lineno].add(f"calls {ast.unparse(node.func)}")
            elif isinstance(node, ast.Attribute) and node.attr in ("dens", "_replace"):
                found[node.lineno].add(f"reads .{node.attr}")
            elif isinstance(node, ast.Attribute) and ints(node.value) and node.attr in ("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"):
                found[node.lineno].add(f"calls .ints.{node.attr}")
            elif isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)) and (ints(node) or isinstance(node, ast.Subscript) and ints(node.value)):
                found[node.lineno].add("changes .ints in place")
        bad += [f"{path}:{line}: {', '.join(sorted(found[line]))}" for line in sorted(found)]
    return bad


def not_square_raised_by_square_guards(sources):
    """Every square refusal goes through matrices._square (one matrix)
    or matrices._square_pair (a pair), so that a new entry point cannot
    spell its own check."""
    bad = []
    for path, name, tree in _trees(sources):
        allowed = {id(node) for f in tree.body if name == "matrices.py" and isinstance(f, ast.FunctionDef) and f.name in ("_square", "_square_pair") for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and id(node) not in allowed:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc).split(".")[-1] == "NotSquare":
                    bad.append(f"{path}:{node.lineno}: raises NotSquare outside matrices' square guards")
    return bad


def left_shifts_in_matrices(sources):
    """The packed layout of the commutants' relation proof, slot e of a
    big integer at bit k*e, belongs to matrices.py: elsewhere a << or
    <<=, or operator.lshift, is a module packing or reading slots by bit
    offset."""
    bad = []
    for path, name, tree in _trees(sources):
        if name == "matrices.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.LShift):
                bad.append(f"{path}:{node.lineno}: shifts left with <<")
            elif "lshift" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                bad.append(f"{path}:{node.lineno}: uses lshift")
    return bad


def integer_checks_through_the_guard(sources):
    """Every "an int, but not a bool" check goes through
    errors._integer: elsewhere a boolean expression that tests one
    operand with both isinstance(_, int) and isinstance(_, bool) is an
    entry point spelling its own guard."""
    def tested(value, kind):
        value = value.operand if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.Not) else value
        if isinstance(value, ast.Call) and ast.unparse(value.func) == "isinstance" and len(value.args) == 2 and ast.unparse(value.args[1]) == kind:
            return ast.unparse(value.args[0])
    bad = []
    for path, name, tree in _trees(sources):
        allowed = {id(node) for f in tree.body if name == "errors.py" and isinstance(f, ast.FunctionDef) and f.name == "_integer" for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.BoolOp) and id(node) not in allowed:
                ints = {tested(v, "int") for v in node.values} - {None}
                for operand in sorted(ints & {tested(v, "bool") for v in node.values}):
                    bad.append(f"{path}:{node.lineno}: checks {operand} for an int but not a bool outside errors._integer")
    return bad


def verification_errors_have_fault_rows(sources):
    """Every raise of VerificationError has a row in the fault table,
    helpers.FAULTS, whose message pattern matches its text (a formatted
    value read as "{}"), so a new check lands with a planted fault that
    shows it fires."""
    from helpers import FAULTS

    text = lambda node: node.value if isinstance(node, ast.Constant) else "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in getattr(node, "values", ()))
    bad = []
    for path, _, tree in _trees(sources):
        for node in ast.walk(tree):
            exc = getattr(node, "exc", None)
            if isinstance(node, ast.Raise) and exc is not None and ast.unparse(getattr(exc, "func", exc)).split(".")[-1] == "VerificationError":
                message = text(exc.args[0]) if isinstance(exc, ast.Call) and exc.args else ""
                if not any(re.search(row.message, message) for row in FAULTS):
                    bad.append(f"{path}:{node.lineno}: VerificationError {message!r} has no fault-table row")
    return bad


RULES = [
    no_assert_or_debug,
    no_module_level_rng,
    no_unused_imports,
    no_unused_private_helpers,
    no_plane_offsets,
    subspace_basis_built_by_from_reduced,
    lifted_record_built_in_matrices,
    not_square_raised_by_square_guards,
    left_shifts_in_matrices,
    integer_checks_through_the_guard,
    verification_errors_have_fault_rows,
]

# (rule, module, source appended to it, message of the violation on the
# appended source's first line)
PLANTED = [
    (no_assert_or_debug, "adpower.py", "assert DEFAULT_MAX_POWER\n", "assert DEFAULT_MAX_POWER"),
    (no_assert_or_debug, "adpower.py", "DEBUG = __debug__\n", "DEBUG = __debug__"),
    (no_module_level_rng, "gen.py", "SEED = random.randint(0, 9)\n", "calls random.randint"),
    (no_module_level_rng, "gen.py", "SEED = random.randint(0, 9)\n", "SEED = random.randint(0, 9)"),
    (no_module_level_rng, "gen.py", "RNG = random.Random()\n", "random.Random takes one argument, its seed"),
    (no_module_level_rng, "gen.py", "RNG = random.SystemRandom()\n", "calls random.SystemRandom"),
    (no_module_level_rng, "gen.py", "from random import randint\n", "imports from random"),
    (no_unused_imports, "adpower.py", "import os\n", "os is imported but never used"),
    (no_unused_private_helpers, "adpower.py", "def _helper(k):\n    return _helper(k - 1) if k else 0\n", "_helper is never referenced under src/"),
    (no_unused_private_helpers, "adpower.py", "_LIMIT = 3\n", "_LIMIT is never referenced under src/"),
    (no_unused_private_helpers, "adpower.py", "_TWICE: int = 3\n_TWICE = 4\n", "_TWICE is never referenced under src/"),
    (no_plane_offsets, "adpower.py", "EVEN = [0, 1, 2][::2]\n", "slice with step 2"),
    (no_plane_offsets, "adpower.py", "PHI = QQ.phi\n", "reads .phi"),
    (no_plane_offsets, "adpower.py", "from .scalars import _zeta_powers\n", "imports _zeta_powers"),
    (subspace_basis_built_by_from_reduced, "subspaces.py", "EMPTY = SubspaceBasis(1, QQ, ())\n", "builds a SubspaceBasis outside subspaces._from_reduced"),
    (lifted_record_built_in_matrices, "adpower.py", "def _d(L): return L.dens\n", "reads .dens"),
    (lifted_record_built_in_matrices, "adpower.py", "def _g(L): L.ints.append([]); L.ints[0] = []\n", "calls .ints.append, changes .ints in place"),
    (not_square_raised_by_square_guards, "adpower.py", "def _check(A): raise NotSquare('needs a square matrix')\n", "raises NotSquare outside matrices' square guards"),
    (left_shifts_in_matrices, "canonical.py", "WIDE = 1 << 64\n", "shifts left with <<"),
    (left_shifts_in_matrices, "scalars.py", "def _up(x): x <<= 1; return x\n", "shifts left with <<"),
    (left_shifts_in_matrices, "adpower.py", "from operator import lshift\n", "uses lshift"),
    (integer_checks_through_the_guard, "adpower.py", "def _n(k): return isinstance(k, int) and not isinstance(k, bool)\n", "checks k for an int but not a bool outside errors._integer"),
    (verification_errors_have_fault_rows, "adpower.py", 'raise VerificationError("planted")\n', "VerificationError 'planted' has no fault-table row"),
]


@pytest.mark.parametrize("rule", RULES, ids=[rule.__name__ for rule in RULES])
def test_rule_holds_under_src(rule):
    bad = rule(SOURCES)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("rule, name, planted, message", PLANTED, ids=[f"{case[0].__name__}:{case[3]}" for case in PLANTED])
def test_rule_flags_a_planted_violation(rule, name, planted, message):
    sources = dict(SOURCES)
    line = sources[name].count("\n") + 1
    sources[name] += planted
    assert f"src/commutants/{name}:{line}: {message}" in rule(sources)


def test_every_rule_has_a_planted_violation():
    assert {case[0] for case in PLANTED} == set(RULES)
