"""Every name a wellcond module imports is used in that module, every
private module-level helper is used somewhere in the package, every
public name is read by the program, the tracer or the acceptance tests,
every function the benchmark tracer wraps exists, |f'| and the Theta grids
share one binomial kernel, the energy alone takes the two-term kernel,
every route takes one norm, only numerics rounds an exact ratio, only
ComparisonMargins.cells builds a two-sided cell, energy seeds one probe
grid and one function applies each half of the family's symmetry group."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wellcond"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _reads(trees) -> list[tuple[ast.AST, str]]:
    """(node, name) for each name read in the trees: a name loaded, an
    attribute or an import of it."""
    reads = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((node, node.attr))
            elif isinstance(node, ast.ImportFrom):
                reads += [(node, a.name) for a in node.names]
    return reads


def _read_outside(name: str, definition: ast.AST, reads) -> bool:
    own = {id(n) for n in ast.walk(definition)}
    return any(read == name and id(node) not in own for node, read in reads)


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` for each module-level `_`-prefixed function, class or
    constant that no code in any of the sources reads outside its own
    definition."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = _reads(trees.values())
    dead = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            for name in _defined_names(stmt):
                private = name.startswith("_") and not name.startswith("__")
                if private and not _read_outside(name, stmt, reads):
                    dead.append(f"{mod}.{name}")
    return sorted(dead)


def unread_public_names(sources: dict[str, str], kept=frozenset()) -> list[str]:
    """`module.name` for each public module-level function or class, and
    `module.Class.name` for each public method or property of such a
    class, that no code in the sources reads outside its own definition,
    unless `kept` names it."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = _reads(trees.values())
    unread = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(f"{mod}.{stmt.name}", stmt)]
            if isinstance(stmt, ast.ClassDef):
                defs += [
                    (f"{mod}.{stmt.name}.{node.name}", node)
                    for node in stmt.body
                    if isinstance(node, ast.FunctionDef)
                ]
            for dotted, node in defs:
                public = not node.name.startswith("_") and dotted not in kept
                if public and not _read_outside(node.name, node, reads):
                    unread.append(dotted)
    return sorted(unread)


def scopes_of(source: str, match) -> list[str]:
    """The dotted name of the function, method or class around each node
    of source that match(node) accepts, "<module>" outside all of them,
    in source order."""
    found = []

    def visit(node, scope):
        if match(node):
            found.append(scope or "<module>")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def side_key(node) -> bool:
    """A dict display with a "side" key: the half of a two-sided cell."""
    return isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value == "side" for k in node.keys
    )


def random_constructor(node) -> bool:
    """A call of random.Random, or of Random imported bare."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "Random"


def test_scope_checker_flags_planted_side_keys_and_generators():
    src = (
        "import random\n"
        "_RNG = random.Random(1)\n"
        "LIMITS = {'side': 'upper'}\n"
        "class ComparisonMargins:\n"
        "    def cells(self, p):\n"
        "        return Cell({**p, 'side': 'lower'}), Cell({**p, 'side': 'upper'})\n"
        "def _probe_grid(seed):\n"
        "    return random.Random(seed)\n"
        "def verify(p):\n"
        "    from random import Random\n"
        "    rng = Random(2)\n"
        "    return Cell({**p, 'side': 'lower', 'seed': rng.random()}), {**p}\n"
    )
    assert scopes_of(src, side_key) == [
        "<module>", "ComparisonMargins.cells", "ComparisonMargins.cells", "verify"
    ]
    assert scopes_of(src, random_constructor) == ["<module>", "_probe_grid", "verify"]


def test_every_two_sided_cell_comes_from_comparison_margins():
    """A cell's "side" key is built only by ComparisonMargins.cells, so
    each two-sided bound is formed, and printed, in one place."""
    sides = {
        f"{p.stem}.{scope}" for p in MODULES for scope in scopes_of(p.read_text(), side_key)
    }
    assert sides == {"energy.ComparisonMargins.cells"}


def test_energy_seeds_one_probe_grid():
    """energy draws its seeded probe heights from one random.Random, in
    _probe_grid, so every suite reads the same heights for a seed."""
    source = (SRC / "energy.py").read_text()
    assert scopes_of(source, random_constructor) == ["_probe_grid"]


def test_checker_flags_an_unused_name():
    src = "from fractions import Fraction\nimport mpmath as mp\nx = mp.mpf(1)\n"
    assert unused_imports(src) == ["Fraction"]


def test_dead_helper_checker_flags_a_planted_helper():
    sources = {
        "a": "_LIMIT = 3\ndef _used(n):\n    return _used(n - 1) if n else _LIMIT\n"
        "def _dead():\n    return _dead()\ndef f():\n    return _used(2)\n",
        "b": "from .a import _imported\n",
    }
    sources["a"] += "def _imported():\n    return 1\n"
    assert dead_private_names(sources) == ["a._dead"]


def test_public_name_checker_flags_a_planted_function_and_method():
    sources = {
        "a": "def used():\n    return helper()\n"
        "def unused():\n    return unused()\n"
        "def helper():\n    return 1\n"
        "def kept():\n    return 2\n"
        "class Record:\n"
        "    def read(self):\n        return 0\n"
        "    def unread_method(self):\n        return self.unread_method()\n"
        "    @property\n    def shown(self):\n        return 3\n"
        "    def _private(self):\n        return 4\n",
        "b": "from .a import used, Record\n\ndef read_all(r):\n    return r.read()\n",
    }
    assert unread_public_names(sources, kept={"a.kept", "b.read_all"}) == [
        "a.Record.shown",
        "a.Record.unread_method",
        "a.unused",
    ]


def public_names_outside_the_program() -> set[str]:
    """`module.name` for each name the benchmark tracer wraps (TRACED in
    perfbench/spans.py) or tests/test_acceptance.py imports from the
    package: both reach the program from outside src/."""
    kept = set(traced_names((ROOT / "perfbench" / "spans.py").read_text()))
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wellcond."):
            kept |= {f"{node.module.removeprefix('wellcond.')}.{a.name}" for a in node.names}
    return kept


def test_every_public_name_is_read_by_the_program():
    """A public function, class, method or property of the package is read
    in src/ outside its own definition (the package's __init__ does not
    count), wrapped by the tracer, or imported by the acceptance tests;
    reference code that only tests call belongs in tests/."""
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unread_public_names(sources, public_names_outside_the_program()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_dead_private_helpers():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert dead_private_names(sources) == []


def point_set_with_precision(source: str) -> list[str]:
    """Public functions and methods that take both a `point_set` and a
    `prec_bits` parameter: one of the two precisions is redundant."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if {"point_set", "prec_bits"} <= names:
                found.append(node.name)
    return found


def test_precision_checker_flags_a_planted_function():
    src = (
        "def f(point_set, prec_bits=256):\n    pass\n"
        "def g(point_set):\n    pass\n"
        "def _h(point_set, prec_bits):\n    pass\n"
        "def k(M, *, prec_bits=256):\n    pass\n"
    )
    assert point_set_with_precision(src) == ["f"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_point_set_functions_read_its_precision(path):
    """A function that takes a point set reads point_set.prec_bits."""
    assert point_set_with_precision(path.read_text()) == []


def traced_names(source: str) -> list[str]:
    """`layer.name` for each entry of the TRACED table in a spans module."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            table = ast.literal_eval(node.value)
            return [f"{layer}.{name}" for layer, names in table.items() for name in names]
    raise AssertionError("no TRACED table found")


def test_every_traced_function_exists():
    """perfbench/run.py --trace wraps these names; each must be callable."""
    names = traced_names((ROOT / "perfbench" / "spans.py").read_text())
    assert len(names) > 20
    missing = []
    for dotted in names:
        layer, name = dotted.split(".")
        module = importlib.import_module(f"wellcond.{layer}")
        if not callable(getattr(module, name, None)):
            missing.append(dotted)
    assert missing == []


def callers_of(sources: dict[str, str], callee: str) -> set[str]:
    """`module.function` for each top-level function or method whose body
    calls `callee`, as a bare name or as an attribute."""
    found = set()
    for mod, src in sources.items():
        tree = ast.parse(src)
        defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            defs += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        for fn in defs:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name == callee:
                        found.add(f"{mod}.{fn.name}")
    return found


def test_callers_checker_finds_names_attributes_and_nested_calls():
    src = (
        "def a(ctx):\n    return ctx.expm1(1)\n"
        "def b():\n    return [expm1(x) for x in (1, 2)]\n"
        "def c():\n    def inner():\n        return kernel()\n    return inner\n"
        "class D:\n    def m(self):\n        return kernel()\n"
        "def e():\n    return expm1\n"
    )
    assert callers_of({"x": src}, "expm1") == {"x.a", "x.b"}
    assert callers_of({"x": src}, "kernel") == {"x.c", "x.m"}


def test_one_two_term_kernel_for_the_energy_and_exact_terms_for_the_rest():
    """Only the energy's resultants evaluate the two-term form through
    numerics.two_term_log, and no other function forms its expm1 term;
    |f'| at the roots and the Theta grids take no log per factor but form
    their binomial terms through one kernel, numerics.binomial_factors,
    and every exact ratio is rounded inside numerics by round_ratio, with
    no libmp.from_rational in the package."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert callers_of(sources, "two_term_log") == {"energy.log_energy"}
    assert callers_of(sources, "expm1") == {"numerics.two_term_log"}
    assert callers_of(sources, "binomial_factors") == {
        "polynomials.derivative_modulus_at_root",
        "condition.theta_product_log_turn",
    }
    assert {caller.split(".")[0] for caller in callers_of(sources, "round_ratio")} == {"numerics"}
    assert callers_of(sources, "from_rational") == set()


def test_one_norm_for_every_route():
    """||f||^2 has one formula: in src/ only polynomials.expand, exact, and
    polynomials.norm_sq, over context numbers, run the numerator loop, and
    no product_norm_sq, the exact memoised norm it replaced, is left."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert callers_of(sources, "_numerators") == {"polynomials.expand", "polynomials.norm_sq"}
    assert not any("product_norm_sq" in src for src in sources.values())


def test_one_product_over_the_parallels_for_every_theta_grid():
    """The point products and the gap products both multiply the Theta
    grids' factors through condition.log_distance_products, the only
    caller of the grid."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert callers_of(sources, "theta_product_log_turn") == {"condition.log_distance_products"}
    assert callers_of(sources, "log_distance_products") == {
        "condition.point_gap_product_log",
        "energy.log_product_to_set",
    }


def reads_of(name: str):
    """A matcher for a load of `name`, bare or as an attribute."""

    def match(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id == name and isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.Attribute) and node.attr == name

    return match


def test_reads_checker_flags_planted_reads_of_the_group():
    src = (
        "from .points import mirror_index, turn_representative\n"
        "def by_orbit(M, j):\n    return min(j, mirror_index(M, j))\n"
        "def verify_numerator(turns):\n"
        "    return sorted({points.turn_representative(t) for t in turns})\n"
        "def log_energy(M, j):\n    mirror = mirror_index\n    return mirror(M, j)\n"
    )
    assert scopes_of(src, reads_of("mirror_index")) == ["by_orbit", "log_energy"]
    assert scopes_of(src, reads_of("turn_representative")) == ["verify_numerator"]


def test_one_place_applies_each_half_of_the_symmetry_group():
    """points declares the zero-phase family's group once: in src/ only
    condition.log_distance_products applies its turn action,
    turn_representative, and only condition.by_orbit and
    energy.log_energy read the mirror, mirror_index."""
    sources = {p.stem: p.read_text() for p in MODULES}

    def readers(name):
        return {
            f"{mod}.{scope}" for mod, src in sources.items() for scope in scopes_of(src, reads_of(name))
        }

    assert readers("turn_representative") == {"condition.log_distance_products"}
    assert readers("mirror_index") == {"condition.by_orbit", "energy.log_energy"}
