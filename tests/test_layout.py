"""Module layout: the library does not depend on its test kit, and its
bottom layers do not depend on the top ones.

``testkit`` holds generators, exact oracles and checks of the paper's
claims for the test suite; the library modules must run without it. The
front end (``cli``) and the package namespace (``__init__``) may use it.
``graph``, ``vecsdp`` and ``rounding`` sit below ``progress`` and
``combined``; the one failure type lives in ``graph`` so they need neither.
The rounding threshold is chosen in ``rounding`` alone, and the solver
tolerance in ``vecsdp`` alone: no public function takes one, and no other
module names ``EPS``. The quotient's dense adjacency is read in
``progress`` alone. Bipartiteness has one entry, ``graph.two_coloring``,
and a projection orthogonal to an axis one rule, ``vecsdp._project``.
"""

import ast
import os

import sdpcolor
from sdpcolor import graph, testkit

PACKAGE = os.path.dirname(os.path.abspath(sdpcolor.__file__))
NOT_LIBRARY = {"testkit", "cli", "__init__", "__main__"}
LIBRARY = {"analysis", "combined", "graph", "indset", "progress", "rounding",
           "vecsdp"}


def _package_modules():
    return sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py"))


def _library_modules():
    return [name for name in _package_modules() if name not in NOT_LIBRARY]


def _imports(tree, module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == module for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == module:
                return True
            if any(alias.name == module for alias in node.names):
                return True
    return False


def _tree(name):
    with open(os.path.join(PACKAGE, name + ".py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_no_library_module_imports_testkit():
    modules = _library_modules()
    assert LIBRARY <= set(modules)
    offenders = []
    for name in modules:
        if _imports(_tree(name), "testkit"):
            offenders.append(name)
    assert offenders == []


def test_bottom_layers_import_neither_progress_nor_combined():
    offenders = [(name, upper) for name in ("graph", "vecsdp", "rounding")
                 for upper in ("progress", "combined")
                 if _imports(_tree(name), upper)]
    assert offenders == []


def _references(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.alias) and node.name == name:
            return True
    return False


def test_only_rounding_references_the_threshold():
    offenders = [name for name in _library_modules()
                 if name != "rounding"
                 and _references(_tree(name), "kms_threshold")]
    assert offenders == []


def _calls(tree, name):
    """Whether ``tree`` calls a function named ``name``."""
    return any(isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
               for node in ast.walk(tree))


def test_bipartiteness_has_one_entry():
    # The level-by-level BFS runs only under graph.two_coloring; every other
    # caller (the k = 2 route, the k = 3 split, alpha = 2 extraction, the
    # k - 2 = 2 pair probe) goes through it.
    callers = [(name, getattr(node, "name", None)) for name in _library_modules()
               for node in _tree(name).body if _calls(node, "_bfs_sides")]
    assert callers == [("graph", "two_coloring")]


def test_projection_has_one_rule():
    # A row near the axis is handled inside vecsdp._project (one perturbed
    # retry, then e_0), so no library module sees a degenerate projection,
    # and the two reductions are its only callers.
    offenders = [name for name in _library_modules()
                 if _references(_tree(name), "DegenerateProjectionError")]
    assert offenders == []
    callers = [(name, getattr(node, "name", None)) for name in _library_modules()
               for node in _tree(name).body if _calls(node, "_project")]
    assert callers == [("vecsdp", "neighborhood_reduce"),
                       ("vecsdp", "well_aligned_subset")]


def _params(fn):
    args = fn.args
    return [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]


def _names_eps(tree):
    """Whether a function parameter or a dataclass field is named eps."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            if "eps" in _params(node):
                return True
        elif isinstance(node, ast.ClassDef):
            if any(isinstance(item, ast.AnnAssign)
                   and isinstance(item.target, ast.Name)
                   and item.target.id == "eps" for item in node.body):
                return True
    return False


def _public_functions(tree):
    """(name, node) of each public module-level function and of each public
    method or constructor of a public module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def test_only_vecsdp_takes_a_tolerance():
    # Outside vecsdp nothing is named eps or imports or names EPS; inside it
    # only the two private projection helpers (``_project``, ``_reduced``)
    # and dataclass fields are named eps, as the solvers solve at
    # vecsdp.EPS. The independence solver always runs two restarts.
    modules = _library_modules() + ["cli"]
    offenders = [name for name in modules
                 if name != "vecsdp" and _names_eps(_tree(name))]
    offenders += [f"{name}.EPS" for name in _package_modules()
                  if name != "vecsdp" and _references(_tree(name), "EPS")]
    offenders += [f"{module}.{name}" for module in modules
                  for name, fn in _public_functions(_tree(module))
                  if "eps" in _params(fn)]
    assert offenders == []
    solvers = dict(_public_functions(_tree("vecsdp")))
    assert "restarts" not in _params(solvers["solve_indset_sdp"])


def test_only_progress_reads_the_quotient_matrix():
    # The dense adjacency of the quotient is ContractedGraph's storage:
    # finders ask it for common neighbours, their counts and induced
    # subgraphs, and read no ``adj`` attribute themselves.
    offenders = [name for name in _library_modules()
                 if name != "progress" and any(
                     isinstance(node, ast.Attribute) and node.attr == "adj"
                     for node in ast.walk(_tree(name)))]
    assert offenders == []


def test_library_gathers_blocks_without_ix():
    # A block of a matrix is read as rows, then columns (``adj[ids][:, ids]``):
    # the same booleans as ``np.ix_``'s open mesh, gathered faster.
    offenders = [name for name in _library_modules()
                 if _references(_tree(name), "ix_")]
    assert offenders == []


def test_testkit_reexports_the_library_exact_coloring():
    # perfbench wraps the exact finish under the name testkit gives it; the
    # wrapper reaches the library's calls only if both bind one object.
    assert testkit.brute_force_chromatic is graph.brute_force_chromatic


def test_library_calls_no_eigensolver():
    # The independence solver's certificates are Cholesky factorizations;
    # no module of the package pages in LAPACK's eigensolvers.
    calls = [(name, node.attr) for name in _package_modules()
             for node in ast.walk(_tree(name))
             if isinstance(node, ast.Attribute)
             and node.attr in {"eig", "eigh", "eigvals", "eigvalsh"}]
    assert calls == []


def test_library_dedups_without_a_sort():
    # Vertex ids are deduplicated through boolean masks: np.unique and
    # np.isin sort, and the first sort in a process pages in numpy's sort
    # kernels (about 1.5 and 0.3 MB of peak RSS).
    calls = [(name, node.attr) for name in _package_modules()
             for node in ast.walk(_tree(name))
             if isinstance(node, ast.Attribute)
             and node.attr in {"unique", "isin", "in1d"}]
    assert calls == []
