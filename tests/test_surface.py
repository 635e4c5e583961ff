"""The package's public surface is what the reproduction reaches: every
name in a module's `__all__` must be read by the package or the bench,
not only by tests, or be one of the listed exceptions."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SOURCES = (sorted((REPO / "src" / "algpaths").glob("*.py"))
           + sorted((REPO / "bench").glob("*.py")))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# public names that no command, workload or other library function reads,
# and why each stays
UNREAD = {
    "lift_uniqueness_check": "acceptance criterion 9 measures it",
    "flatness_residual": "it measures the flatness that holonomy and the "
                         "lifts through a connection assume",
    "standard_symplectic": "the Poisson fixture of acceptance criterion 11 "
                           "and the Poisson tests",
}


def exported(tree):
    """The names listed in a module's `__all__`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def reads(node, top=True):
    """The names read under node, as a name, an attribute or an import,
    leaving out those a top-level definition reads of itself."""
    out = set()
    for child in ast.iter_child_nodes(node):
        if top and isinstance(child, DEFINITIONS):
            out |= reads(child, False) - {child.name}
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            out |= {alias.name for alias in child.names}
        out |= reads(child, top)
    return out


def test_every_public_name_is_read_outside_the_tests():
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    public = {name for tree in trees for name in exported(tree)}
    read = set().union(*map(reads, trees))
    assert sorted(public - read - set(UNREAD)) == []
    # an exception that gained a reader, or left the surface, is stale
    assert sorted(set(UNREAD) - (public - read)) == []


def test_options_that_no_caller_sets_are_constants():
    # no call in the package, the bench or the tests passes them
    import inspect
    from algpaths.algebroid import make_lie_algebra
    from algpaths.comorph import lift_uniqueness_check
    from algpaths.ehresmann import GammaElement
    for fn, params in ((make_lie_algebra, ["constants"]),
                       (lift_uniqueness_check, ["c", "g", "x0"]),
                       (GammaElement.then, ["self", "other"])):
        assert list(inspect.signature(fn).parameters) == params
