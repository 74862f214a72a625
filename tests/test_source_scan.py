"""src/hermband defines only what a command, the benchmark or a tool reaches.

Every top-level or class-level function, class or assigned name in
src/hermband/*.py must be read, taken as an attribute or imported somewhere
in src/, perfbench/ or tools/ outside its own definition.  Oracles and checks
that only tests call belong in tests/oracles.py.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# kept ahead of the command that will reach them, each with its ROADMAP item
ALLOWED = {"seq_besov_norm",            # item 10: seq_tl_norm at p = q routes here
           "spectral_bump_molecule"}    # item 12: the molecular synthesis scan


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def _definitions(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body)


def unreached_definitions(root):
    """'file:line name' of each non-dunder definition in src/hermband that nothing
    in src/, perfbench/ or tools/ names outside the definition itself."""
    trees = {path: ast.parse(path.read_text())
             for d in ("src", "perfbench", "tools") for path in sorted((root / d).rglob("*.py"))}
    named = collections.Counter(name for tree in trees.values() for name in _references(tree))
    return [f"{path.relative_to(root)}:{node.lineno} {name}"
            for path, tree in trees.items() if path.parent == root / "src" / "hermband"
            for name, node in _definitions(tree.body)
            if not (name.startswith("__") and name.endswith("__"))
            and named[name] == sum(ref == name for ref in _references(node))]


def test_src_defines_only_what_src_perfbench_or_tools_reach():
    found = unreached_definitions(ROOT)
    unreached = [d for d in found if d.split()[-1] not in ALLOWED]
    assert not unreached, "named only by tests, or nowhere:\n" + "\n".join(unreached)
    # an allowed name that a command now reaches, or that is gone, leaves ALLOWED
    assert {d.split()[-1] for d in found} == ALLOWED
