"""src/hermband defines only what a command, the benchmark or a tool reaches.

Starting from the console script `hermband.cli:main`, the module-level
statements of src/hermband/*.py that are not definitions or imports, and
every name in perfbench/ and tools/, the scan follows names: a top-level or
class-level function, class or assigned name is reached when a reached
definition names it (read, taken as an attribute or imported), and then the
names in its own body are followed in turn.  A class brings its dunder
methods along; its other methods and fields are reached by name.  Names are
matched across modules, so a method reached under a name another definition
shares counts as reached.  Every definition must be reached; oracles and
checks that only tests call belong in tests/oracles.py.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENTRY_POINTS = {"main"}        # [project.scripts] hermband = "hermband.cli:main"
# kept ahead of the command that will reach them, each with its ROADMAP item;
# what only they reach is allowed with them
ALLOWED = {"seq_besov_norm",            # item 10: seq_tl_norm at p = q routes here
           "spectral_bump_molecule"}    # item 12: the molecular synthesis scan


def _references(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _definitions(body):
    """(name, node) of each non-dunder definition in a module or class body, and in
    the bodies of its classes."""
    for node in body:
        yield from ((name, node) for name in _defined_names(node) if not _dunder(name))
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body)


def _own_references(node):
    """The names a definition's body reads; for a class, those of its bases,
    decorators and dunder methods, but not of the definitions it holds."""
    if not isinstance(node, ast.ClassDef):
        return list(_references(node))
    parts = node.bases + node.keywords + node.decorator_list
    parts += [sub for sub in node.body
              if not _defined_names(sub) or all(_dunder(n) for n in _defined_names(sub))]
    return [name for part in parts for name in _references(part)]


def _closure(names, definitions):
    reached, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in definitions.get(name, ()):
                todo.extend(_own_references(node))
    return reached


def scan(root):
    """(definitions: name -> 'file:line name' entries, names reached from the
    entry points, names reached from them and ALLOWED)."""
    definitions, where = collections.defaultdict(list), collections.defaultdict(list)
    roots = set(ENTRY_POINTS)
    for path in sorted((root / "src" / "hermband").glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, node in _definitions(tree.body):
            definitions[name].append(node)
            where[name].append(f"{path.relative_to(root)}:{node.lineno} {name}")
        statements = [node for node in tree.body if not _defined_names(node)
                      and not isinstance(node, (ast.Import, ast.ImportFrom))]
        roots.update(name for node in statements for name in _references(node))
    for d in ("perfbench", "tools"):
        for path in sorted((root / d).rglob("*.py")):
            roots.update(_references(ast.parse(path.read_text())))
    return where, _closure(roots, definitions), _closure(roots | ALLOWED, definitions)


def test_src_defines_only_what_src_perfbench_or_tools_reach():
    where, reached, with_allowed = scan(ROOT)
    unreached = [entry for name in sorted(where) if name not in with_allowed
                 for entry in where[name]]
    assert not unreached, "reached from no command, perfbench or tools:\n" + "\n".join(unreached)
    # an allowed name that a command now reaches, or that is gone, leaves ALLOWED
    assert ALLOWED <= set(where) and not ALLOWED & reached
