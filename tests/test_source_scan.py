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

Every parameter default of a function in src/hermband, at any depth, must be
relied on: some call in src/hermband/, perfbench/ or tools/ to a definition of
that name omits the argument, or passes *args or **kwargs.  Names are matched
across modules as above, a class call is a call to its __init__, and a call to
a function of a class body passes its first argument (self or cls) implicitly.
A default that only tests leave out is a second copy of a value its callers
hold; it goes, and the tests pass the value they used.

cli.py is the one module of src/hermband that reads or writes a file: no other
calls open (or a path's read/write methods) or json's load/dump, or spells the
CSV float format .17g.
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


def _defaulted_parameters(fn, bound):
    """(name, index) of each parameter of fn that has a default: index is its
    place among a call's positional arguments, past the bound self or cls, or
    None for a keyword-only one."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    yield from ((p.arg, i - bound) for i, p in enumerate(positional) if i >= first)
    yield from ((p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _functions(tree):
    """(name, function, bound) of each function in a module at any depth: a class
    stands for its __init__, and a function of a class body is bound (bound = 1)."""
    methods = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for sub in node.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, sub, 1) for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and sub.name == "__init__")
        elif isinstance(node, ast.FunctionDef) and not _dunder(node.name):
            yield node.name, node, int(id(node) in methods)


def _relies(call, param, index):
    """Whether call leaves param, at positional index (None: keyword-only), to its default."""
    keywords = [k.arg for k in call.keywords]
    if any(isinstance(a, ast.Starred) for a in call.args) or None in keywords:
        return True
    return not ((index is not None and index < len(call.args)) or param in keywords)


def unrelied_defaults(definitions, callers):
    """'label:line name(parameter)' of each default of the functions in the
    (label, source) pairs of definitions that no call in the callers' sources
    relies on."""
    calls = collections.defaultdict(list)
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls[getattr(node.func, "id", None) or node.func.attr].append(node)
    return [f"{label}:{fn.lineno} {name}({param})"
            for label, source in definitions for name, fn, bound in _functions(ast.parse(source))
            for param, index in _defaulted_parameters(fn, bound)
            if not any(_relies(call, param, index) for call in calls[name])]


def test_src_defines_only_what_src_perfbench_or_tools_reach():
    where, reached, with_allowed = scan(ROOT)
    unreached = [entry for name in sorted(where) if name not in with_allowed
                 for entry in where[name]]
    assert not unreached, "reached from no command, perfbench or tools:\n" + "\n".join(unreached)
    # an allowed name that a command now reaches, or that is gone, leaves ALLOWED
    assert ALLOWED <= set(where) and not ALLOWED & reached


def test_every_src_default_is_relied_on_by_a_call():
    src = sorted((ROOT / "src" / "hermband").glob("*.py"))
    definitions = [(str(path.relative_to(ROOT)), path.read_text()) for path in src]
    callers = [text for _, text in definitions] + [
        path.read_text() for d in ("perfbench", "tools")
        for path in sorted((ROOT / d).rglob("*.py"))]
    unrelied = unrelied_defaults(definitions, callers)
    assert not unrelied, "defaults no call in src, perfbench or tools relies on:\n" \
        + "\n".join(unrelied)


def test_default_scan_reports_a_default_every_call_passes():
    source = "def f(a, b=1):\n    return a + b\n\n\nf(1, 2)\n"
    assert unrelied_defaults([("m.py", source)], [source]) == ["m.py:1 f(b)"]
    assert unrelied_defaults([("m.py", source)], [source, "f(**kw)\n"]) == []


FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
JSON_CALLS = {"load", "loads", "dump", "dumps"}


def file_format_uses(label, source):
    """'label:line what' of each file or json call and each .17g format in source,
    by line."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = getattr(node.func, "id", None) or node.func.attr
            owner = getattr(getattr(node.func, "value", None), "id", None)
            if name in FILE_CALLS or owner == "json" and name in JSON_CALLS:
                uses.append((node.lineno, f"{owner}.{name}" if owner == "json" else name))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and ".17g" in node.value:
            uses.append((node.lineno, repr(node.value)))
    return [f"{label}:{line} {what}" for line, what in sorted(uses)]


def test_only_cli_reads_or_writes_files():
    uses = [use for path in sorted((ROOT / "src" / "hermband").glob("*.py"))
            if path.name != "cli.py"
            for use in file_format_uses(str(path.relative_to(ROOT)), path.read_text())]
    assert not uses, "file formats outside cli.py:\n" + "\n".join(uses)


def test_file_format_scan_reports_each_use():
    source = ('import json\nfh = open("f")\njson.dump({}, fh)\nd = json.loads("1")\n'
              'a = "%.17g" % 1.0\nb = f"{1.0:.17g}"\nc = path.read_text()\n')
    assert file_format_uses("m.py", source) == [
        "m.py:2 open", "m.py:3 json.dump", "m.py:4 json.loads", "m.py:5 '%.17g'",
        "m.py:6 '.17g'", "m.py:7 read_text"]
    assert file_format_uses("m.py", "import json\nd = json.JSONDecodeError\nlog('%d')\n") == []
