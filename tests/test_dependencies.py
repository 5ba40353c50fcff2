"""The package has no runtime dependency: it imports only the standard
library and its own modules, and declares no dependency."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "monocurve").glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_pyproject_declares_no_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_every_public_library_name_has_a_library_caller():
    # a public function, class or method that no library module names is
    # test-only code; the tests keep their oracles in tests/oracles.py.  A
    # method is reached only through an attribute, so a local variable of
    # its name does not count as a caller
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "monocurve").glob("*.py"))
             if path.name != "__init__.py"}
    assert trees
    defined = set()
    names, attributes = set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined.update((module, f"{node.name}.{item.name}") for item in node.body
                               if isinstance(item, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unused = sorted((module, name) for module, name in defined
                    if not name.rpartition(".")[2].startswith("_")
                    and name.rpartition(".")[2] not in
                    (attributes if "." in name else names | attributes))
    assert unused == []


def test_no_library_module_keeps_a_module_level_cache():
    # state that outlives a call lives on a Curve or a Reducer, and on a
    # module order as one key part per symbol: no module or class binds a
    # mutable container, cli's command table aside, and no function is
    # memoized by functools
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    makers = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter",
              "deque", "WeakKeyDictionary", "WeakValueDictionary"}
    found = []
    for path in sorted((ROOT / "src" / "monocurve").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        for stmt in (s for body in scopes for s in body):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and stmt.value:
                value = stmt.value
                maker = value.func if isinstance(value, ast.Call) else None
                name = getattr(maker, "id", getattr(maker, "attr", None))
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                if isinstance(value, mutable) or name in makers:
                    found += [(path.name, ast.unparse(t)) for t in targets]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                    and getattr(node.value, "id", None) == "functools"):
                found.append((path.name, f"functools.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [(path.name, f"functools.{a.name}") for a in node.names
                          if a.name in ("cache", "lru_cache")]
    assert found == [("cli.py", "_COMMANDS")]


def _named(node):
    # the name a node defines, binds, imports or reads, or None
    return (node.attr if isinstance(node, ast.Attribute)
            else getattr(node, "id", getattr(node, "name", None)))


def test_the_term_orders_keep_one_key_and_no_key_cache():
    # an order is a pure key function: its one key() fills no cache, the
    # one per-term key memo is a Reducer's, filled only by its division,
    # and an order keys one element at a time, as leading_term: no second
    # whole-basis lead pass (leading_terms) beside a Curve's packing
    found = []
    for path in sorted((ROOT / "src" / "monocurve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = _named(node)
            if (name in ("uncached_key", "leading_terms")
                    or (isinstance(node, ast.Attribute) and name == "_cache")):
                found.append((path.name, node.lineno, name))
    assert found == []


def test_only_syzygy_packs_monomials():
    # the packed monomial format has one home: _packed_keys encodes it
    # next to _Packing, which decodes it (unpack), so no other module
    # names either
    namers = {(path.name, _named(node))
              for path in sorted((ROOT / "src" / "monocurve").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if _named(node) in ("_packed_keys", "_Packing")}
    assert namers == {("syzygy.py", "_packed_keys"), ("syzygy.py", "_Packing")}


def test_every_parameter_of_a_library_function_is_read():
    # a parameter that its body never reads is a dead argument that callers
    # must still pass and keep in step, as an order beside a prepared Reducer
    unread = []
    for path in sorted((ROOT / "src" / "monocurve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [(path.name, name, p) for p in params
                       if p not in ("self", "cls") and p not in read]
    assert unread == []


def test_only_polyring_reads_the_rows_of_a_reducer():
    # a Reducer's rows are private to polyring; the other modules read its
    # leads, lead_monomials and pairs, so no row tuple is unpacked elsewhere
    readers = {path.name for path in sorted((ROOT / "src" / "monocurve").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr in ("_rows", "rows")}
    assert readers == {"polyring.py"}


def test_only_polyring_names_bigattis_recursion():
    # hilbert_numerator is the one entry to Bigatti's recursion: it
    # minimizes the generators and owns the memo, so no other module
    # imports, calls or reads _numerator
    namers = {path.name for path in sorted((ROOT / "src" / "monocurve").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if "_numerator" in (getattr(node, "id", None), getattr(node, "attr", None),
                                  getattr(node, "name", None))}
    assert namers == {"polyring.py"}


def test_only_polyring_builds_s_pairs():
    # Reducer.s_pair is the one S-pair builder: it cancels two leads by
    # multiplying each element by a term, so no other module calls times_term
    builders = {path.name for path in sorted((ROOT / "src" / "monocurve").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "times_term"}
    assert builders == {"polyring.py"}


def test_only_run_writes_a_commands_text():
    # each command returns its verdict and its lines or payload; run writes
    # them once and maps the outcome to the exit code, so _emit has one caller
    tree = ast.parse((ROOT / "src" / "monocurve" / "cli.py").read_text(encoding="utf-8"))
    callers = [getattr(stmt, "name", None) for stmt in tree.body for node in ast.walk(stmt)
               if isinstance(node, ast.Name) and node.id == "_emit"]
    assert callers == ["run"]


def test_only_run_renders_a_commands_output():
    # each command returns its lines or its payload, and run renders it
    # once, so no other function of cli picks the JSON indent or joins lines
    tree = ast.parse((ROOT / "src" / "monocurve" / "cli.py").read_text(encoding="utf-8"))
    renderers = [(getattr(stmt, "name", None), ast.unparse(node.func))
                 for stmt in tree.body for node in ast.walk(stmt)
                 if isinstance(node, ast.Call)
                 and (ast.unparse(node.func) == "json.dumps"
                      and any(k.arg == "indent" for k in node.keywords)
                      or ast.unparse(node.func) == "'\\n'.join")]
    assert sorted(renderers) == [("run", "'\\n'.join"), ("run", "json.dumps")]
