"""Package layout: src/apivet holds only what a command or the library runs.

Reference implementations that only tests call belong in tests/oracles.py.
A public top-level function or class that nothing in the package names, as
a call, an attribute or an import, and that the package does not re-export
(`apivet._EXPORTS`, the library surface), is dead code. A name used only inside its own top-level definition,
as in a recursive call, counts as named nowhere. So is a public method or
property of a package class that no code in the package names as an
attribute, unless a caller outside the package is pinned for it; so is a
parameter that its function's body never reads, and a parameter of a
private function that every call passes the same constant: a knob with one
value.

README's module map names every module of the package once, and no other.
"""

import ast
import re
from pathlib import Path

import pytest

import apivet

PACKAGE = Path(apivet.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def public_definitions_and_references():
    defined = set()
    referenced = set(apivet._EXPORTS)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            names = names_in(top)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not top.name.startswith("_"):
                    defined.add((path.name, top.name))
                # a recursive call or a method naming its own class keeps nothing alive
                names.discard(top.name)
            referenced |= names
    return defined, referenced


def names_in(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_definition_is_referenced():
    defined, referenced = public_definitions_and_references()
    assert ("detector.py", "check_corpus") in defined
    unused = sorted(f"{module}:{name}" for module, name in defined if name not in referenced)
    assert unused == [], f"defined in src/apivet but referenced nowhere in it: {unused}"


# public methods and properties that no code in src/apivet names, each with
# the caller outside the package that keeps it
UNCALLED_METHODS = {
    ("binlog.py", "TemporalTable.chains"):
        "perfbench/layers.py counts replayed versions through it",
    ("joins.py", "JoinStores.column_events"):
        "perfbench/layers.py times one column's version stream through it",
    ("schema.py", "EntityType.attribute"):
        "library callers look an attribute of a bundle entity up by its path",
}


def uncalled_methods(sources):
    """(module, "Class.method") for each public method or property of a
    top-level class in `sources` ({module: source}) that no source names as
    an attribute (`x.method`); a plain name, such as a local variable of the
    same name, does not count."""
    methods = []
    attributes = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                methods += [(module, top.name, node.name) for node in top.body
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not node.name.startswith("_")]
        attributes |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted((module, f"{cls}.{name}") for module, cls, name in methods
                  if name not in attributes)


def test_every_public_method_is_named():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    uncalled = uncalled_methods(sources)
    assert uncalled == sorted(UNCALLED_METHODS), (
        f"public methods that src/apivet names nowhere, against the pinned ones: {uncalled}"
    )


@pytest.mark.parametrize("sources,uncalled", [
    ({"m.py": "class C:\n    def f(self):\n        pass"}, [("m.py", "C.f")]),
    ({"m.py": "class C:\n    def f(self):\n        pass\nC().f()"}, []),
    ({"m.py": "class C:\n    def f(self):\n        pass\nf = 1\nprint(f)"},
     [("m.py", "C.f")]),
    ({"m.py": "class C:\n    @property\n    def p(self):\n        return 1"},
     [("m.py", "C.p")]),
    ({"m.py": "class C:\n    @property\n    def p(self):\n        return 1\nC().p"}, []),
    ({"m.py": "class C:\n    def f(self):\n        pass\ngetattr(C(), 'f')()"},
     [("m.py", "C.f")]),
    ({"m.py": "class C:\n    def _f(self):\n        pass\n    def __len__(self):\n"
              "        return 0"}, []),
    ({"m.py": "def f():\n    def g():\n        pass\n    return g"}, []),
    ({"a.py": "class C:\n    def f(self):\n        pass", "b.py": "x.f()"}, []),
])
def test_the_method_guard_sees_each_uncalled_method(sources, uncalled):
    assert uncalled_methods(sources) == uncalled


# a signature a caller outside the package fixes: json's parse_constant
# passes the constant's name, which one count does not need
FIXED_SIGNATURES = {("fileio.py", "_Constants.__call__", "name")}


def only_raises_not_implemented(function):
    """An interface method: its body, after any docstring, is one
    `raise NotImplementedError`."""
    body = function.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(tree, scope=""):
    """(qualified name, parameter) for each parameter of a function or
    lambda in `tree` that its body never reads as a name; `self` and `cls`
    and the parameters of interface methods excepted."""
    unread = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = scope + getattr(node, "name", "<lambda>")
            args = node.args
            params = [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                          args.vararg, args.kwarg) if arg is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            if isinstance(node, ast.Lambda) or not only_raises_not_implemented(node):
                unread += [(name, param) for param in params
                           if param not in ("self", "cls") and param not in read]
            unread += unread_parameters(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            unread += unread_parameters(node, scope + node.name + ".")
        else:
            unread += unread_parameters(node, scope)
    return unread


def test_every_parameter_is_read():
    # a parameter no code reads is an option that selects nothing
    unread = sorted(
        f"{path.name}:{function}({param})"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, param in unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, function, param) not in FIXED_SIGNATURES
    )
    assert unread == [], f"parameters in src/apivet that no code reads: {unread}"


@pytest.mark.parametrize("source,unread", [
    ("def f(a, b):\n    return a", [("f", "b")]),
    ("def f(*args, key=None, **kw):\n    return args, kw", [("f", "key")]),
    ("async def f(a, /, b):\n    return b", [("f", "a")]),
    ("f = lambda x, y: y", [("<lambda>", "x")]),
    ("def f(a, key=lambda row: 0):\n    return key(a)", [("f.<lambda>", "row")]),
    ("def f(a):\n    def g():\n        return a\n    return g", []),
    ("class C:\n    def m(self, x):\n        '''Doc.'''\n        raise NotImplementedError",
     []),
    ("class C:\n    def m(self, x):\n        raise NotImplementedError('m')", []),
    ("class C:\n    def m(self, x):\n        raise ValueError", [("C.m", "x")]),
])
def test_the_parameter_guard_sees_each_unread_parameter(source, unread):
    assert unread_parameters(ast.parse(source)) == unread


def one_valued_parameters(tree):
    """(function, parameter, value) for each parameter of a private
    module-level function that every call in the module passes as the same
    constant, or leaves at a constant default. A function named other than
    as a callee, or called with * or ** arguments, may take other values
    where this cannot see, and is skipped."""
    functions = {node.name: node.args for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name.startswith("_")}
    calls = {name: [] for name in functions}
    callees = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in calls:
            calls[node.func.id].append(node)
            callees.add(node.func)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in calls and node not in callees:
            calls[node.id] = []
    found = []
    for name, made in calls.items():
        if not made or any(isinstance(arg, ast.Starred) for call in made for arg in call.args) \
                or any(kw.arg is None for call in made for kw in call.keywords):
            continue
        args = functions[name]
        positional = [*args.posonlyargs, *args.args]
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        params = [(arg.arg, i, default)
                  for i, (arg, default) in enumerate(zip(positional, defaults))]
        params += [(arg.arg, None, default)
                   for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
        for param, index, default in params:
            values = set()
            for call in made:
                if index is not None and index < len(call.args):
                    value = call.args[index]
                else:
                    value = next((kw.value for kw in call.keywords if kw.arg == param), default)
                # the class keeps 1 and True apart; any other node is its own value
                values.add((value.value.__class__, value.value)
                           if isinstance(value, ast.Constant) else value)
            (value, *others) = values
            if not others and isinstance(value, tuple):
                found.append((name, param, value[1]))
    return found


def test_no_private_parameter_has_one_value():
    # a mode switch that outlives its second caller selects one code path
    # and keeps the other alive
    one_valued = sorted(
        f"{path.name}:{function}({param}={value!r})"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, param, value in one_valued_parameters(
            ast.parse(path.read_text(encoding="utf-8")))
    )
    assert one_valued == [], f"parameters every call in src/apivet gives one value: {one_valued}"


@pytest.mark.parametrize("source,one_valued", [
    ("def _f(a, mode='x'):\n    return a, mode\n_f(1)\n_f(2)", [("_f", "mode", "x")]),
    ("def _f(a, mode):\n    return a, mode\n_f(1, 'test')\n_f(2, mode='test')",
     [("_f", "mode", "test")]),
    ("def _f(a, *, n=1):\n    return a, n\n_f(1, n=1)\n_f(2)", [("_f", "n", 1)]),
    ("def _f(a, mode='x'):\n    return a, mode\n_f(1)\n_f(2, 'y')", []),
    ("def _f(flag=True):\n    return flag\n_f(1)\n_f()", []),
    ("def _f(a, key=None):\n    return a, key\n_f(x, key=k)", []),
    ("def _f(a, mode='x'):\n    return a, mode\nhandler = _f\n_f(1)", []),
    ("def _f(a, mode='x'):\n    return a, mode\n_f(*xs)", []),
    ("def _f(a, mode='x'):\n    return a, mode\n_f(**kw)", []),
    ("def f(a, mode='x'):\n    return a, mode\nf(1)", []),
    ("def _f(a, mode='x'):\n    return a, mode", []),
    ("class C:\n    def _m(self, mode='x'):\n        return mode\nC()._m()", []),
])
def test_the_one_value_guard_sees_each_knob(source, one_valued):
    assert one_valued_parameters(ast.parse(source)) == one_valued


def unused_imports(tree):
    """Names a module imports (at any depth) and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_import_is_used():
    # __init__ imports to re-export: that is the library surface
    unused = sorted(
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert unused == [], f"imported in src/apivet but never used: {unused}"


def imported_modules(tree):
    """Top-level names of the modules a module imports, at any depth."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    return modules


def test_only_the_cli_touches_the_collector():
    # pausing the cyclic collector is a process-wide side effect: a command
    # may take it, a library caller of check_corpus or the pipeline must not
    importers = sorted(
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "gc" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert importers == ["cli.py"]


def test_only_the_hmm_loads_numpy():
    # importing numpy costs more than a default training run spends in it:
    # only the opt-in HMM's module imports it (test_cli checks that a
    # default run never loads that module)
    importers = sorted(
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "numpy" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert importers == ["hmm.py"]


def test_only_dsl_imports_dataclasses():
    # decorating a dataclass execs the methods it generates, and importing
    # dataclasses loads inspect, ast and dis: start-up costs every command
    # would pay. The package's records, configuration included, derive from
    # values.Record; dsl.Invariant stays a dataclass because a caller
    # outside the package copies it with dataclasses.replace
    importers = sorted(
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "dataclasses" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert importers == ["dsl.py"]


def test_only_one_thread_runs_no_module_imports_a_thread_api():
    # detection and refinement run one check sweep in the caller's thread: a
    # thread pool under the GIL lost to it at every setting measured
    importers = sorted(
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        & {"concurrent", "threading", "_thread"}
    )
    assert importers == []


def test_only_the_emitter_runs_generated_code():
    # invariants become code in one place, dsl.Emitter: a second evaluator
    # or explainer would need a builtin that compiles or runs source
    runners = sorted(
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id in ("exec", "eval", "compile")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    )
    assert runners == ["dsl.py"]


def test_only_fileio_decodes_json_lines():
    # one JSON Lines decoder, fileio.json_lines: a second would need its own
    # decoder object or json's scanner, and would not share its batch rule
    decoders = sorted(
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if names_in(ast.parse(path.read_text(encoding="utf-8"))) & {"JSONDecoder", "scan_once"}
    )
    assert decoders == ["fileio.py"]


@pytest.mark.parametrize("source", [
    "json.JSONDecoder()",
    "from json import JSONDecoder",
    "from json.decoder import JSONDecoder as D",
    "decoder.scan_once(line, 0)",
    "scan = scan_once",
])
def test_the_decoder_guard_sees_each_way_to_decode(source):
    assert names_in(ast.parse(source)) & {"JSONDecoder", "scan_once"}


ENCODER_NAMES = {"c_make_encoder", "encode_basestring_ascii", "JSONEncoder"}


def test_only_fileio_encodes_json_lines():
    # one JSON encoder, fileio.json_text, and one string escaper,
    # fileio.json_string: a second would need json's encoder class, its C
    # encoder factory or its escaper
    encoders = sorted(
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if names_in(ast.parse(path.read_text(encoding="utf-8"))) & ENCODER_NAMES
    )
    assert encoders == ["fileio.py"]


@pytest.mark.parametrize("source", [
    "json.JSONEncoder()",
    "from json import JSONEncoder",
    "from json.encoder import c_make_encoder as make",
    "json.encoder.c_make_encoder(None, default, enc, None, ': ', ', ', False, False, True)",
    "from json.encoder import encode_basestring_ascii as escape",
    "escape = json.encoder.encode_basestring_ascii",
])
def test_the_encoder_guard_sees_each_way_to_encode(source):
    assert names_in(ast.parse(source)) & ENCODER_NAMES


# calls that open a file, to read or to write, whatever their arguments:
# open (builtin, os., io., Path.), Path's readers and writers, os.fdopen
# and tempfile's files
OPENERS = {"open", "read_text", "read_bytes", "write_text", "write_bytes", "fdopen",
           "mkstemp", "NamedTemporaryFile", "TemporaryFile", "SpooledTemporaryFile"}


def opens_a_file(call):
    """Whether an ast.Call is one of OPENERS, called by name or as a method."""
    func = call.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in OPENERS


def test_only_fileio_opens_files():
    # every input is read through fileio, where a JSON Lines line is kept or
    # refused by one rule and a byte that is not UTF-8 spoils one line, not
    # the file; every output is written through fileio.write_chunks, atomic,
    # with an OS error a ConfigError naming the path
    openers = sorted(
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(isinstance(node, ast.Call) and opens_a_file(node)
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    )
    assert openers == ["fileio.py"], f"modules that open a file: {openers}"


@pytest.mark.parametrize("source,opens", [
    ("open(path)", True),
    ("open(path, encoding='utf-8')", True),
    ("open(path, 'r', encoding='utf-8')", True),
    ("open(path, mode='a')", True),
    ("io.open(path, 'rb')", True),
    ("os.open(path, os.O_RDONLY)", True),
    ("path.open()", True),
    ("Path(path).read_text(encoding='utf-8')", True),
    ("path.read_bytes()", True),
    ("Path(path).write_text(text)", True),
    ("tempfile.mkstemp(dir=d)", True),
    ("os.fdopen(fd, 'w')", True),
    ("urllib.request.urlopen(request)", False),
    ("json.load(handle)", False),
    ("handle.read()", False),
    ("fileio.read_json(path)", False),
    ("read_json_lines(path, parse)", False),
])
def test_the_opener_guard_sees_each_way_to_open(source, opens):
    assert opens_a_file(ast.parse(source).body[0].value) is opens


def module_map_problems(readme, modules):
    """What README's module map gets wrong about `modules`, sorted. The map
    runs from its "Module map:" line to the first blank line after its
    first bullet; each bullet must start with one module's name in
    backticks, and each module must start exactly one bullet."""
    lines = readme.splitlines()
    if "Module map:" not in lines:
        return ["no module map"]
    heads = []
    for line in lines[lines.index("Module map:") + 1:]:
        if not line and heads:
            break
        if line.startswith("- "):
            head = re.match(r"- `(\w+)`", line)
            heads.append(head.group(1) if head else line)
    problems = [f"not a module: {head}" for head in sorted(set(heads) - modules)]
    problems += [f"missing: {name}" for name in sorted(modules - set(heads))]
    problems += [f"named {heads.count(name)} times: {name}"
                 for name in sorted(modules) if heads.count(name) > 1]
    return problems


def test_the_module_map_names_each_module_once():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert "errors" in modules
    problems = module_map_problems(README.read_text(encoding="utf-8"), modules)
    assert problems == [], f"README's module map against src/apivet: {problems}"


@pytest.mark.parametrize("readme,problems", [
    ("Module map:\n\n- `a`: one.\n- `b`: two,\n  `c` in passing.\n\n- `z`: after.", []),
    ("Module map:\n\n- `a`: one.\n\nMore.", ["missing: b"]),
    ("Module map:\n- `a`: one.\n- `b`: two.\n- `a`: again.", ["named 2 times: a"]),
    ("Module map:\n- `a`: one.\n- `b`: two.\n- `ghost`: gone.", ["not a module: ghost"]),
    ("Module map:\n- `a`: one.\n- the `b` module.",
     ["not a module: - the `b` module.", "missing: b"]),
    ("Module map: `a` (one), `b` (two).", ["no module map"]),
])
def test_the_module_map_guard_sees_each_fault(readme, problems):
    assert module_map_problems(readme, {"a", "b"}) == problems
