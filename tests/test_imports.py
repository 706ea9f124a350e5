"""Every module-level import in the package is read by its module, every
private module-level name is read somewhere in the package, every public
module-level function and class is read by the program, every defaulted
parameter the program can reach is passed by some call in it, every
solver and inverse name the benchmark tracer wraps exists, and every
public method and property of a package class is called by some run of
the six subcommands.

No linter ships with the test environment, so the static checks walk each
module's syntax tree with the standard library's ast module; the last
check traces the calls of real runs with sys.setprofile.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import pytest

import test_cli
from carleman_lab import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carleman_lab"
# the program: the package, its scripts and its benchmark
PROGRAM = ("src", "scripts", "perfbench")


def unused_imports(source: str) -> list:
    """(line, name) of each name a module-level import binds and the
    module never reads; annotations count as reads, quoted ones too."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = names_read(tree)
    return sorted((line, name) for name, line in bound.items() if name not in read)


def names_read(tree) -> set:
    """The names a syntax tree loads, those in quoted annotations too."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                quoted = ast.walk(ast.parse(ann.value))
                read.update(n.id for n in quoted if isinstance(n, ast.Name))
    return read


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level name (one leading
    underscore: a def, a class or an assignment target) that no module
    among sources reads as a name, an attribute or an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, ast.Assign):
                bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound = [node.target.id]
            else:
                continue
            unread += [(module, node.lineno, name) for name in bound
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return sorted(unread)


def test_the_check_finds_an_unused_import():
    source = (
        "import numpy as np\n"
        "from typing import Optional, Union\n"
        "import os.path\n"
        "def f(x: Optional[int]) -> 'np.ndarray':\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "Union")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": (
            "__all__ = []\n"
            "_used = 1\n"
            "_unused = 2\n"
            "def _helper():\n"
            "    return _used\n"
            "class _Kept:\n"
            "    pass\n"
        ),
        "b": "from .a import _helper\nimport a\nx = a._Kept\n_unused = 3\n",
    }
    assert unread_private_names(sources) == [("a", 3, "_unused"), ("b", 4, "_unused")]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def unread_public_defs(package: dict, program: dict, traced: set) -> list:
    """(module, line, name) of each public module-level function or class
    of the package that no statement of the program reads as a name, an
    attribute or an import, its own definition aside, unless traced (the
    (module, name) pairs the benchmark tracer names) holds it.  package
    maps module names to sources; program maps keys to sources, the
    package's modules under their own names."""
    reads = {}  # (key, index of a top-level statement) -> names it reads
    for key, source in program.items():
        for index, stmt in enumerate(ast.parse(source).body):
            read = names_read(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
            reads[key, index] = read
    unread = []
    for module, source in package.items():
        for index, node in enumerate(ast.parse(source).body):
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")
                    or (module, node.name) in traced):
                continue
            if not any(node.name in read for where, read in reads.items()
                       if where != (module, index)):
                unread.append((module, node.lineno, node.name))
    return sorted(unread)


def test_the_check_finds_an_unread_public_def():
    package = {
        "m": (
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def traced():\n"
            "    pass\n"
            "class Unread:\n"
            "    pass\n"
            "def _private():\n"
            "    return used()\n"
            "class Raised(Exception):\n"
            "    pass\n"
            "def raises():\n"
            "    raise Raised\n"
        ),
    }
    program = dict(package, script="import m\nm.raises()\n")
    assert unread_public_defs(package, program, {("m", "traced")}) == [
        ("m", 3, "recursive"), ("m", 7, "Unread"),
    ]
    program["script"] = "from m import recursive, raises\nraises()\n"
    assert unread_public_defs(package, program, set()) == [
        ("m", 5, "traced"), ("m", 7, "Unread"),
    ]


def test_every_public_def_is_read_by_the_program():
    # a function or class only tests call belongs under tests/; the names
    # the benchmark tracer wraps stay until it may change
    tracer = load_tracer()
    traced = {tuple(member.split(".")[:2])
              for members in tracer.GROUPS.values() for member in members}
    traced.update((layer, cls) for layer, classes in tracer.METHODS.items()
                  for cls in classes)
    package = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    program = dict(package)
    program.update((str(path), path.read_text()) for top in PROGRAM[1:]
                   for path in sorted((ROOT / top).rglob("*.py")))
    assert unread_public_defs(package, program, traced) == []


def _callee(call: ast.Call):
    """The name a call reaches its function by: f(...) or obj.f(...)."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _public_defs(tree, module: str):
    """(qualified name, callee name, bound leading parameters, def) of each
    public module-level function and public method of a module-level class;
    an __init__ counts, reached by its class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, 0, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                qualified = f"{module}.{node.name}.{item.name}"
                if item.name == "__init__":
                    yield qualified, node.name, 1, item
                elif not item.name.startswith("_"):
                    yield qualified, item.name, 0 if static else 1, item


def unpassed_defaults(package: dict, program: list) -> list:
    """(qualified name, parameter) of each defaulted parameter of a public
    function or method of the package (see _public_defs) that some call in
    the program sources reaches by name, when no such call passes it, by
    keyword or by position: a knob nothing turns."""
    calls = {}
    for source in program:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    found = []
    for module, source in package.items():
        for qualified, callee, bound, fn in _public_defs(ast.parse(source), module):
            reaching = calls.get(callee, [])
            if not reaching:
                continue
            args = fn.args
            positional = (args.posonlyargs + args.args)[bound:]
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d
                          in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for index, name in defaulted:
                if not any(_passes(call, index, name) for call in reaching):
                    found.append((qualified, name))
    return sorted(found)


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether call passes the parameter name, which is the index-th
    positional one (None: keyword-only); a *args or **kwargs passes any."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if index is None:
        return False
    return (len(call.args) > index
            or any(isinstance(a, ast.Starred) for a in call.args))


def test_the_check_finds_a_knob_nothing_turns():
    package = {
        "m": (
            "def f(a, b=1, *, c=2, d=3):\n"
            "    return a\n"
            "def _private(x=0):\n"
            "    return x\n"
            "def unreached(y=0):\n"
            "    return y\n"
            "class K:\n"
            "    def __init__(self, p, q=0, r=1):\n"
            "        pass\n"
            "    def meth(self, s=0, t=1):\n"
            "        pass\n"
            "    @staticmethod\n"
            "    def build(u, v=0):\n"
            "        pass\n"
        ),
    }
    program = [
        "import m\n"
        "m.f(1, c=5)\n"
        "m._private()\n"
        "k = m.K(1, 2)\n"
        "k.meth(0)\n"
        "m.K.build(1, *rest)\n",
        "from m import f\nf(0, 2, **opts)\n",
    ]
    assert unpassed_defaults(package, program) == [
        ("m.K.__init__", "r"), ("m.K.meth", "t"),
    ]
    program[1] = "f(0)\n"
    assert unpassed_defaults(package, program) == [
        ("m.K.__init__", "r"), ("m.K.meth", "t"), ("m.f", "b"), ("m.f", "d"),
    ]


def test_every_reachable_default_is_passed():
    package = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    program = [path.read_text() for top in PROGRAM
               for path in sorted((ROOT / top).rglob("*.py"))]
    assert unpassed_defaults(package, program) == []


def dead_traced_names(methods: dict, groups: dict, layers) -> list:
    """Each name "layer.attr[.attr]" of the tracer's methods and group
    members, for a layer among layers, that reaches no attribute of the
    package module carleman_lab.<layer>."""
    names = {f"{layer}.{cls}.{meth}" for layer, classes in methods.items()
             for cls, meths in classes.items() for meth in meths}
    names.update(member for members in groups.values() for member in members)
    dead = []
    for name in sorted(names):
        layer, *path = name.split(".")
        if layer not in layers:
            continue
        obj = importlib.import_module(f"carleman_lab.{layer}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            dead.append(name)
    return dead


def test_the_check_finds_a_dead_traced_name():
    methods = {"pde_solver": {"SchrodingerOperator": ("step", "gone")}}
    groups = {"a": ("inverse.misfit", "inverse.gone"), "b": ("weight.gone",)}
    assert dead_traced_names(methods, groups, ("pde_solver", "inverse")) == [
        "inverse.gone", "pde_solver.SchrodingerOperator.gone",
    ]


def load_tracer():
    """perfbench/tracer.py as a module, read only."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_solver_and_inverse_name_exists():
    # a rename in the package would leave the benchmark's counter at 0
    tracer = load_tracer()
    assert dead_traced_names(tracer.METHODS, tracer.GROUPS,
                             ("pde_solver", "inverse")) == []


def test_the_dead_traced_carleman_names_are_the_known_five():
    # these five were deleted or renamed before the tracer may change; any
    # other dead name is a rename that would zero a sweep counter silently
    tracer = load_tracer()
    assert dead_traced_names(tracer.METHODS, tracer.GROUPS,
                             ("carleman_check", "weight")) == [
        "carleman_check.conjugate",
        "weight.TransmissionWeight.grad",
        "weight.TransmissionWeight.hessian",
        "weight.TransmissionWeight.laplacian",
        "weight.fit_carleman_params",
    ]


def called_codes(run) -> set:
    """The code object of each Python function called while run() runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def uncalled_members(classes, run, exempt) -> list:
    """"module.Class.name" of each public method or property (a name with
    no single leading underscore, so dunders count) that a class among
    classes defines in its own source, exception classes aside, when no
    call made while run() runs reaches it and exempt does not hold it."""
    members = {}  # code object -> qualified name
    for cls in classes:
        if issubclass(cls, BaseException):
            continue
        source = sys.modules[cls.__module__].__file__
        for name, attr in vars(cls).items():
            if name.startswith("_") and not name.startswith("__"):
                continue
            fn = getattr(attr, "fget", None) or getattr(attr, "func", None) or attr
            fn = getattr(fn, "__func__", fn)
            code = getattr(fn, "__code__", None)
            # generated methods (a dataclass's __init__, __eq__, ...) are
            # compiled from strings, not from the class's source
            if code is None or code.co_filename != source:
                continue
            qualified = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.{name}"
            if qualified not in exempt:
                members[code] = qualified
    called = called_codes(run)
    return sorted(name for code, name in members.items() if code not in called)


def test_the_check_finds_an_uncalled_member():
    @dataclass(frozen=True)
    class Record:
        x: float

        def as_dict(self):
            return {"x": self.x}

        def __getitem__(self, key):
            return self.x

        @property
        def doubled(self):
            return 2.0 * self.x

        @cached_property
        def halved(self):
            return 0.5 * self.x

        def _private(self):
            return self.x

        @staticmethod
        def traced():
            return None

        @classmethod
        def of(cls, x):
            return cls(x)

    class Raised(Exception):
        def unused(self):
            return None

    def run():
        record = Record.of(1.0)
        return record.doubled, record._private()

    assert uncalled_members([Record, Raised], run, {"test_imports.Record.traced"}) == [
        "test_imports.Record.__getitem__", "test_imports.Record.as_dict",
        "test_imports.Record.halved",
    ]


def test_every_public_member_is_called_by_a_subcommand(tmp_path):
    # one run of each subcommand on the CLI tests' template; a method only
    # tests call belongs under tests/, and the methods the benchmark tracer
    # wraps stay until it may change
    config = test_cli.write_cfg(tmp_path)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            for subcommand in cli.HANDLERS:
                code = cli.main([subcommand, "--config", str(config),
                                 "--output-dir", str(tmp_path / subcommand)])
                assert code == 0, subcommand

    tracer = load_tracer()
    exempt = {f"{layer}.{cls}.{name}" for layer, classes in tracer.METHODS.items()
              for cls, names in classes.items() for name in names}
    classes = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"carleman_lab.{path.stem}")
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and obj.__module__ == module.__name__]
    assert uncalled_members(classes, run, exempt) == []
