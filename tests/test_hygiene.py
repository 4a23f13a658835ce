"""Source hygiene, checked with the standard library's `ast`: no module under
src/ or tests/ keeps an import it does not use, no module under src/ keeps a
private module-level name that nothing in it references, and no module-level
helper in tests/ goes unreferenced by every test module, so a refactor or a
retired test cannot leave any of these behind; an import src/ keeps unused
is a name that a benchmark plan in perfbench/layers.py patches on its module;
the server's round core and the agent's device core name no socket, selector,
clock or link; the training modules hold no module-level state that threads
could share: only nn binds a threading.local(), the train kernel's scratch;
and the core tests in tests/test_cores.py open no socket, start no thread and
build no I/O shell; and in the CLI only `main` turns an error into exit 1, around
the resolve step, and no run step catches a ValueError."""
import ast
import builtins
import collections
import pathlib

import pytest

from fedhead import errors

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))


def module_id(path):
    return str(path.relative_to(SRC if SRC in path.parents else TESTS.parent))


def parse(path):
    text = path.read_text()
    return text.splitlines(), ast.parse(text, str(path))


def loaded_names(tree) -> set[str]:
    """Every name the module reads, the roots of attribute chains included."""
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def exported_names(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=module_id)
def test_every_import_is_used_exported_or_marked(path):
    # A `# noqa: F401` import is kept on purpose, for example as a name that
    # perfbench patches.
    lines, tree = parse(path)
    used = loaded_names(tree) | exported_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {bound}")
    assert unused == []


def patched_names() -> set[tuple[str, str]]:
    """(module, name) for each name that a plan in perfbench/layers.py wraps on a
    module it takes from `sys.modules`."""
    _, tree = parse(TESTS.parent / "perfbench" / "layers.py")
    patched = set()
    for plan in tree.body:
        if not isinstance(plan, ast.FunctionDef):
            continue
        modules = {node.targets[0].id: node.value.slice.value for node in ast.walk(plan)
                   if isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
                   and ast.unparse(node.value.value) == "sys.modules"}
        patched |= {(modules[t.elts[0].id], t.elts[1].value) for t in ast.walk(plan)
                    if isinstance(t, ast.Tuple) and len(t.elts) > 1
                    and isinstance(t.elts[0], ast.Name) and t.elts[0].id in modules
                    and isinstance(t.elts[1], ast.Constant)}
    return patched


def test_every_import_kept_unused_in_src_is_a_name_perfbench_patches():
    # A `# noqa: F401` import in src/ is kept only so that a benchmark plan can
    # wrap the name where its module looks it up; once no plan patches the
    # name on that module, the import must go.
    kept = set()
    for path in MODULES:
        lines, tree = parse(path)
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        kept |= {(module, alias.asname or alias.name) for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
                 if "# noqa: F401" in lines[alias.lineno - 1]}
    assert sorted(kept - patched_names()) == []


def defined_names(node) -> set[str]:
    """The module-level names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_every_private_module_level_name_is_referenced(path):
    _, tree = parse(path)
    defined = set().union(*map(defined_names, tree.body))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - loaded_names(tree)) == []


def test_every_module_level_helper_in_tests_is_referenced():
    # A helper that only its own definition names, such as the oracle of an
    # example test that was retired, is dead code. A reference is a name read
    # anywhere in tests/ outside that definition, or `module.helper` of a
    # test module imported whole.
    stems = {path.stem for path in TEST_MODULES}
    statements = [node for path in TEST_MODULES for node in parse(path)[1].body]

    def referenced(node):
        return loaded_names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                                     and isinstance(n.value, ast.Name) and n.value.id in stems}

    refs = [referenced(node) for node in statements]
    counts = collections.Counter(name for names in refs for name in names)
    dead = [name for node, own in zip(statements, refs) for name in defined_names(node)
            if not name.startswith(("test_", "__")) and counts[name] == (name in own)]
    assert sorted(dead) == []


def test_the_round_core_uses_no_socket_selector_clock_or_link():
    # Rounds is driven by messages, closed connections and `tick(now)`, and
    # Device by messages, links and training steps; each end's shell owns the
    # I/O, so protocol tests need no sockets or sleeps.
    for module, name in (("server.py", "Rounds"), ("agent.py", "Device")):
        _, tree = parse(SRC / "fedhead" / "runtime" / module)
        (core,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
        assert loaded_names(core) & {"socket", "selectors", "time", "Link"} == set(), name


def test_the_core_fault_models_use_no_socket_thread_or_shell():
    # The core tests, examples and fault models alike, drive Rounds and Device
    # alone, on a fake clock and a fake network; a socket, a selector, a
    # thread, a Server or an Agent would put them back on the I/O shells,
    # which tests/test_runtime.py covers.
    _, tree = parse(TESTS / "test_cores.py")
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert imported & {"socket", "selectors", "threading"} == set()
    named = loaded_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    named |= {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert named & {"Server", "Agent"} == set()


def shareable(value) -> bool:
    """A constant, a name, or a tuple of these: nothing a thread can write."""
    if isinstance(value, ast.Tuple):
        return all(shareable(v) for v in value.elts)
    return isinstance(value, (ast.Constant, ast.Name))


@pytest.mark.parametrize("name", ["nn.py", "federation.py"])
def test_the_training_modules_bind_no_shared_buffers(name):
    # The live agents train in threads of one process, so the train kernel's
    # buffers live in nn's one threading.local(), never in a module-level
    # array, dict or list; the round allocates its batch per call, so
    # federation binds no threading.local() and imports no threading.
    _, tree = parse(SRC / "fedhead" / name)
    values = [node.value for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value]
    local = [v for v in values if ast.unparse(v) == "threading.local()"]
    assert len(local) == (name == "nn.py")
    assert [ast.unparse(v) for v in values if not shareable(v) and v not in local] == []
    if name != "nn.py":
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names}
        assert "threading" not in imported


def catches_value_error(handler) -> bool:
    """The except clause is bare or names ValueError, a subclass or a base of it."""
    if handler.type is None:
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    kinds = [getattr(builtins, n.id, None) or getattr(errors, n.id) for n in names]
    return any(issubclass(k, ValueError) or issubclass(ValueError, k) for k in kinds)


def test_only_main_makes_a_usage_error_and_no_run_step_catches_a_value_error():
    # Each command's resolve step raises ValueError for a setting that cannot
    # work and returns its run step; main alone turns that into exit 1, in the
    # handler of the try that runs the resolve step (the parser's `error` exits
    # 1 for a usage argparse finds). No other function catches a ValueError, so
    # no run step can make one a usage error, swallow one, or check a setting
    # after the config line in a try block of its own.
    _, tree = parse(SRC / "fedhead" / "cli.py")
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    catching = sorted({f.name for f in functions for n in ast.walk(f)
                       if isinstance(n, ast.ExceptHandler) and catches_value_error(n)})
    assert catching == ["main"]
    exits = sorted(f.name for f in functions for n in ast.walk(f)
                   if ast.unparse(n) == "return 1" or isinstance(n, ast.Call) and n.args
                   and ast.unparse(n.func).endswith(".exit") and ast.unparse(n.args[0]) == "1")
    assert exits == ["error", "main"]
    (main,) = [f for f in functions if f.name == "main"]
    guarded = [ast.unparse(ast.Module(t.body, [])) for t in ast.walk(main) if isinstance(t, ast.Try)
               for h in t.handlers if any(ast.unparse(r) == "return 1" for r in ast.walk(h))]
    assert guarded == ["configure_logging()\nrun = args.resolve(args)"]
