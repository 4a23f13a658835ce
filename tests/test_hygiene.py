"""Source hygiene, checked with the standard library's `ast`: no module under
src/ keeps an import it does not use or a private module-level name that
nothing in it references, so a refactor cannot leave either behind; the
server's round core and the agent's device core name no socket, selector,
clock or link; and the
training modules hold no module-level state that threads could share."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_private_module_level_name_is_referenced(path):
    _, tree = parse(path)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - loaded_names(tree)) == []


def test_the_round_core_uses_no_socket_selector_clock_or_link():
    # Rounds is driven by messages, closed connections and `tick(now)`, and
    # Device by messages, links and training steps; each end's shell owns the
    # I/O, so protocol tests need no sockets or sleeps.
    for module, name in (("server.py", "Rounds"), ("agent.py", "Device")):
        _, tree = parse(SRC / "fedhead" / "runtime" / module)
        (core,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
        assert loaded_names(core) & {"socket", "selectors", "time", "Link"} == set(), name


def shareable(value) -> bool:
    """A constant, a name, or a tuple of these: nothing a thread can write."""
    if isinstance(value, ast.Tuple):
        return all(shareable(v) for v in value.elts)
    return isinstance(value, (ast.Constant, ast.Name))


@pytest.mark.parametrize("name", ["nn.py", "federation.py"])
def test_the_training_modules_bind_no_shared_buffers(name):
    # The live agents train in threads of one process, so training buffers
    # live in the module's one threading.local(), never in a module-level
    # array, dict or list.
    _, tree = parse(SRC / "fedhead" / name)
    values = [node.value for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value]
    local = [v for v in values if ast.unparse(v) == "threading.local()"]
    assert len(local) <= 1
    assert [ast.unparse(v) for v in values if not shareable(v) and v not in local] == []
