import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bplinks

MODULES = ["bplinks"] + sorted(
    f"bplinks.{info.name}"
    for info in pkgutil.iter_modules(bplinks.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_benchmark_span_target_is_a_callable_of_the_package():
    # the benchmark's tracer reports a vanished target without failing, so
    # renaming or deleting a traced function is caught here; spans.py is
    # read and executed in a namespace, never imported (no bytecode written)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = {"__name__": "spans"}
    exec(compile(path.read_text(), str(path), "exec"), spans)
    missing = []
    for module, attr_path in spans["TARGETS"].values():
        owner = importlib.import_module(f"bplinks.{module}")
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr_path}")
    assert missing == []


def test_every_module_parses_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # a later version's grammar; feature_version rejects the forms that the
    # parser versions, and an interpreter before 3.12 also rejects an
    # f-string that holds its own quote character (PEP 701)
    src = Path(bplinks.__file__).parent
    for path in sorted(src.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):  # the check sees a 3.11 form
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_one_function_encodes_json_and_none_imports_asdict():
    # every JSON line but the scan's link lines is built under the one
    # refusal guard, and records are read by arith.to_jsonable
    callers, asdict_imports = [], []
    src = Path(bplinks.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> the innermost function holding it
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func) if node is not func)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "_encode":
                    callers.append(f"{path.stem}.{owner.get(node, '<module>')}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if any(alias.name.split(".")[-1] == "asdict" for alias in node.names):
                    asdict_imports.append(path.name)
    assert callers == ["cli._json_line"]
    assert asdict_imports == []
