"""Every private function, class, method and module-level name of the package
is used by the package itself: a helper that only tests call is a second path
to keep.  Read from the source with ast, so nothing is imported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heckekl"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private names that sources ({file name: text}) define and read
    nowhere but inside their own definition.  A read is a loaded name or
    attribute, or a name imported from another module; names are matched
    by spelling alone, so one read covers every method of that name."""
    defs, reads = [], []
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _private(node.name):
                defs.append((file, node.name, node))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, node))
            elif isinstance(node, ast.ImportFrom):
                reads += [(alias.name, node) for alias in node.names]
        for node in tree.body:  # module-level assignments, tuple targets included
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    defs += [(file, n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name) and _private(n.id)]
    unread = []
    for file, name, node in defs:
        inside = set(map(id, ast.walk(node)))
        if not any(read == name and id(n) not in inside for read, n in reads):
            unread.append(f"{file}: {name} (line {node.lineno})")
    return sorted(unread)


def package_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_every_private_name_is_read_by_the_package():
    assert unreferenced_private_names(package_sources()) == []


def test_a_kl_column_reader_with_no_caller_is_found():
    sources = package_sources()
    method = "    def _packed_column(self, i):\n        return self.kl_column(self.system.elements()[i])._packed\n\n"
    anchor = "    def kl_element("
    assert anchor in sources["klbasis.py"]
    sources["klbasis.py"] = sources["klbasis.py"].replace(anchor, method + anchor, 1)
    assert [u.split(" (")[0] for u in unreferenced_private_names(sources)] == ["klbasis.py: _packed_column"]


@pytest.mark.parametrize(
    "source, unread",
    [
        ("def _f():\n    return _f()\n", ["m.py: _f (line 1)"]),  # a call from its own body is not a read
        ("def _f():\n    pass\n\n\ng = _f\n", []),
        ("class C:\n    def _m(self):\n        pass\n\n\nC()._m()\n", []),
        ("_A, B = 1, 2\n", ["m.py: _A (line 1)"]),
        ("_A: int = 1\nprint(_A)\n", []),
        ("def __init__():\n    pass\n", []),  # dunders are not private
        ("from x import _g\n\n\ndef _g():\n    pass\n", []),  # an import from another module is a read
    ],
    ids=["self-call", "read", "method", "tuple-target", "annotated", "dunder", "imported"],
)
def test_unreferenced_private_names_finds_what_is_not_read(source, unread):
    assert unreferenced_private_names({"m.py": source}) == unread
