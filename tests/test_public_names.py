"""Every top-level public function and class, every public method and
property of a public class, and every dataclass field in ``voxeldet`` has a
program reader.

The program readers are the ``.py`` files under ``src/`` and ``benchmark/``
and ``tests/test_acceptance.py``, the specified API. A read in any other test
does not count: a name that only its own unit tests call is not used.

A name counts as read when it appears as a whole word in a reader on any
line other than its own definition, either bare (``voxelize(...)``,
``from .x import voxelize``, ``"voxelize"``) or qualified by its own module
(``voxel_grid.voxelize``).
An attribute of anything else (``np.matmul``) is a different name.

A dataclass field counts as read when ``.field`` appears anywhere in the
readers, on whatever object; building the dataclass does not read its fields.
A method or property counts as read when ``.name`` appears on any line other
than its own ``def``, again on whatever object. Dunders, ``_private`` methods
and the methods of private classes (``cli._Parser.error`` overrides argparse)
are not checked. Because a read on any object counts, a method shares its
reader with every method of the same name elsewhere: a ``Module.zero_grad``
without a caller would pass, since ``.zero_grad`` is read on ``Tensor`` and
``AdamW``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def public_definitions(package: Path):
    """(module, name, path, line) of each top-level public def and class."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.append((path.stem, node.name, path, node.lineno))
    return out


def program_readers(root: Path) -> list[Path]:
    """The files and directories whose reads keep a name of ``root/src`` alive."""
    return [root / "src", root / "benchmark", root / "tests" / "test_acceptance.py"]


def _sources(search_roots):
    return {p: p.read_text().splitlines()
            for root in search_roots
            for p in ([root] if root.is_file() else sorted(root.rglob("*.py")))}


def dataclass_fields(package: Path):
    """(module, class, field) of each annotated field of a top-level dataclass."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            decorators = [d.func if isinstance(d, ast.Call) else d
                          for d in getattr(node, "decorator_list", [])]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            out += [(path.stem, node.name, stmt.target.id) for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return out


def unread_fields(package: Path, search_roots) -> list[str]:
    text = "\n".join(line for lines in _sources(search_roots).values() for line in lines)
    return [f"{module}.{cls}.{name}" for module, cls, name in dataclass_fields(package)
            if not re.search(rf"\.{name}\b", text)]


def public_methods(package: Path):
    """(module, class, name, path, line) of each public method and property of
    a top-level public class."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out += [(path.stem, node.name, item.name, path, item.lineno)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def _read_elsewhere(pattern, sources, def_path, def_line) -> bool:
    return any(pattern.search(line)
               for path, lines in sources.items()
               for lineno, line in enumerate(lines, start=1)
               if (path, lineno) != (def_path, def_line))


def unread_names(package: Path, search_roots) -> list[str]:
    sources = _sources(search_roots)
    return [f"{module}.{name}" for module, name, def_path, def_line in public_definitions(package)
            if not _read_elsewhere(re.compile(rf"(?:(?<![\w.])|(?<![\w.]){module}\.){name}\b"),
                                   sources, def_path, def_line)]


def unread_methods(package: Path, search_roots) -> list[str]:
    sources = _sources(search_roots)
    return [f"{module}.{cls}.{name}" for module, cls, name, def_path, def_line
            in public_methods(package)
            if not _read_elsewhere(re.compile(rf"\.{name}\b"), sources, def_path, def_line)]


def test_every_public_name_is_read():
    package = ROOT / "src" / "voxeldet"
    roots = program_readers(ROOT)
    assert public_definitions(package), "no definitions found"
    assert unread_names(package, roots) == []


def test_every_public_method_and_property_is_read():
    package = ROOT / "src" / "voxeldet"
    roots = program_readers(ROOT)
    assert public_methods(package), "no methods found"
    assert unread_methods(package, roots) == []


def test_every_dataclass_field_is_read():
    package = ROOT / "src" / "voxeldet"
    roots = program_readers(ROOT)
    assert dataclass_fields(package), "no dataclass fields found"
    assert unread_fields(package, roots) == []


def test_scanner_flags_unread_and_foreign_attributes(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "ops.py").write_text(
        "def used():\n    pass\n\n\n"
        "def qualified():\n    pass\n\n\n"
        "def matmul(a, b):\n    return np.matmul(a, b)\n\n\n"
        "class _Private:\n    pass\n"
    )
    (tmp_path / "reader.py").write_text("from pkg.ops import used\nops.qualified()\n")
    assert unread_names(package, [tmp_path]) == ["ops.matmul"]


def test_scanner_flags_unread_dataclass_fields(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "shapes.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Grid:\n    boxes: list\n    n_x: int\n\n\n"
        "class Plain:\n    size: int\n"
    )
    (tmp_path / "reader.py").write_text("grid = Grid([], n_x=3)\nprint(grid.boxes)\n")
    assert unread_fields(package, [tmp_path]) == ["shapes.Grid.n_x"]


def test_scanner_flags_unread_methods_and_properties(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "layers.py").write_text(
        "class Layer:\n"
        "    def __call__(self, x):\n        return self.forward(x)\n\n"
        "    def forward(self, x):\n        return x\n\n"
        "    def reset(self):\n        pass\n\n"
        "    @property\n    def width(self):\n        return 1\n\n"
        "    @property\n    def depth(self):\n        return 1\n\n"
        "    def _helper(self):\n        pass\n\n\n"
        "class _Private:\n    def unused(self):\n        pass\n"
    )
    (tmp_path / "reader.py").write_text("layer = Layer()\nprint(layer.width)\n")
    assert unread_methods(package, [tmp_path]) == ["layers.Layer.reset", "layers.Layer.depth"]


def test_scanner_counts_only_program_readers(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (tmp_path / "benchmark").mkdir()
    (tmp_path / "tests").mkdir()
    (package / "ops.py").write_text(
        "def run():\n    return accepted()\n\n\n"
        "def accepted():\n    pass\n\n\n"
        "def only_tested():\n    pass\n"
    )
    (tmp_path / "benchmark" / "run.py").write_text("from pkg.ops import run\n")
    (tmp_path / "tests" / "test_ops.py").write_text("from pkg.ops import only_tested\n")
    assert unread_names(package, program_readers(tmp_path)) == ["ops.only_tested"]


def test_scanner_counts_the_acceptance_file(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (package / "ops.py").write_text("def specified():\n    pass\n")
    (tmp_path / "tests" / "test_acceptance.py").write_text("from pkg.ops import specified\n")
    assert unread_names(package, program_readers(tmp_path)) == []
