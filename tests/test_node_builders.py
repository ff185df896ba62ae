"""Engine ops build their graph nodes through the shared builders.

A one-input op hands ``nn_core._unary`` its output and the gradient of its
input; a broadcasting two-input op hands ``nn_core._binary`` its output and
both gradients. Only the builders and the ops whose input gradients share
work or whose inputs are many call ``_node`` with a backward closure of
their own.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OWN_CLOSURES = {"_unary", "_binary", "concat", "conv2d", "batch_norm", "sparse_conv_op"}


def node_callers(package: Path) -> set[str]:
    """Names of the top-level functions and methods (``Class.method``) in
    ``package`` that call ``_node`` or ``<module>._node``, directly or in a
    closure nested in them."""
    callers = set()
    for path in sorted(package.glob("*.py")):
        body = ast.parse(path.read_text(), str(path)).body
        defs = [(node.name, node) for node in body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{cls.name}.{item.name}", item) for cls in body
                 if isinstance(cls, ast.ClassDef)
                 for item in cls.body if isinstance(item, ast.FunctionDef)]
        for name, fn in defs:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) == "_node"
                        or getattr(node.func, "attr", None) == "_node"):
                    callers.add(name)
    return callers


def test_only_the_builders_and_shared_work_ops_call_node():
    callers = node_callers(ROOT / "src" / "voxeldet")
    assert callers, "no _node callers found"
    assert callers - OWN_CLOSURES == set()


def test_scanner_finds_direct_qualified_and_method_callers(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "ops.py").write_text(
        "def _unary(a, d, grad):\n    return _node(d, (a,), None)\n\n\n"
        "def relu(a):\n    return _unary(a, a, None)\n\n\n"
        "def sin(a):\n    def backward():\n        pass\n"
        "    return nn_core._node(a, (a,), backward)\n\n\n"
        "class Layer:\n    def forward(self, a):\n        return _node(a, (a,), None)\n"
    )
    assert node_callers(package) == {"_unary", "sin", "Layer.forward"}
