"""Engine ops build their graph nodes through the shared builders.

A one-input op hands ``nn_core._unary`` its output and the gradient of its
input; a broadcasting two-input op hands ``nn_core._binary`` its output and
both gradients. Only the builders, the ops whose input gradients share
work or whose inputs are many, and ``_norm_unit`` (one node for a training
Conv–BN(–ReLU) unit, which runs the conv's backward inside its own) call
``_node`` with a backward closure of their own.

Each conv kind has one kernel, which its input gradient runs too: in
``nn_core`` only ``conv2d`` reads a window view or calls ``np.matmul``, and
in ``sparse_conv`` only ``sparse_conv_forward`` scatters.

Eval mode is the one switch for inference: no ``Module`` subclass defines
``__call__``, and no program code calls ``.forward`` but ``Module.__call__``,
so every layer runs through it, the only place that names ``no_grad``.

Rotated IoU has one prefilter-and-clip path: in ``src/`` only
``box_geom._pairwise_blocks`` calls the clip kernel ``_bev_overlap``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "voxeldet"
OWN_CLOSURES = {"_unary", "_binary", "concat", "conv2d", "batch_norm", "sparse_conv_op",
                "_norm_unit"}


def functions_containing(paths, match) -> set[str]:
    """Names of the top-level functions and methods (``Class.method``) in
    ``paths`` with an AST node for which ``match`` holds, directly or in a
    closure nested in them."""
    found = set()
    for path in paths:
        body = ast.parse(path.read_text(), str(path)).body
        defs = [(node.name, node) for node in body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{cls.name}.{item.name}", item) for cls in body
                 if isinstance(cls, ast.ClassDef)
                 for item in cls.body if isinstance(item, ast.FunctionDef)]
        found |= {name for name, fn in defs if any(match(node) for node in ast.walk(fn))}
    return found


def calls(name):
    """Matches a call of ``name`` or of ``<anything>.name``."""
    return lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)


def reads(name):
    """Matches a use of ``name`` or of ``<anything>.name``."""
    return lambda node: (isinstance(node, ast.Name) and node.id == name
                         or isinstance(node, ast.Attribute) and node.attr == name)


def module_classes_defining(paths, method) -> set[str]:
    """Subclasses of ``Module`` in ``paths``, directly or through classes
    defined there, that define ``method`` themselves."""
    classes = [node for path in paths for node in ast.parse(path.read_text(), str(path)).body
               if isinstance(node, ast.ClassDef)]
    bases = {cls.name: {getattr(b, "id", getattr(b, "attr", None)) for b in cls.bases}
             for cls in classes}
    subclasses, grown = set(), True
    while grown:
        found = {name for name, names in bases.items() if names & (subclasses | {"Module"})}
        grown, subclasses = found != subclasses, found
    return {cls.name for cls in classes if cls.name in subclasses
            and any(isinstance(item, ast.FunctionDef) and item.name == method
                    for item in cls.body)}


def scatters(node) -> bool:
    """``a[idx] += ...`` (any augmented assignment to a subscript) or a ufunc ``.at``."""
    return (isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript)
            or calls("at")(node))


def node_callers(package: Path) -> set[str]:
    """Functions and methods in ``package`` that call ``_node`` or ``<module>._node``."""
    return functions_containing(sorted(package.glob("*.py")), calls("_node"))


def test_only_the_builders_and_shared_work_ops_call_node():
    callers = node_callers(SRC)
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


def test_every_layer_runs_through_module_call():
    paths = sorted(SRC.glob("*.py"))
    assert module_classes_defining(paths, "forward"), "no Module subclasses found"
    assert module_classes_defining(paths, "__call__") == set()
    assert functions_containing(paths, reads("no_grad")) == {"Module.__call__"}


def test_call_scanners_find_subclasses_and_qualified_uses(tmp_path):
    path = tmp_path / "layers.py"
    path.write_text(
        "class Module:\n    def __call__(self, x):\n        with no_grad():\n"
        "            return self.forward(x)\n\n\n"
        "class Layer(nn_core.Module):\n    def forward(self, x):\n        return x\n\n\n"
        "class Block(Layer):\n    def __call__(self, x):\n        return x\n\n\n"
        "class Plain:\n    def __call__(self, x):\n        return x\n\n\n"
        "def infer(layer, x):\n    with nn_core.no_grad():\n        return layer(x)\n"
    )
    assert module_classes_defining([path], "__call__") == {"Block"}
    assert module_classes_defining([path], "forward") == {"Layer"}
    assert functions_containing([path], reads("no_grad")) == {"Module.__call__", "infer"}


def test_only_module_call_calls_forward():
    assert functions_containing(sorted(SRC.glob("*.py")), calls("forward")) == {"Module.__call__"}


def test_forward_scanner_finds_attribute_and_lambda_calls(tmp_path):
    path = tmp_path / "pipeline.py"
    path.write_text(
        "class Module:\n    def __call__(self, x):\n        return self.forward(x)\n\n\n"
        "class Detector(Module):\n    def forward(self, grids):\n"
        "        return self.forward_from_plan(self.vfe.build_plan(grids))\n\n"
        "    def forward_from_plan(self, plan):\n        return self.vfe.forward(plan)\n\n\n"
        "def bench(detector, plan):\n    return timed(lambda: detector.vfe.forward(plan))\n\n\n"
        "def run(detector, grid):\n    return detector([grid])\n"
    )
    assert functions_containing([path], calls("forward")) == {
        "Module.__call__", "Detector.forward_from_plan", "bench"}


def test_only_conv2d_runs_the_dense_conv_kernel():
    nn_core = [SRC / "nn_core.py"]
    assert functions_containing(nn_core, calls("_conv_windows")) == {"conv2d"}
    assert functions_containing(nn_core, calls("matmul")) == {"conv2d"}


def test_only_sparse_conv_forward_scatters():
    assert functions_containing([SRC / "sparse_conv.py"], scatters) == {"sparse_conv_forward"}


def test_kernel_scanners_find_nested_and_qualified_uses(tmp_path):
    path = tmp_path / "conv.py"
    path.write_text(
        "def dense(x, w):\n    return np.matmul(w, _conv_windows(x))\n\n\n"
        "def grad(g, w):\n    def backward():\n        return nn_core._conv_windows(g)\n"
        "    return backward\n\n\n"
        "def gemm(a, b, out):\n    numpy.matmul(a, b, out=out)\n\n\n"
        "def scatter(out, idx, v):\n    out[idx] += v\n\n\n"
        "def add_at(out, idx, v):\n    np.add.at(out, idx, v)\n\n\n"
        "class Op:\n    def backward(self, d, idx, v):\n"
        "        def step():\n            d[idx, :] -= v\n        return step\n\n\n"
        "def not_scatters(out, d_w, k, v, bias):\n"
        "    out += bias\n    d_w[k] = v @ v.T\n    out[k] = v\n    return out\n"
    )
    assert functions_containing([path], calls("_conv_windows")) == {"dense", "grad"}
    assert functions_containing([path], calls("matmul")) == {"dense", "gemm"}
    assert functions_containing([path], scatters) == {"scatter", "add_at", "Op.backward"}



def call_sites(tree, name) -> int:
    """Calls of ``name`` or ``<anything>.name`` anywhere under an AST node."""
    return sum(calls(name)(node) for node in ast.walk(tree))


def test_one_function_owns_the_prefilter_and_clip():
    paths = sorted(SRC.glob("*.py"))
    assert functions_containing(paths, calls("_bev_overlap")) == {"_pairwise_blocks"}
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}
    (owner,) = [fn for fn in trees["box_geom"].body
                if isinstance(fn, ast.FunctionDef) and fn.name == "_pairwise_blocks"]
    # no call outside a function either: every call in src/ is the owner's
    assert (sum(call_sites(tree, "_bev_overlap") for tree in trees.values())
            == call_sites(owner, "_bev_overlap") >= 1)


def test_call_sites_count_module_level_calls():
    tree = ast.parse(
        "def _pairwise_blocks(a, b):\n    return [_bev_overlap(x, y) for x, y in zip(a, b)]\n\n\n"
        "AREA = box_geom._bev_overlap(A, B)\n"
    )
    assert call_sites(tree, "_bev_overlap") == 2
    assert call_sites(tree.body[0], "_bev_overlap") == 1
