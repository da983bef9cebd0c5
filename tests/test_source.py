"""Source-level invariants of the package."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

import radialmult

SOURCES = sorted(Path(radialmult.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so invariants must be explicit raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements anywhere in a module, with their line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def test_every_name_in_all_resolves():
    # the benchmark tracer finds each layer's functions through __all__
    missing = []
    for path in SOURCES:
        name = "radialmult" if path.stem == "__init__" else f"radialmult.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{path.name}: {n}" for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, missing


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue  # the package root's imports are its exports
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree).items()
            if name not in used
        ]
    assert not unused, unused


def test_norms_layer_imports_neither_radialize_nor_rotation():
    # the norm table takes the projected symbol from its caller
    path = Path(radialmult.__file__).parent / "norms.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert not imported & {"radialize", "rotation"}, sorted(imported)


#: numpy.fft's transforms; its frequency and shift helpers compute no transform.
FFT_TRANSFORMS = {
    name for name in dir(np.fft) if "fft" in name and not name.endswith(("freq", "shift"))
}


def _dotted(node: ast.expr) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def test_only_the_grid_module_calls_fft_transforms():
    # every other layer multiplies through the grid's private transform pair
    found = []
    for path in SOURCES:
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fft"):
                found.append(f"{path.name}:{node.lineno} from {node.module} import")
            elif isinstance(node, ast.Call):
                head, _, name = _dotted(node.func).rpartition(".")
                if head.endswith("fft") and name in FFT_TRANSFORMS:
                    found.append(f"{path.name}:{node.lineno} {head}.{name}")
    assert SOURCES and not found, found


def test_symbol_formulas_call_no_einsum():
    # einsum's generic sum-of-products loop was most of an n = 3 anisotropic-Gaussian radialize
    path = Path(radialmult.__file__).parent / "symbols.py"
    found = [
        f"symbols.py:{node.lineno} {_dotted(node.func)}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _dotted(node.func).rpartition(".")[2] == "einsum"
    ]
    assert not found, found


#: numpy's products: BLAS may split their sums by thread count, and einsum sums naively.
BLAS_PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def test_sphere_means_reduce_with_no_blas_product():
    # a sphere mean's last bits must not depend on the BLAS thread count
    path = Path(radialmult.__file__).parent / "radialize.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (func,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_sphere_means"
    ]
    calls = [
        f"radialize.py:{node.lineno} {_dotted(node.func)}"
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and _dotted(node.func).rpartition(".")[2] in BLAS_PRODUCTS
    ]
    matmuls = [
        f"radialize.py:{node.lineno} @"
        for node in ast.walk(func)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert not calls + matmuls, calls + matmuls


def test_no_module_calls_numpy_polynomial_or_an_eigensolver():
    # the n = 3 Gauss-Legendre rules take O(k^2) Newton steps; leggauss's O(k^3)
    # eigensolve took most of an n = 3 demo at k = 4096
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and "polynomial" in (node.module or ""):
                found.append(f"{path.name}:{node.lineno} from {node.module} import")
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted.startswith(("np.polynomial", "numpy.polynomial")) or (
                    dotted.startswith(("np.linalg.eig", "numpy.linalg.eig"))
                ):
                    found.append(f"{path.name}:{node.lineno} {dotted}")
    assert SOURCES and not found, found


def test_the_dimension_rule_is_written_once():
    # every layer calls the grid's `_check_dimension` instead of its own copy
    count = sum(path.read_text().count("dimension must be 1, 2 or 3") for path in SOURCES)
    assert count == 1, count


def test_the_lp_root_is_taken_only_in_the_grid_module():
    # `grid._lp_norms` is the one discrete L^p sum and root
    counts = {path.name: path.read_text().count("** (1.0 / p)") for path in SOURCES}
    assert counts["grid.py"] >= 1 and sum(counts.values()) == counts["grid.py"], counts


def test_only_the_multiplier_and_norms_modules_compute_kernels():
    # every other layer reads a kernel's verdict and mass through `norms._kernel_bounds`
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name not in ("multiplier.py", "norms.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _dotted(node.func).rpartition(".")[2] == "kernel"
    ]
    assert SOURCES and not found, found


def test_the_quadrature_weight_rule_is_written_once():
    # both quadrature types call `rotation._check_weights`
    count = sum(path.read_text().count("one positive weight per node") for path in SOURCES)
    assert count == 1, count


def test_each_symbol_class_defines_evaluate_in_its_own_body():
    # the benchmark tracer wraps `cls.__dict__["evaluate"]` of these three classes
    missing = [
        name for name in ("NamedSymbol", "SampledSymbol", "RadialSymbol")
        if "evaluate" not in vars(getattr(radialmult.symbols, name))
    ]
    assert not missing, missing


def test_the_benchmark_tracers_bindings_exist():
    # the tracer binds these names and arguments, and silently skips a missing
    # private name, so a rename would zero its per-layer counters unnoticed
    multiplier = radialmult.multiplier
    assert "values" in inspect.signature(radialmult._kernels.rotate_interp).parameters
    assert "rq" in inspect.signature(multiplier.average_conjugated).parameters
    assert inspect.isfunction(getattr(multiplier, "_rotate_values", None))


def test_only_average_conjugated_and_rotate_values_take_a_mode():
    # rotation mode is chosen in one public place; `_rotate_values` carries it
    # for the interp orbit loop, and the rotation-dimension rule is written once
    takes_mode = sorted(
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "mode" in [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
    )
    assert takes_mode == ["multiplier._rotate_values", "multiplier.average_conjugated"], takes_mode
    count = sum(path.read_text().count("rotation dimension does not match grid") for path in SOURCES)
    assert count == 1, count
