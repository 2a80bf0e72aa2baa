"""The public surface: the package root re-exports each module's `__all__`,
and the Monte Carlo engine imports nothing of the closed forms."""

import ast
from pathlib import Path

import ris_secrecy
from ris_secrecy import analytic, budget, config, model, montecarlo, specfun

MODULES = (analytic, budget, config, model, montecarlo, specfun)


def test_root_all_is_the_union_of_the_module_alls():
    names = ris_secrecy.__all__
    assert len(names) == len(set(names))
    assert set(names) == {n for m in MODULES for n in m.__all__} | {"__version__"}
    for name in names:
        assert hasattr(ris_secrecy, name), name
    # each name is the module's own object, not a copy
    for m in MODULES:
        for name in m.__all__:
            assert getattr(ris_secrecy, name) is getattr(m, name), name


def test_montecarlo_imports_only_the_shared_model():
    tree = ast.parse(Path(montecarlo.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ris_secrecy"):
            package.add(node.module.split(".", 1)[-1])
        elif isinstance(node, ast.Import):
            package.update(a.name.split(".", 1)[-1] for a in node.names
                           if a.name.startswith("ris_secrecy"))
    assert package == {"model"}
