"""The public surface: exactly these names, and no private cross-module kernels."""

import ast
from pathlib import Path

import ccawalk

PACKAGE_DIR = Path(ccawalk.__file__).resolve().parent

EXPECTED_ALL = {
    "LatticeSpec",
    "mode_frequencies",
    "propagator_block",
    "NoonInput",
    "concurrence",
    "theta_for_concurrence",
    "correlation_matrix",
    "tpd_family",
    "TwoPhotonBasis",
    "noon_state",
    "build_two_photon_hamiltonian",
    "solve_by_symmetry",
    "evolve",
    "oracle_correlation",
    "ValidationError",
    "__version__",
}


def test_public_names_are_exactly_the_expected_set():
    assert len(ccawalk.__all__) == len(set(ccawalk.__all__))
    assert set(ccawalk.__all__) == EXPECTED_ALL
    for name in ccawalk.__all__:
        assert hasattr(ccawalk, name)


def private_imports(source):
    """(module, name) for each single-underscore name a relative import pulls in."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                dunder = alias.name.startswith("__") and alias.name.endswith("__")
                if alias.name.startswith("_") and not dunder:
                    found.append((node.module, alias.name))
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert {"lattice.py", "observables.py", "verify.py"} <= {p.name for p in modules}
    offenders = {
        path.name: private_imports(path.read_text(encoding="utf-8")) for path in modules
    }
    assert {name: found for name, found in offenders.items() if found} == {}


def test_guard_sees_a_private_import():
    assert private_imports("from .lattice import _mode_sums, propagator_block\n") == [
        ("lattice", "_mode_sums")
    ]
    assert private_imports("from . import __version__\n") == []
