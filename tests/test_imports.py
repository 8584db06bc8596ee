"""No library module, test or demo imports a name it does not use, and the
package exports no name that neither the library reads nor the paper needs."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectraproj"
# the package __init__ imports only to re-export, so it is not checked
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))

#: exports that no other module of the package reads, each with its role in
#: the paper; every other export must be read outside the module defining it
FOR_USERS = {
    "DEFAULT_ZERO_TOL": "the threshold below which the spectral split calls an eigenvalue zero",
    "moreau_envelope": "the smoothed projection objective whose gradient is the root function",
    "project_face": "projection onto a face V S+ V' of the cone, the restricted projection",
    "residual_F": "the root function F(y) = A(P(W + A*y)) - b that the Newton method solves",
    "dual_objective": "the dual function whose gap certifies a projection (ROADMAP item 13)",
    "dir_deriv_proj": "the directional derivative of the psd projection",
    "jacobian": "the generalized Jacobian of the root function, the Newton matrix",
    "jacobian_spectrum": "the Newton matrix's spectrum, whose conditioning signals degeneracy",
    "AuxCertificate": "an exposing vector of the theorem of the alternative, as fr_step takes it",
    "FaceChain": "the chain of exposed faces that fr_loop returns",
    "ReductionResult": "what solve_with_reduction returns",
    "certificate_from_stall": "the stall direction of the Newton matrix, a warm start",
    "fr_step": "one facial-reduction step: restriction to the exposed face",
    "solve_aux_gauss_newton": "the search for an exposing vector",
    "CrosscheckReport": "what the Jacobian crosscheck of degeneracy returns",
    "DegeneracyReport": "what the nondegeneracy rank test returns",
    "FIXTURE_FILES": "the closed-form fixtures' file names",
    "fixture_path": "where a closed-form fixture is stored",
    "load_fixture": "a closed-form fixture, checked against its checksum",
    "fixture_sd2_chain": "the closed-form singularity-degree-2 chain",
    "fixture_dual_gap_face": "the closed-form instance whose dual optimum is not attained",
    "gen_dual_unattained": "the family whose dual optimum is not attained",
    "known_nearest_point": "the exact nearest point X* where a generator plants it",
    "vontope_lift_vertex": "a vertex of the vontope, lifted from a permutation",
    "vontope_null_basis": "a basis of the vontope's minimal face",
}


def _unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in ``source`` reads."""
    tree = ast.parse(source)
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return sorted(bound - _names_read(tree))


def _names_read(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_import_detector():
    src = "import os\nimport scipy.linalg\nfrom x import y, z as w\nw(scipy.linalg)\n"
    assert _unused_imports(src) == ["os", "y"]


def test_modules_are_found():
    assert len(MODULES) >= 7
    assert len(SCRIPTS) >= 15


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports_in_tests_and_demos(path):
    assert _unused_imports(path.read_text()) == []


def _exports() -> dict[str, str]:
    """Each name ``spectraproj.__init__`` imports, mapped to the module defining it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        a.asname or a.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }


def test_every_export_is_read_in_the_library_or_has_a_role():
    reads = {p.stem: _names_read(ast.parse(p.read_text())) for p in MODULES}
    exports = _exports()
    unread = sorted(
        name for name, module in exports.items()
        if name not in FOR_USERS and not any(name in r for m, r in reads.items() if m != module)
    )
    assert unread == []
    assert sorted(set(FOR_USERS) - set(exports)) == []
