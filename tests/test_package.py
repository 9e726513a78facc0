"""The package root's public names, the README's library quick tour and the
package's reachable code."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import types

import curvednbody

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# Every public name of the package root that is not a submodule.  Adding or
# removing one is a change to the documented API and updates this set.
ROOT_NAMES = {
    "AdmissibleMassTriple",
    "CurvedNBodyError",
    "DegenerateShape",
    "DegenerateSpectrum",
    "GrowthFit",
    "IOFailure",
    "InconsistentPair",
    "InputError",
    "InvalidConfiguration",
    "JacobiConstants",
    "LinearizationBlocks",
    "LyapunovCertificate",
    "MassVector",
    "NoConvergence",
    "NoGrowthWindow",
    "NonpositiveMass",
    "NotAFixedPoint",
    "NotAdmissible",
    "NumericalFailure",
    "PhaseState",
    "PolarSingularity",
    "ReducedState",
    "RingConfiguration",
    "SingularConfiguration",
    "SphereConfiguration",
    "StabilityReport",
    "StepFailure",
    "TrajectoryRecord",
    "TriangleShape",
    "admissibility_value",
    "as_mass_triple",
    "assemble_L_general",
    "assemble_blocks",
    "classify",
    "fixed_point_residual",
    "force_function",
    "force_gradient",
    "force_hessian_blocks",
    "growth_rate_experiment",
    "hamiltonian",
    "hessian_alpha_beta",
    "integrate",
    "integrate_reduced",
    "invariant_subspaces",
    "is_admissible",
    "isosceles_bound_check",
    "lambda1_closed_form",
    "lyapunov_certificate",
    "make_field",
    "masses_from_shape",
    "null_structure_check",
    "omega_critical",
    "reduced_force_function",
    "reduced_hamiltonian",
    "relative_equilibrium",
    "rest_point_from_shape",
    "ring_from_shape",
    "shape_from_masses",
    "shape_mass_defect",
    "solve_fixed_point_numeric",
    "spectral_analysis",
    "to_jacobi",
}


def test_root_names_are_pinned():
    names = {
        name
        for name, value in vars(curvednbody).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == ROOT_NAMES


def test_readme_quick_tour_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].split()[0] == curvednbody.classify((1.0, 1.0, 1.0), 1.3).verdict


def test_import_leaves_scipy_and_the_cli_unloaded():
    # set-up time is a benchmark metric: scipy loads only inside rk45_solve,
    # and the CLI module only for the console script
    code = (
        "import sys, curvednbody; "
        "print(sorted({'scipy', 'curvednbody.cli'} & set(sys.modules)))"
    )
    src = str(pathlib.Path(curvednbody.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "[]\n"


def test_every_module_level_name_is_reached():
    # a function or class that only tests call is dead code: each one must
    # be named somewhere in the package or the benchmark other than in its
    # own definition (as a name, an attribute or an identifier string, which
    # the benchmark's tracer looks functions up by), or be a root name
    package = ROOT / "src" / "curvednbody"
    sources = sorted(package.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    defined = {}
    used = set()
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        if path.parent == package:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unreached = {
        "%s.%s" % (module, name)
        for name, module in defined.items()
        if name not in used and name not in ROOT_NAMES
    }
    assert unreached == set()
