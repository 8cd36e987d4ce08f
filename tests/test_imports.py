"""Import cost and layering: the package loads no scipy, the oracles load it
on first use, each layer loads only the layers below it, and the
independent oracles share no code with the paths they check."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pwcycles
from pwcycles import averaging, kernels, poincare, smooth
from pwcycles.averaging import PerturbationSpec, oracle_F
from pwcycles.kernels import FamilyIndex, SystemParams, oracle_family
from pwcycles.poincare import PolarField, cartesian_crosscheck

SRC = Path(pwcycles.__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))


def oracle_values():
    """One value from each scipy user: the kernel and averaged-function
    quadrature oracles and the Cartesian cross-check."""
    params = SystemParams(1.0, -2.0)
    pert = PerturbationSpec(
        2,
        plus_f={(0, 0): 0.3, (1, 1): -0.7},
        plus_g={(2, 0): 0.5},
        minus_f={(0, 1): 0.2},
        minus_g={(0, 0): -0.4, (1, 0): 0.9},
    )
    field = PolarField(params, pert, 1e-3, r_range=(0.2, 3.0))
    return [
        oracle_family(FamilyIndex("A", 2, 2), 0.7, params),
        oracle_F(params, pert, 1.3),
        cartesian_crosscheck(field, (0.8, 0.0)).section_radii[0],
    ]


def _fresh(code: str):
    """Run `code` in a fresh interpreter that imports pwcycles from this
    checkout and this file as `test_imports`; return the JSON it prints."""
    path = os.pathsep.join(p for p in (str(SRC), str(HERE), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_package_and_cli_import_no_scipy():
    got = _fresh(
        "import pwcycles, pwcycles.cli\n"
        "from test_imports import scipy_modules\n"
        "print(json.dumps([scipy_modules(), 'numpy.random' in sys.modules]))\n"
    )
    assert got == [[], True]


def test_oracles_load_scipy_on_first_use():
    got = _fresh(
        "from test_imports import oracle_values, scipy_modules\n"
        "before = scipy_modules()\n"
        "values = oracle_values()\n"
        "print(json.dumps([before, 'scipy.integrate' in sys.modules, values]))\n"
    )
    assert got[:2] == [[], True]
    assert got[2] == oracle_values()


# The layers in an order in which each one's imports come before it.
LAYERS = ("exact", "kernels", "averaging", "zeros", "poincare", "smooth", "manifest", "cli")


def test_each_layer_loads_only_itself():
    # the package root used to import every layer, so the first import
    # loaded all of them
    got = _fresh(
        "import importlib\n"
        "def loaded():\n"
        "    return {k for k in sys.modules if k.split('.')[0] in ('pwcycles', 'scipy')}\n"
        "steps = []\n"
        f"for layer in {LAYERS!r}:\n"
        "    before = loaded()\n"
        "    importlib.import_module('pwcycles.' + layer)\n"
        "    steps.append([sorted(loaded() - before), 'numpy.random' in sys.modules])\n"
        "print(json.dumps(steps))\n"
    )
    root = [["pwcycles"]] + [[]] * (len(LAYERS) - 1)
    assert got == [[r + [f"pwcycles.{layer}"], True] for r, layer in zip(root, LAYERS)]


# The independent oracles and their helpers, by module.
ORACLES = {
    kernels: ("quad_oracle", "oracle_family", "trig_rational"),
    averaging: ("oracle_F", "_poly_eval"),
    smooth: ("oracle_smooth_F",),
    poincare: ("cartesian_crosscheck", "_cartesian_rhs", "_leg_time_bound", "solve_ivp"),
}
# The reduction, evaluator and return-map code that the oracles check.
CHECKED_PATHS = {
    "_unit_half", "_reduce_half", "_unit_parts", "_exact_parts", "assemble", "assembly_matrix",
    "basis_values", "eval_F", "eval_family", "_a_family", "a00", "a00_prime", "_leg_terms",
    "_leg_rhs", "_dop853", "return_map", "_polyval2d",
}


def test_oracles_name_none_of_the_checked_paths():
    found, shared = set(), {}
    for module, names in ORACLES.items():
        tree = ast.parse(Path(module.__file__).read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                found.add(node.name)
                used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                used |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                if used & CHECKED_PATHS:
                    shared[node.name] = sorted(used & CHECKED_PATHS)
    assert found == {name for names in ORACLES.values() for name in names}
    assert shared == {}
