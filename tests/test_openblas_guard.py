"""The OpenBLAS guard at the top of ``morera/__init__.py`` and its premise.

Importing morera before numpy loads numpy with ``OPENBLAS_NUM_THREADS=1``,
unless numpy is already loaded or one of the variables OpenBLAS reads for its
thread count is set.  That is safe only while morera makes no BLAS call.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import morera

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = pathlib.Path(morera.__file__).resolve().parent
# numpy names that run a BLAS or LAPACK routine, or reach them (np.roots and
# np.polyfit through linalg, the rest as numpy.linalg functions).
BLAS_NAMES = {
    "linalg", "dot", "vdot", "inner", "matmul", "tensordot", "einsum",
    "roots", "eigvals", "eig", "solve", "lstsq", "inv", "pinv", "det", "svd", "qr", "cholesky", "polyfit",
}


def _threads_after(imports: str, **variables: str) -> dict:
    """Thread count and thread variables of a fresh interpreter after running ``imports``.

    Each of THREAD_VARIABLES is set to its value in ``variables``, or unset.
    """
    script = (
        f"{imports}\n"
        "import json, os\n"
        "with open('/proc/self/status') as status:\n"
        "    threads = next(int(line.split()[1]) for line in status if line.startswith('Threads:'))\n"
        f"print(json.dumps({{'threads': threads, 'env': {{k: os.environ.get(k) for k in {THREAD_VARIABLES!r}}}}}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(variables)
    env["PYTHONPATH"] = str(SRC.parent) + os.pathsep + os.environ.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads the thread count from /proc/self/status"
)


@linux_only
def test_cli_import_starts_numpy_with_one_blas_thread_and_restores_the_environment():
    # Compared with numpy's own count under OPENBLAS_NUM_THREADS=1, so a numpy
    # built on another BLAS gives the same count both ways.
    baseline = _threads_after("import numpy", OPENBLAS_NUM_THREADS="1")
    result = _threads_after("import morera.cli")
    assert result == {"threads": baseline["threads"], "env": dict.fromkeys(THREAD_VARIABLES)}


@linux_only
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_count_the_user_set_wins(variable):
    baseline = _threads_after("import numpy", **{variable: "2"})
    result = _threads_after("import morera.cli", **{variable: "2"})
    assert result == baseline
    assert result["env"] == {k: "2" if k == variable else None for k in THREAD_VARIABLES}


@linux_only
def test_numpy_loaded_first_is_left_alone():
    assert _threads_after("import numpy; import morera") == _threads_after("import numpy")


def _blas_uses(tree: ast.AST) -> list:
    """(line, what) for each ``@`` product and each BLAS name taken as an attribute, import or string."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            found.extend((node.lineno, part) for name in dotted for part in name.split(".") if part in BLAS_NAMES)
        elif isinstance(node, ast.Constant) and node.value in BLAS_NAMES:
            found.append((node.lineno, node.value))  # getattr(np, "dot")
    return found


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_blas_call(module):
    # A numpy function reaches a module only through an import or an
    # attribute; a local variable that happens to be called ``inner`` is
    # morera's own.
    path = SRC / module
    found = _blas_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not found, (
        f"{module} uses {found}: the OpenBLAS guard in morera/__init__.py starts numpy with one "
        "BLAS thread because morera makes no BLAS call; revisit it before adding one"
    )


def test_the_premise_check_sees_each_form():
    samples = [
        "c = a @ b",
        "a @= b",
        "np.dot(a, b)",
        "np.linalg.solve(a, b)",
        "from numpy.linalg import solve",
        "from numpy import einsum",
        "import numpy.linalg",
        "getattr(np, 'tensordot')",
        "np.roots([1.0, 2.0, 1.0])",
        "from numpy.linalg import eigvals",
        "np.polyfit(x, y, 2)",
    ]
    for sample in samples:
        assert _blas_uses(ast.parse(sample)), sample
    assert not _blas_uses(ast.parse("def surrounds(inner, outer):\n    inner = outer\n    return inner"))
