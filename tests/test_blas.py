"""Per-path reductions stay off BLAS, so reports do not depend on its thread count.

Threaded OpenBLAS splits a long dot product or gemv across its threads, so
the last bits of the result follow the thread count, which defaults to the
core count. The package sums per-path arrays with `core._matvec` instead;
the scan below keeps new BLAS products out, and the subprocess test runs the
smoke suite at one and two BLAS threads.
"""

import ast
import copy
import json
import subprocess
import sys
from pathlib import Path

import levyid

from conftest import report_diff
from test_cli import _src_env

PACKAGE = Path(levyid.__file__).resolve().parent
SMOKE = Path(__file__).resolve().parents[1] / "configs" / "suite_smoke.json"

BLAS_CALLS = {"dot", "inner", "vdot", "matmul", "einsum", "tensordot", "multi_dot"}

# (module, enclosing function) of the only products left on BLAS; the source
# says why next to each
ALLOWED = [
    ("levymeasure.py", "_conv_nu.integrand"),  # k-vector dot per quadrature node
    ("processes.py", "_conv_values"),          # gemm threaded over rows only
]


class _Products(ast.NodeVisitor):
    def __init__(self, module):
        self.module, self.scope, self.found = module, [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _hit(self, node, what):
        self.found.append((self.module, ".".join(self.scope), node.lineno, what))

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self._hit(node, "@")
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.MatMult):
            self._hit(node, "@=")
        self.generic_visit(node)

    def visit_Call(self, node):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name in BLAS_CALLS:
            self._hit(node, name)
        self.generic_visit(node)


def test_no_blas_products_outside_the_allowed_sites():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Products(path.name)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found += visitor.found
    assert sorted((m, fn) for m, fn, _, _ in found) == ALLOWED, found


def _smoke_with_ts_conv():
    """The shipped smoke suite plus a tempered-stable-driven conv job, whose
    sampler runs the one gemm left on BLAS, at N = 20k."""
    cfg = json.loads(SMOKE.read_text())
    job = copy.deepcopy(next(j for j in cfg["jobs"] if j["name"] == "conv-tilting"))
    job["name"] = "ts-conv-tilting"
    job["config"]["process"]["driver"] = {"family": "tempered-stable", "alpha": 0.5}
    job["config"]["mc"]["N"] = 20_000
    cfg["jobs"].append(job)
    return cfg


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(_smoke_with_ts_conv()))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        env = dict(_src_env(), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "levyid", "suite", "--config", str(cfg),
             "--workers", "2", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    assert report_diff(*outs) == ""
