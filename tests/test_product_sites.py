"""The product sites: every matrix or vector product in src sits in one of
four functions of `network.py`, so a change of how products are computed
(another BLAS call, a BLAS-independent kernel) has these four to change
and no other."""

import ast
from pathlib import Path

import pytest

import signalshift as ss

SRC = Path(ss.__file__).parent

PRODUCT_SITES = {"network.py": {"_forward_bound", "_backward", "_decide_one", "grad_norm"}}
PRODUCT_CALLS = {"dot", "matmul", "vecmat", "einsum", "tensordot"}


def stray_products(tree, sites=frozenset()):
    """(line, enclosing function or '<module>') of each product in `tree`,
    an `@` or a call to one of PRODUCT_CALLS, that no function of `sites`
    encloses."""
    found = []

    def visit(node, functions):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = (*functions, node.name)
        func = getattr(node, "func", None)
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        is_product = (isinstance(getattr(node, "op", None), ast.MatMult)
                      or (isinstance(node, ast.Call) and name in PRODUCT_CALLS))
        if is_product and not sites.intersection(functions):
            found.append((node.lineno, functions[-1] if functions else "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, functions)

    visit(tree, ())
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_products_sit_in_the_product_functions(module):
    tree = ast.parse((SRC / module).read_text())
    found = stray_products(tree, frozenset(PRODUCT_SITES.get(module, ())))
    assert not found, (f"{module}: products outside "
                       f"network.{sorted(PRODUCT_SITES['network.py'])}: {found}")


def test_the_lint_sees_a_product_placed_elsewhere():
    tree = ast.parse("def _decide_one(w, x):\n"
                     "    return np.dot(w, x) @ x\n"
                     "def greedy(w, x):\n"
                     "    def inner():\n"
                     "        return w @ x\n"
                     "    x @= w\n"
                     "    return np.einsum('ij,j', w, x), x.dot(w), matmul(w, x)\n"
                     "y = np.vecmat(a, b) + np.tensordot(a, b)\n"
                     "z = np.add(a, b) * a\n")
    assert stray_products(tree, frozenset({"_decide_one"})) == [
        (5, "inner"), (6, "greedy"), (7, "greedy"), (7, "greedy"), (7, "greedy"),
        (8, "<module>"), (8, "<module>")]
    assert len(stray_products(tree)) == 9
