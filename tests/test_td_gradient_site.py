"""The TD gradient site: src uses `bellman_grads` and `clip_gradients` only
inside `TDLearner.grads` of `dqn.py`, so a change of the TD gradient (its
telemetry, a stacked learner, another TD setting) has that one method to
change and no other."""

import ast
from pathlib import Path

import pytest

import signalshift as ss

SRC = Path(ss.__file__).parent

GRADIENT_SITES = {"dqn.py": "TDLearner.grads"}
GRADIENT_NAMES = {"bellman_grads", "clip_gradients"}


def stray_uses(tree, site=None):
    """(line, enclosing scope or '<module>') of each use of a name of
    GRADIENT_NAMES in `tree`, a call or any other read of it as a name or
    an attribute, that the qualified function `site` does not enclose.
    Imports and the functions' own definitions are not uses."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        where = ".".join(scope)
        inside = site is not None and (where == site or where.startswith(site + "."))
        if isinstance(node, (ast.Name, ast.Attribute)) and name in GRADIENT_NAMES and not inside:
            found.append((node.lineno, where or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_the_td_gradient_sits_in_the_learner(module):
    tree = ast.parse((SRC / module).read_text())
    found = stray_uses(tree, GRADIENT_SITES.get(module))
    assert not found, f"{module}: {sorted(GRADIENT_NAMES)} outside dqn.TDLearner.grads: {found}"


def test_the_lint_sees_a_use_placed_elsewhere():
    tree = ast.parse("from .network import bellman_grads, clip_gradients\n"
                     "def bellman_grads(network, batch, target, gamma):\n"
                     "    return 0.0, None\n"
                     "class TDLearner:\n"
                     "    def grads(self):\n"
                     "        def clip():\n"
                     "            return clip_gradients(g, 1.0)\n"
                     "        return bellman_grads(n, b, t, 0.8)\n"
                     "    def td_step(self):\n"
                     "        return network.bellman_grads(n, b, t, 0.8)\n"
                     "class Other:\n"
                     "    def grads(self):\n"
                     "        step = clip_gradients\n"
                     "loss = bellman_grads(n, b, t, 0.8)\n")
    assert stray_uses(tree, "TDLearner.grads") == [(10, "TDLearner.td_step"),
                                                   (13, "Other.grads"), (14, "<module>")]
    assert len(stray_uses(tree)) == 5
