"""The stream map: every RNG stream path is spelled with names from
`seeding.py`, so the module lists every consumer and two consumers cannot
pick the same path by accident."""

import ast
from pathlib import Path

import pytest

import signalshift as ss
from signalshift import seeding

SRC = Path(ss.__file__).parent


def literal_path_args(tree):
    """(line, source) of each integer literal among the path arguments of a
    `spawn_rng` call, every argument after the seed."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "spawn_rng":
            continue
        for arg in node.args[1:]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, int):
                    found.append((node.lineno, ast.unparse(node)))
                    break
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_spawn_rng_paths_are_named_in_seeding(module):
    found = literal_path_args(ast.parse((SRC / module).read_text()))
    assert not found, f"{module}: name these path components in seeding.py: {found}"


def test_the_lint_sees_a_literal_path():
    tree = ast.parse("spawn_rng(seed, NS_META, 50, seed)\n"
                     "seeding.spawn_rng(seed, -1)\n"
                     "spawn_rng(7, NS_DQN)\n")
    assert [line for line, _ in literal_path_args(tree)] == [1, 2]


def test_stream_names_keep_their_values():
    # renaming a literal must not move a stream: the values are the old ones
    assert (seeding.NS_RL_ADAPT, seeding.NS_RANDOM_POLICY, seeding.META_ADAPT) == (51, 99, 50)
