"""Rules the package source keeps."""
import ast
from pathlib import Path

import nuolab

SOURCES = sorted(Path(nuolab.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so an invariant the package
    # relies on is checked with an explicit raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def test_one_play_splits_batches():
    # a learner batches rounds through `_batchable` and `_replay`; only the
    # base class splits a batch and checks its labels
    defining = {f"{path.name}:{node.name}"
                for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.ClassDef)
                and any(isinstance(f, ast.FunctionDef) and f.name == "play" for f in node.body)}
    assert defining == {"learners.py:OnlineLearner"}
