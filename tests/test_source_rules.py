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


SCORERS = ("_PerturbedLeader._leaders", "ExpertPoolFpl._lazy_leaders")
DRAWS = ("exponential", "standard_exponential", "random", "binomial", "integers", "choice",
         "geometric")


def test_one_perturbed_leader_scorer():
    # the perturbed leaders draw only in the scorers: `_PerturbedLeader._leaders`
    # for a (round x slot) block, and `ExpertPoolFpl._lazy_leaders`, which
    # thins a pool's ranges on top of it. Only they take a square root, so
    # no copy of the rule loss + (k - q) * sqrt(t) lives elsewhere
    path = next(path for path in SOURCES if path.name == "fpl.py")
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name in DRAWS or name == "sqrt":
                    sites.append((".".join(scope), name, child.lineno))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    outside = [site for site in sites if site[0] not in SCORERS]
    used = {(scope, name) for scope, name, _ in sites}
    assert not outside, outside
    assert {(scorer, "sqrt") for scorer in SCORERS} <= used
    assert {(scorer, "standard_exponential") for scorer in SCORERS} <= used


def test_one_layout_rule():
    # a round's exact set and thinned ranges are derived in `_layout` alone:
    # the round loop and the replay plan both call it, and neither reads
    # the cohort ranges past it
    path = next(path for path in SOURCES if path.name == "fpl.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    module = {getattr(node, "name", None): node for node in tree.body}
    pool = {node.name: node for node in module["ExpertPoolFpl"].body
            if isinstance(node, ast.FunctionDef)}
    for function in (pool["_lead"], module["_replay_plan"]):
        called = {getattr(node.func, "attr", getattr(node.func, "id", None))
                  for node in ast.walk(function) if isinstance(node, ast.Call)}
        assert "_layout" in called and "_ranges" not in called, function.name


def test_minimax_oracle_stays_independent():
    # the game-tree oracle and the dimension recursion check each other, so
    # `minimax_mistakes` reaches neither the recursion nor the version-space
    # kernel built on it, not even from its inner function
    path = next(path for path in SOURCES if path.name == "littlestone.py")
    oracle = next(node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                  if isinstance(node, ast.FunctionDef) and node.name == "minimax_mistakes")
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(oracle) if isinstance(node, (ast.Name, ast.Attribute))}
    forbidden = {"_Workspace", "ldim", "_workspace", "soa_prediction", "VersionSpace",
                 "engine_for"}
    assert {"column_masks", "split"} <= names and not names & forbidden, names & forbidden


def test_verification_derives_no_bound():
    # every bound the checks compare with is written once, in `bounds`; the
    # checks take no square root and name neither ceiling
    path = next(path for path in SOURCES if path.name == "verification.py")
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    calls = {getattr(node.func, "attr", getattr(node.func, "id", None))
             for node in ast.walk(tree) if isinstance(node, ast.Call)}
    named_e = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "e"
               and getattr(node.value, "id", None) == "math"]
    assert {"fsum", "margin"} <= calls and "sqrt" not in calls
    assert not named_e and "0.83" not in text


def test_one_spec_reader():
    # the JSON spec format is read only in `specs`: no other module imports
    # json or defines a reader or writer of specs at module or class level
    # (a nested function that builds a nature from a seed reads no spec)
    def spec_function(name):
        return (name in ("from_config", "to_config", "make_learner", "make_nature")
                or name.endswith("_from_config"))

    found = []
    for path in SOURCES:
        if path.name == "specs.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(a.name == "json" for a in node.names) \
                    or isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append(f"{path.name}:{node.lineno} imports json")
        defined = [(node, None) for node in tree.body]
        defined += [(item, node.name) for node in tree.body if isinstance(node, ast.ClassDef)
                    for item in node.body]
        found += [f"{path.name}:{node.lineno} defines {owner + '.' if owner else ''}{node.name}"
                  for node, owner in defined
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and spec_function(node.name)]
    assert "specs.py" in {path.name for path in SOURCES} and not found, found


def test_one_aggregator_rule():
    # the aggregator grows its pool and selects in `_choose` alone: the round
    # loop's `selector` and the replay walk both call it, and no other
    # method than `__init__` and `_choose` makes a sub-learner
    path = next(path for path in SOURCES if path.name == "learners.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    aggregator = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "AggregatorLearner")
    methods = {node.name: node for node in aggregator.body if isinstance(node, ast.FunctionDef)}

    def called(function):
        return {getattr(node.func, "attr", getattr(node.func, "id", None))
                for node in ast.walk(function) if isinstance(node, ast.Call)}

    assert "_extend_pool" not in methods
    assert "_choose" in called(methods["selector"]) and "_choose" in called(methods["_replay"])
    spawning = {name for name, function in methods.items() if "_spawn" in called(function)}
    assert spawning == {"__init__", "_choose"}, spawning
