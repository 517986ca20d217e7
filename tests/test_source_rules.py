"""Rules the package source keeps."""
import ast
import builtins
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # base class checks a batch's labels and sends it whole to one of the two
    defining = {f"{path.name}:{node.name}"
                for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.ClassDef)
                and any(isinstance(f, ast.FunctionDef) and f.name == "play" for f in node.body)}
    assert defining == {"learners.py:OnlineLearner"}


def test_labels_checked_once():
    # `OnlineLearner.play` checks a batch's labels, and only it: a learner
    # that plays its experts or sub-learners on a batch it holds calls
    # their `_played` or `_replay`, so no `_replay` or `fpl._on_copy` calls `.play(`
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                calls.append((scope, getattr(child.func, "attr", getattr(child.func, "id", None))))
            visit(child, scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), (path.name,))
    checks = [".".join(scope) for scope, name in calls if name == "labelled_prefix"]
    plays = [".".join(scope) for scope, name in calls
             if name == "play" and {"_replay", "_on_copy"} & set(scope)]
    assert checks == ["learners.py.OnlineLearner.play"]
    assert not plays, plays


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


def test_one_seed_rule():
    # the perturbed leaders read a seed in `_seed_sequence` alone, and each
    # builds a generator of its own from it, so no two share one: only it
    # makes a SeedSequence, only `_PerturbedLeader.__init__` makes a
    # generator, and only the containers of other leaders spawn seeds
    path = next(path for path in SOURCES if path.name == "fpl.py")
    calls, defined = [], []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                defined.append(child.name)
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                calls.append((".".join(scope),
                              getattr(child.func, "attr", getattr(child.func, "id", None))))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())

    def callers(name):
        return {scope for scope, called in calls if called == name}

    assert callers("SeedSequence") == {"_seed_sequence"}
    assert callers("default_rng") == {"_PerturbedLeader.__init__"}
    assert callers("spawn") == {"ExpertPoolFpl.__init__", "AgnosticFpl.__init__"}
    assert "_generators" not in defined


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


def test_one_replay_cache():
    # what a replay reuses lives in `_replay_plan`'s cache alone, the tables
    # of a repeated script in its plan's `kept` slot: `fpl.py` binds no
    # container at module level, and no other function there is cached
    path = next(path for path in SOURCES if path.name == "fpl.py")
    tree = ast.parse(path.read_text(), filename=str(path))

    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "attr", getattr(node, "id", None))

    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    makers = {"dict", "list", "set", "bytearray", "OrderedDict", "defaultdict", "deque",
              "Counter", "WeakKeyDictionary", "WeakValueDictionary"}
    bound = [f"fpl.py:{node.lineno}" for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
             and (isinstance(node.value, displays)
                  or isinstance(node.value, ast.Call) and name(node.value) in makers)]
    cached = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and {"lru_cache", "cache"} & {name(d) for d in node.decorator_list}]
    assert not bound and cached == ["_replay_plan"], (bound, cached)


def test_one_rival_rule():
    # a comparison is read in `runner.comparison_values` alone: the best
    # rival's count, the CSV's rival column and the key-cover check count
    # from its table, so no other function of runner.py or verification.py
    # reads a class's rows or hypotheses or builds a threshold, and no other
    # function of runner.py calls a hypothesis held in a loop variable
    sites = []
    for name in ("runner.py", "verification.py"):
        path = next(path for path in SOURCES if path.name == name)
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [item for node in tree.body if isinstance(node, ast.ClassDef)
                      for item in node.body if isinstance(item, ast.FunctionDef)]
        for function in functions:
            loops = {target.id for node in ast.walk(function)
                     if isinstance(node, (ast.For, ast.comprehension))
                     for target in ast.walk(node.target) if isinstance(target, ast.Name)}
            for node in ast.walk(function):
                if isinstance(node, ast.Attribute) and node.attr in ("rows", "hypotheses",
                                                                      "hypothesis"):
                    sites.append((function.name, node.attr))
                if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                    continue
                if node.func.id in ("threshold_hypothesis", "row_hypothesis"):
                    sites.append((function.name, node.func.id))
                called = node.args[0] if node.func.id == "map" and node.args else node.func
                if name == "runner.py" and getattr(called, "id", None) in loops:
                    sites.append((function.name, "a hypothesis"))
    assert {site for site in sites if site[0] != "comparison_values"} == set()
    assert {("comparison_values", "rows"), ("comparison_values", "a hypothesis")} <= set(sites)


def test_minimax_oracle_stays_independent():
    # the game-tree oracle and the dimension search check each other, so
    # `minimax_mistakes` reaches neither the search nor the version-space
    # kernel built on it, not even from its inner function; of the class's
    # workspace it reads the column masks alone
    path = next(path for path in SOURCES if path.name == "littlestone.py")
    oracle = next(node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                  if isinstance(node, ast.FunctionDef) and node.name == "minimax_mistakes")
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(oracle) if isinstance(node, (ast.Name, ast.Attribute))}
    forbidden = {"_Workspace", "ldim", "at_least", "splitting_column", "soa_prediction",
                 "VersionSpace", "engine_for"}
    assert {"colmasks", "split"} <= names and not names & forbidden, names & forbidden
    workspace = [ast.unparse(node) for node in ast.walk(oracle)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call)
                 and getattr(node.value.func, "id", None) == "_workspace"]
    uses = [node for node in ast.walk(oracle)
            if isinstance(node, ast.Name) and node.id == "_workspace"]
    assert workspace == ["_workspace(cls).colmasks"] and len(uses) == 1, workspace


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


def test_one_experiment_rule():
    # seeded games are played and scored by `runner.regret_curve` alone:
    # verification.py calls neither `monte_carlo` nor `play_seeded`, and each
    # Monte-Carlo check (a check that takes `trials`) calls `regret_curve`
    path = next(path for path in SOURCES if path.name == "verification.py")
    tree = ast.parse(path.read_text(), filename=str(path))

    def calls(node):
        return {getattr(n.func, "attr", getattr(n.func, "id", None))
                for n in ast.walk(node) if isinstance(n, ast.Call)}

    checks = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.startswith("check_")
              and "trials" in {arg.arg for arg in node.args.args}]
    assert not {"monte_carlo", "play_seeded"} & calls(tree)
    assert len(checks) == 3 and all("regret_curve" in calls(check) for check in checks)


def test_one_experiment_per_shared_seed(monkeypatch):
    # learners that share a nature and a master seed are scored in one
    # `regret_curve` call: while the three Monte-Carlo checks run at a small
    # scale, no two calls play one (nature maker, master seed, horizon)
    from nuolab import runner, verification

    played, regret_curve = [], runner.regret_curve

    def recorded(makers, make_nature, horizons, trials, master_seed, score):
        played.extend((make_nature, master_seed, T) for T in horizons)
        return regret_curve(makers, make_nature, horizons, trials, master_seed, score)

    monkeypatch.setattr(runner, "regret_curve", recorded)
    small = {"fpl-regret-bound": {"trials": 30, "horizon": 50},
             "hierarchical-regret-bound": {"trials": 12, "horizons": (30, 50)},
             "coinflip-regret-floor": {"trials": 60, "horizons": (30, 50)}}
    assert small.keys() == {name for name, (check, _) in verification.SUITE.items()
                            if "trials" in inspect.signature(check).parameters}
    for name, arguments in small.items():
        assert verification.verdict(name, **arguments).passed
    assert len(set(played)) == len(played) == 3 + 4 + 2


def test_one_verdict_name():
    # a verdict's name is written once, as its `SUITE` key: `verification.verdict`
    # names each check's (passed, detail), so no other string of src/ but
    # a docstring's prose holds it
    from nuolab import verification

    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    docstrings = {id(node.body[0].value) for tree in trees for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    strings = [node.value for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and id(node) not in docstrings]
    counts = {name: sum(s.count(name) for s in strings) for name in verification.SUITE}
    assert len(counts) == 10 and set(counts.values()) == {1}, counts


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


def test_one_draw_rule():
    # an iid point is drawn in `DiscreteMeasure.draw` alone: only it takes
    # words from the generator and reads the cumulative counts, and both
    # `sample` and the iid nature's script call it; the fair coin's bits are
    # the only other words, and no float uniform is drawn
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute):
                called = isinstance(node, ast.Call) and node.func is child
                uses.append((".".join(scope), child.attr, type(child.ctx).__name__, called))
            visit(child, scope)

    for path in SOURCES:
        if path.name in ("hypotheses.py", "nature.py"):
            visit(ast.parse(path.read_text(), filename=str(path)), (path.name,))

    def scopes(attr, ctx="Load"):
        return {scope for scope, name, context, _ in uses if name == attr and context == ctx}

    assert scopes("getrandbits") == {"hypotheses.py.DiscreteMeasure.draw",
                                     "nature.py.CoinFlip.reveal_label",
                                     "nature.py.CoinFlip._drawn"}
    assert scopes("_cum") == {"hypotheses.py.DiscreteMeasure.draw"}
    assert scopes("_cum", "Store") == {"hypotheses.py.DiscreteMeasure.__init__"}
    drawing = {scope for scope, name, _, called in uses if name == "draw" and called}
    assert {"hypotheses.py.DiscreteMeasure.sample",
            "nature.py.StochasticIid._drawn"} <= drawing
    assert not {scope for scope, name, _, called in uses if name == "random" and called}


BATCH_BODIES = ("_replay", "_drawn", "_tables", "_walk")


def test_one_failure_rule():
    # a batch changes nothing until it has its answer (`OnlineLearner`):
    # no batch body catches an error, a `_replay` changes its learner only
    # in its `commit`, and the only fallbacks to the round loop are
    # `OnlineLearner._played` for learners and `runner.run_game` for
    # natures, which alone call `_replay` or `_drawn` inside a `try`; only
    # `_played` calls `_loop`, and no second way to draw a script is defined
    caught, changed, fallbacks, loops, drawers = [], [], set(), set(), set()

    def on_self(target):
        while isinstance(target, (ast.Attribute, ast.Subscript)):
            target = target.value
        return isinstance(target, ast.Name) and target.id == "self"

    def targets(node):
        if isinstance(node, ast.Assign):
            found = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            found = [node.target]
        else:
            found = node.targets if isinstance(node, ast.Delete) else []
        for target in found:
            yield from target.elts if isinstance(target, ast.Tuple) else [target]

    def called(node):
        return {getattr(n.func, "attr", getattr(n.func, "id", None))
                for n in ast.walk(node) if isinstance(n, ast.Call)}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            where = ".".join(scope)
            if isinstance(child, ast.Try):
                if set(scope) & set(BATCH_BODIES):
                    caught.append(f"{where}:{child.lineno}")
                if {"_replay", "_drawn"} & set().union(*map(called, child.body)):
                    fallbacks.add(where)
            if "_replay" in scope and "commit" not in scope and any(map(on_self, targets(child))):
                changed.append(f"{where}:{child.lineno}")
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "_loop":
                loops.add(where)
            visit(child, scope)

    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        visit(tree, (path.name,))
        drawers |= {f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "draw_script"}
    assert not caught, caught
    assert not changed, changed
    assert fallbacks == {"learners.py.OnlineLearner._played", "runner.py.run_game"}, fallbacks
    assert loops == {"learners.py.OnlineLearner._played"}, loops
    assert not drawers, drawers


def test_one_dict_read():
    # under Python 3.11 an instance whose dict `vars` has read reads its
    # attributes slower from then on, so state is set attribute by
    # attribute, never by updating a `vars(...)`, and only
    # `OnlineLearner._copy` reads a learner's own dict
    def read(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars"

    readers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if read(child) and any(getattr(arg, "id", None) == "self" for arg in child.args):
                readers.append(".".join(scope))
            if (isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "update"
                    and read(child.func.value)):
                readers.append(f"{'.'.join(scope)}: update")
            visit(child, scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), (path.name,))
    assert readers == ["learners.py.OnlineLearner._copy"], readers


def test_package_import_loads_no_numpy():
    # `import nuolab` stays cheap: numpy takes several times as long to
    # import as the package does, so no module that it loads imports numpy
    env = {**os.environ, "PYTHONPATH": str(Path(nuolab.__file__).parent.parent)}
    probe = "import sys, nuolab; print('numpy' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert loaded == "False\n"


def test_no_threads():
    # the package starts no thread: nothing under src/nuolab imports
    # `threading` (processes and CPU affinity stay open to trial workers)
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             for name in imported(node) if name.split(".")[0] == "threading"]
    assert SOURCES and not found, found


def test_every_replay_has_a_harness_row():
    # every class that defines `_replay` is a key of `ROWS` in
    # tests/test_replay.py, whose cases play it against the round loop
    replaying = {node.name
                 for path in SOURCES
                 for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                 if isinstance(node, ast.ClassDef)
                 and any(isinstance(f, ast.FunctionDef) and f.name == "_replay"
                         for f in node.body)}
    harness = Path(__file__).with_name("test_replay.py")
    rows = next(node.value for node in ast.parse(harness.read_text()).body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "ROWS")
    keys = {getattr(key, "attr", getattr(key, "id", None)) for key in rows.keys}
    assert "ExpertPoolFpl" in replaying and replaying <= keys, replaying - keys


# the built-in exceptions the package raises: TypeError for a call the API
# rules out, AssertionError for a broken invariant, and those Python's own
# protocols expect (an abstract method, `__getattr__`, an index past the end)
BUILTIN_RAISES = {"TypeError", "AssertionError", "NotImplementedError", "AttributeError",
                  "IndexError"}


def test_one_input_error_base():
    # bad input is refused with a DomainError, which the CLI prints as one
    # line with exit 2, and anything else is a bug: every exception class of
    # the package derives from DomainError, no raise names ValueError or
    # RuntimeError, and `cli.main` catches DomainError alone
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    bases, raised = {}, []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [name(base) for base in node.bases]
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append((f"{path.name}:{node.lineno}", name(exc)))

    def derives(cls, test):
        return test(cls) or any(derives(base, test) for base in bases.get(cls, ()))

    def builtin_error(cls):
        found = getattr(builtins, cls or "", None)
        return isinstance(found, type) and issubclass(found, BaseException)

    errors = {cls for cls in bases if derives(cls, builtin_error)}
    assert bases["DomainError"] == ["ValueError"]
    assert {"ProtocolError", "CapacityError", "ExhaustionError", "ConfigurationError"} < errors
    assert all(derives(cls, lambda c: c == "DomainError") for cls in errors), errors
    bare = [(site, exc) for site, exc in raised
            if builtin_error(exc) and exc not in BUILTIN_RAISES]
    assert raised and not bare, bare

    tree = ast.parse(next(path for path in SOURCES if path.name == "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [handler for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)]
    assert [name(handler.type) for handler in caught] == ["DomainError"]
    # any other handler in cli.py turns what it catches into a DomainError
    others = [handler for handler in ast.walk(tree)
              if isinstance(handler, ast.ExceptHandler) and handler not in caught]
    assert all(len(handler.body) == 1 and isinstance(handler.body[0], ast.Raise)
               and name(handler.body[0].exc.func) == "DomainError" for handler in others)


def test_unreached_lines_are_current():
    # each line `tests/unreached.txt` leaves unreached on purpose, with a
    # reason, is still an executable line of the package holding the text
    # recorded for it; `python tests/linemap.py` prints the lines tier-1
    # leaves unreached, so a line that moves or goes is listed anew
    import linemap

    listed = linemap.listed_lines((Path(__file__).parent / "unreached.txt").read_text())
    sources = {path.name: path for path in SOURCES}
    stale = [(name, line, code) for (name, line), (code, reason) in listed.items()
             if not reason or name not in sources
             or line not in linemap.executable_lines(sources[name])
             or sources[name].read_text().splitlines()[line - 1].strip() != code]
    assert not stale, stale


def test_unreached_lines_are_listed_once():
    # two entries naming one line would collapse into one, so that a line
    # which moved onto another listed one would leave no stale entry
    import linemap

    row = "nature.py:41 | raise NotImplementedError | abstract method"
    assert linemap.listed_lines(row) == {("nature.py", 41): ("raise NotImplementedError",
                                                             "abstract method")}
    with pytest.raises(ValueError, match="^nature.py:41 is listed twice$"):
        linemap.listed_lines(f"{row}\n# a comment\n{row}")


def test_one_round_step():
    # `OnlineLearner._loop` takes `_record`'s step inline, so no learner
    # overrides `_record`, and the inline copy cannot part from it
    defining = {f"{path.name}:{node.name}"
                for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.ClassDef)
                and any(isinstance(f, ast.FunctionDef) and f.name == "_record" for f in node.body)}
    assert defining == {"learners.py:OnlineLearner"}
