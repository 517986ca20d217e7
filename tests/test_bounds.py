"""The bounds live in one place, `nuolab.bounds`: the checks, the regret
command and README's check table all read them from there, and the
complexity-mass check sums the schemes the learners run."""
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from nuolab import bounds, fpl, specs, verification
from test_acceptance import PINNED, pinned_name

README = Path(__file__).resolve().parent.parent / "README.md"
FORMULAS = [f for name, f in inspect.getmembers(bounds, inspect.isfunction)
            if f.__module__ == bounds.__name__ and name != "margin"]


def check_table() -> dict:
    """README's "What the verification suite checks" rows: check -> (claim,
    tolerance)."""
    section = README.read_text().split("## What the verification suite checks")[1]
    rows = [line.strip("|").split(" | ") for line in section.split("\n## ")[0].splitlines()
            if line.startswith("| ")]
    return {check.strip(): (claim, tolerance.strip()) for check, claim, tolerance in rows[2:]}


def test_each_formula_is_stated_in_one_row_of_the_readme_table():
    claims = [claim for claim, _ in check_table().values()]
    assert len(FORMULAS) == 4
    for f in FORMULAS:
        formula = f.__doc__.splitlines()[0]
        assert sum(formula in claim for claim in claims) == 1, (f.__name__, formula)


def test_the_three_monte_carlo_rows_carry_the_3_se_tolerance():
    table = check_table()
    assert sorted(table) == sorted(pinned_name(line) for line in PINNED)
    assert {check for check, (_, tolerance) in table.items() if tolerance == "3 SE"} == {
        "fpl-regret-bound", "hierarchical-regret-bound", "coinflip-regret-floor"}
    assert {tolerance for _, tolerance in table.values()} == {"exact", "3 SE"}


def test_values():
    assert bounds.aggregator_mistakes(2, 3) == 25
    assert bounds.fpl_regret(1.0, 400) == 60.0
    assert bounds.coinflip_floor(64) == 3 / 8
    assert bounds.hierarchical_regret(0, 1, 100) == pytest.approx(
        3 * math.log(100) * 10 + 40)
    assert bounds.COMPONENT_MASS == 1 / math.e and bounds.POOL_MASS == 0.83


def test_margin_sign():
    assert bounds.margin(4.0, 10.0, 1.0) == 3.0
    assert bounds.margin(8.0, 10.0, 1.0) == -1.0
    assert bounds.margin(4.0, 0.5, 1.0, floor=True) == 0.5
    assert bounds.margin(3.0, 0.5, 1.0, floor=True) == -0.5
    assert list(bounds.margin(np.array([1.0, 9.0]), [10.0, 10.0], np.array([1.0, 1.0]))) == [
        6.0, -2.0]


@pytest.mark.parametrize("name, scheme, message", [
    ("meta_complexity", lambda n: 2.0 * math.log(n), "component mass 1.6439 > 1/e"),
    ("pool_complexity", lambda dim, t: 1.0 + (dim + 1.0) * math.log(t),
     "pool mass 2.7538 > 0.83 for dim 0"),
])
def test_complexity_mass_sums_the_schemes_the_learners_run(monkeypatch, name, scheme,
                                                           message):
    # a scheme over its ceiling in fpl fails the check
    monkeypatch.setattr(fpl, name, scheme)
    passed, detail = verification.check_complexity_mass(terms=1000)
    assert not passed and detail.startswith(message), detail


def test_the_fpl_check_and_the_regret_bound_column_read_bounds(monkeypatch):
    config = {"learner": {"learner": "constant"}, "nature": {"nature": "coin-flip"},
              "comparison": [{"kind": "constant", "value": 0}], "Ts": [4, 9],
              "trials": 2, "bound": {"kind": "fpl", "k": 1}}
    assert specs.regret_experiment_from_config(config)[2] == [6.0, 9.0]
    assert verification.check_fpl_regret_bound(trials=4, horizon=20)[0]
    monkeypatch.setattr(bounds, "fpl_regret", lambda k, T: -float(T))
    assert specs.regret_experiment_from_config(config)[2] == [-4.0, -9.0]
    passed, detail = verification.check_fpl_regret_bound(trials=4, horizon=20)
    assert not passed and "> -20.00" in detail, detail
