"""The chi-square tail that the tests' goodness-of-fit checks read."""

import math


def chi_square_sf(x, df):
    """P(X >= x) for X chi-square with integer df > 0, in closed form."""
    h = x / 2
    if df % 2 == 0:
        term, total = math.exp(-h), 0.0
        for i in range(df // 2):
            total += term
            term *= h / (i + 1)
        return total
    total = math.erfc(math.sqrt(h))
    term = math.exp(-h) * math.sqrt(h) / math.gamma(1.5)
    for i in range((df - 1) // 2):
        total += term
        term *= h / (i + 1.5)
    return total
