"""The bounds that the verification suite checks, each written once. A
bound's docstring is its formula as README's check table writes it: d_k
and d_n are the dimension `dim` of component k or n, k_i is the
complexity `k` of expert i, and T is the horizon."""

import math

COMPONENT_MASS = 1.0 / math.e   # ceiling of sum exp(-fpl.meta_complexity(n))
POOL_MASS = 0.83    # ceiling of sum t^dim exp(-fpl.pool_complexity(dim, t))


def aggregator_mistakes(dim: int, k: int) -> int:
    """(d_k + k)^2"""
    return (dim + k) ** 2


def fpl_regret(k: float, T: int) -> float:
    """(k_i + 2) sqrt(T)"""
    return (k + 2.0) * math.sqrt(T)


def hierarchical_regret(dim: int, n: int, T: int) -> float:
    """d_n + (d_n+3) ln T sqrt(T) + (2 ln n + 4) sqrt(T)"""
    return (dim + (dim + 3.0) * math.log(T) * math.sqrt(T)
            + (2.0 * math.log(n) + 4.0) * math.sqrt(T))


def coinflip_floor(T: int) -> float:
    """3 sqrt(T) / 64"""
    return 3.0 * math.sqrt(T) / 64.0


def margin(value, bound, se=0.0, *, floor: bool = False):
    """bound - value - 3 se, or value - 3 se - bound for a `floor`: a check
    fails when its margin is negative. Works elementwise on arrays."""
    if floor:
        return value - 3 * se - bound
    return bound - value - 3 * se
