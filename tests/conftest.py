import random
from fractions import Fraction

import pytest

from canonfn import (
    AutLimit,
    NegationOracle,
    PiecewiseAffineOracle,
    TableOracle,
    builtin_age,
    builtin_limit,
)
from canonfn.canonicity import AffinePiece, Interval


@pytest.fixture(scope="session")
def dlo():
    return builtin_limit("dlo")


@pytest.fixture(scope="session")
def aut_dlo(dlo):
    return AutLimit(dlo)


@pytest.fixture(scope="session")
def pureset():
    return builtin_limit("pureset")


@pytest.fixture
def graphs_age():
    return builtin_age("graphs")


@pytest.fixture
def linear_orders_age():
    return builtin_age("linear-orders")


def make_mixed(dlo):
    """The piecewise map sending x to -x below 0 and to x at or above 0."""
    return PiecewiseAffineOracle(dlo, [
        AffinePiece(Interval(None, False, Fraction(0), False), Fraction(-1), Fraction(0)),
        AffinePiece(Interval(Fraction(0), True, None, False), Fraction(1), Fraction(0)),
    ])


def ordered_rado_table(seed: int, horizon: int):
    """A drawn table on a fresh ordered-rado limit, sending each of its first
    horizon elements to one of them."""
    limit = builtin_limit("ordered-rado")
    rng = random.Random(seed)
    return TableOracle(limit, limit, {i: rng.randrange(horizon) for i in range(horizon)})


@pytest.fixture
def mixed_map(dlo):
    return make_mixed(dlo)


@pytest.fixture
def neg(dlo):
    return NegationOracle(dlo)
