import pytest

from otwb.css_space import Oid
from otwb.simnet import podc16_schedule, run

# The golden scenario's four operations by identity.
O1 = Oid(1, 1)  # ins x at 0, client 1
O2 = Oid(1, 2)  # del at 0, client 1
O3 = Oid(2, 1)  # ins a at 0, client 2
O4 = Oid(3, 1)  # ins b at 1, client 3


@pytest.fixture(scope="session")
def podc16_cj():
    return run("cjupiter", podc16_schedule())


@pytest.fixture(scope="session")
def podc16_j():
    return run("jupiter", podc16_schedule())


@pytest.fixture(scope="session")
def podc16_dj():
    return run("djupiter", podc16_schedule())


def text_of(value):
    return "".join(v[0] for v in value)


def seen_masks(n, pairs):
    """The seen bitsets of n events for visibility pairs (i, j): bit i of
    seen[j] is set when event j sees event i."""
    seen = [0] * n
    for i, j in pairs:
        seen[j] |= 1 << i
    return tuple(seen)


def mask(index, oids):
    """The oid mask of oids in an OidIndex, giving new oids their bits."""
    m = 0
    for o in oids:
        m |= index.bit(o)
    return m
