"""The generic germ (fraisse.PartialAutomorphism) against its definition.

images compares pair codes in place of whole type records; these tests
check it, with extend and commit, against oracles.germ_images, which
compares the records of the points and of their images read atom by atom
through eval_relation.  The limits cover a symmetric and an ordered binary
signature, no symbols at all, (Q;<) read through the generic germ, a
directed binary symbol beside a unary one with loops, and ternary symbols,
where images falls back to qf_type.  The last test counts the germ's reads:
each candidate is tested once, and only verify builds type records on a
binary signature.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from canonfn import builtin_limit
from canonfn.errors import TypeMismatch
from canonfn.formats import load_forbidden_age
from canonfn.fraisse import DloLimit, GenericLimit, PartialAutomorphism

import oracles

GERM_LIMITS = {
    "rado": builtin_limit("rado"),
    "ordered-rado": builtin_limit("ordered-rado"),
    "pureset": builtin_limit("pureset"),
    "dlo": DloLimit(),
    # A directed E and a unary P; only a P point may not carry a loop, so
    # loops, P and the two directions of E all tell points apart.
    "forbidden E/2, P/1": GenericLimit(load_forbidden_age("size 1; P(0); E(0,0)\n"),
                                       name="pe-loops"),
    # Ternary symbols: images falls back to qf_type.
    "forbidden R/3": GenericLimit(load_forbidden_age("size 1; R(0,0,0)\n"), name="r3"),
    "forbidden A/3, E/2, P/1": GenericLimit(
        load_forbidden_age("size 1; E(0,0)\nsize 1; P(0); E(0,0)\nsize 1; A(0,0,0)\n"),
        name="aep"),
}

POOL = 12


@pytest.mark.parametrize("name", GERM_LIMITS)
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_images_are_the_qf_type_rule(name, data):
    # Steps on one germ, each checked against the definition: images of a
    # new or a committed point over a drawn candidate list (repeats
    # allowed), extend over such a list, commit of a drawn pair, uncommit.
    limit = GERM_LIMITS[name]
    pool = [limit.element(i) for i in range(POOL)]
    germ = PartialAutomorphism(limit)
    points = st.sampled_from(pool)
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.sampled_from(["images", "extend", "extend", "commit", "uncommit"]))
        if germ.mapping and data.draw(st.booleans()):
            x = data.draw(st.sampled_from(list(germ.mapping)))
        else:
            x = data.draw(points)
        candidates = data.draw(st.lists(points, max_size=POOL))
        expected = oracles.germ_images(limit, germ.mapping, x, candidates)
        if kind == "images":
            assert list(germ.images(x, candidates)) == expected
        elif kind == "extend":
            before = germ.mapping.get(x, expected[0] if expected else None)
            assert germ.extend(x, candidates) == before
            assert germ.mapping.get(x) == before
        elif kind == "commit":
            y = data.draw(points)
            admissible = oracles.germ_images(limit, germ.mapping, x, (y,)) == [y]
            size = len(germ.mapping)
            try:
                germ.commit(x, y)
                assert admissible and germ.mapping[x] == y
            except TypeMismatch:
                assert not admissible and len(germ.mapping) == size
        elif germ.mapping:
            germ.uncommit(data.draw(st.sampled_from(list(germ.mapping))))
        assert type(germ) is PartialAutomorphism and germ.verify()
        assert (oracles.qf_type(limit, tuple(germ.mapping))
                == oracles.qf_type(limit, tuple(germ.mapping.values())))


def test_each_pair_is_tested_once(monkeypatch):
    # extend reads x's codes with the n committed points once, then each
    # candidate's with their images up to the first admissible one, which
    # it stores untested; commit is extend over that one candidate.  On a
    # binary signature only verify builds type records.
    limit = builtin_limit("rado")
    pool = [limit.element(i) for i in range(16)]
    germ = limit.germ([(pool[0], pool[3])])
    calls = Counter()
    for name in ("pair_codes", "qf_type"):
        method = getattr(limit, name)
        monkeypatch.setattr(limit, name,
                            lambda *a, _m=method, _n=name: calls.update([_n]) or _m(*a))
    for x in pool[1:8]:
        n = len(germ.mapping)
        calls.clear()
        y = germ.extend(x, pool)
        tested = pool.index(y) + 1 if y is not None else len(pool)
        assert calls == Counter({"pair_codes": (tested + 1) * (n + 1)})
    calls.clear()
    assert all(germ.extend(x, pool) == y for x, y in list(germ.mapping.items()))
    assert calls == Counter()
    x = pool[8]
    y = next(iter(germ.images(x, pool)))
    n = len(germ.mapping)
    calls.clear()
    germ.commit(x, y)
    assert calls == Counter({"pair_codes": 2 * (n + 1)})
    calls.clear()
    germ.constraints(pool[9])
    germ.uncommit(x)
    for x, y in ((pool[0], pool[1]), (pool[9], pool[3])):    # a conflict, then a repeated image
        with pytest.raises(TypeMismatch):
            germ.commit(x, y)
    assert calls["qf_type"] == 0
    assert germ.verify()
    assert calls["qf_type"] == 2
