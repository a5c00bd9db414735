"""Property tests on random PLMs: the three multiplication routes, associativity,
and the documented contracts of classify and canonicalize.

They complement the exhaustive sweeps (every pair up to d = 4) with random
operands up to d = 12.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from plmonoid import (
    Plm,
    canonicalize,
    classify,
    from_dense,
    multiply,
    permute_columns,
    permute_rows,
    structural_multiply,
    to_dense,
)
from plmonoid.verify import oracle_multiply

MAX_D = 12

# No deadline: per-example timings vary on a loaded host.  No example database,
# so a failure reproduces from the printed example, not from saved state.
SETTINGS = settings(max_examples=300, deadline=None, database=None)


def colmaps(d):
    return st.lists(st.integers(1, d), min_size=d, max_size=d).map(lambda cm: Plm(tuple(cm)))


def plms():
    return st.integers(1, MAX_D).flatmap(colmaps)


def same_dim(n):
    return st.integers(1, MAX_D).flatmap(lambda d: st.tuples(*[colmaps(d)] * n))


@SETTINGS
@given(same_dim(2))
def test_three_routes_agree(pair):
    a, b = pair
    via_oracle = from_dense(oracle_multiply(to_dense(a), to_dense(b)))
    assert multiply(a, b) == structural_multiply(a, b) == via_oracle


@SETTINGS
@given(same_dim(3))
def test_structural_multiply_is_associative(triple):
    a, b, c = triple
    left = structural_multiply(structural_multiply(a, b), c)
    assert left == structural_multiply(a, structural_multiply(b, c))


@SETTINGS
@given(plms())
def test_canonicalize_contract(a):
    sigma, canonical = canonicalize(a)
    assert canonical == permute_rows(sigma, a)
    assert 1 not in canonical.colmap[1:]
    if 1 not in a.colmap[1:]:
        assert sigma.is_identity()
    else:
        assert sum(v != i for i, v in enumerate(sigma.images, start=1)) == 2


@SETTINGS
@given(plms())
def test_classify_contract(a):
    cm, d = a.colmap, a.dim
    cls = classify(a)
    if cls.kind == "rowplm":
        assert cm == (cls.m,) * d
        return
    assert len(set(cm)) > 1
    if cls.kind == "cplm":
        assert 1 not in cm[1:]
        assert cls.leading == (cm[0] == 1)
    elif cls.kind == "pcplm":
        assert cm.count(1) == 1 and cm[0] != 1
        assert classify(permute_columns(cls.tau, a)).kind == "cplm"
    else:
        assert cls.kind == "iplm"
        assert 1 < cm.count(1) < d
