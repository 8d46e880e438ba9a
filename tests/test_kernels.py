"""The forward-path kernels compare floats where they once called min and max,
and look members up on bool keys where they once hashed a tuple.  Each test
keeps a copy of the builtin form a kernel replaced and checks the kernel
against it bit for bit (``struct`` bytes, so signed zeros and NaNs count), on
the inputs where the two forms could part: NaN, infinities and ties."""
from __future__ import annotations

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoeuclid.angle import THETA_MAX, ExtendedAngle, KleinIndex, _from_null_coords, cosh_e
from pseudoeuclid.geometry import PointP
from pseudoeuclid.tol import is_null_xy, rescaled
from pseudoeuclid.triangle import Triangle, TriangleElements, _set_elements

# the sign-pair map and product table as they were built, on tuple keys
OLD_BY_SIGNS = {(k.signs[0] > 0, k.signs[1] > 0): k for k in KleinIndex}
OLD_KLEIN_TABLE = {
    (a, b): OLD_BY_SIGNS[(a.signs[0] * b.signs[0] > 0, a.signs[1] * b.signs[1] > 0)]
    for a in KleinIndex for b in KleinIndex
}


def old_from_null_coords(c: float, s: float, u: float, w: float) -> ExtendedAngle:
    theta = 0.5 * math.log1p(2.0 * min(abs(c), abs(s)) / min(abs(u), abs(w)))
    return ExtendedAngle(math.copysign(theta, c * s), OLD_BY_SIGNS[(u > 0, w > 0)])


def old_rescaled(x: float, y: float) -> tuple[float, float, int]:
    s = -math.frexp(max(abs(x), abs(y)))[1]
    return math.ldexp(x, s), math.ldexp(y, s), s


def old_law_of_cosines_check(D, d, c):
    # the body of Triangle.law_of_cosines_check before it compared, on the
    # square sides, moduli and extended cosines it reads from the elements
    D1, D2, D3 = D
    d1, d2, d3 = d
    c1, c2, c3 = c
    t1, t2, t3 = 2.0 * d2 * d3, 2.0 * d3 * d1, 2.0 * d1 * d2
    cos_res = (
        abs(D1 - (D2 + D3 - t1 * c1)) / max(1.0, abs(D1), abs(D2), abs(D3), t1 * abs(c1)),
        abs(D2 - (D3 + D1 - t2 * c2)) / max(1.0, abs(D2), abs(D3), abs(D1), t2 * abs(c2)),
        abs(D3 - (D1 + D2 - t3 * c3)) / max(1.0, abs(D3), abs(D1), abs(D2), t3 * abs(c3)),
    )
    proj_res = (
        abs(d1 - abs(d2 * c3 + d3 * c2)) / max(1.0, d1),
        abs(d2 - abs(d3 * c1 + d1 * c3)) / max(1.0, d2),
        abs(d3 - abs(d1 * c2 + d2 * c1)) / max(1.0, d3),
    )
    return cos_res, proj_res


def bits(*values: float) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


# the images of a first-sector direction (a, b), |b| < a, in the sectors of
# +1, +h, -1 and -h
SECTORS = (
    (lambda a, b: (a, b), KleinIndex.P1),
    (lambda a, b: (b, a), KleinIndex.H),
    (lambda a, b: (-a, -b), KleinIndex.M1),
    (lambda a, b: (-b, -a), KleinIndex.MH),
)
magnitudes = st.floats(min_value=5e-324, max_value=1e300)


@pytest.mark.parametrize("image, k", SECTORS, ids=[k.name for _, k in SECTORS])
@settings(max_examples=300, deadline=None)
@given(a=magnitudes, ratio=st.floats(min_value=-1.0, max_value=1.0))
@example(a=1.0, ratio=0.0)
@example(a=1.0, ratio=-0.0)
@example(a=5.0, ratio=0.6)
def test_from_null_coords_matches_the_min_form(image, k, a, ratio):
    c, s = image(a, a * ratio)
    u, w = c + s, c - s
    if not (math.isfinite(u) and math.isfinite(w)) or is_null_xy(c, s):
        return
    got, want = _from_null_coords(c, s, u, w), old_from_null_coords(c, s, u, w)
    assert got.k is want.k is k
    assert bits(got.theta) == bits(want.theta)


@pytest.mark.parametrize("a", list(KleinIndex), ids=lambda k: k.name)
@pytest.mark.parametrize("b", list(KleinIndex), ids=lambda k: k.name)
def test_klein_products_match_the_tuple_table(a, b):
    assert a * b is OLD_KLEIN_TABLE[(a, b)]


any_float = st.floats(allow_nan=True, allow_infinity=True)
# values that tie 1.0, each other or the zeros, beside any double
specials = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 2.0])
entries = st.one_of(specials, any_float)


@settings(max_examples=500, deadline=None)
@given(x=entries, y=entries)
@example(x=math.nan, y=1.0)
@example(x=1.0, y=math.nan)
@example(x=-0.0, y=0.0)
def test_rescaled_matches_the_max_form(x, y):
    got, want = rescaled(x, y), old_rescaled(x, y)
    assert bits(*got[:2]) == bits(*want[:2])
    assert got[2] == want[2]


@settings(max_examples=500, deadline=None)
@given(D=st.tuples(entries, entries, entries), d=st.tuples(entries, entries, entries),
       thetas=st.tuples(*[st.floats(min_value=-THETA_MAX, max_value=THETA_MAX)] * 3),
       ks=st.tuples(*[st.sampled_from(list(KleinIndex))] * 3))
@example(D=(math.nan, 1.0, 2.0), d=(1.0, math.inf, math.nan),
         thetas=(0.0, 0.0, 0.0), ks=(KleinIndex.P1,) * 3)
@example(D=(math.inf, -math.inf, math.nan), d=(-0.0, 0.0, 1.0),
         thetas=(300.0, -300.0, 1.0), ks=(KleinIndex.H, KleinIndex.M1, KleinIndex.MH))
def test_law_of_cosines_check_matches_the_max_form(D, d, thetas, ks):
    # a real triangle whose cached elements are patched to hold any doubles,
    # NaN and inf among them; the law reads only the patched record
    tri = Triangle(PointP(0.0, 0.0), PointP(5.0, 0.0), PointP(5.0, 3.0))
    angles = tuple(ExtendedAngle(t, k) for t, k in zip(thetas, ks))
    _set_elements(tri, TriangleElements(D, d, angles, 7.5))
    c = tuple(cosh_e(a) for a in angles)
    got = tri.law_of_cosines_check()
    want = old_law_of_cosines_check(D, d, c)
    assert bits(*got[0], *got[1]) == bits(*want[0], *want[1])
