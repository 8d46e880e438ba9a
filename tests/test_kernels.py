"""The forward-path kernels compare floats where they once called min and max,
and look members up on bool keys where they once hashed a tuple.  Each test
keeps a copy of the builtin form a kernel replaced and checks the kernel
against it bit for bit (``struct`` bytes, so signed zeros and NaNs count), on
the inputs where the two forms could part: NaN, infinities and ties.  Where an
operation meets two NaNs, as in the law of cosines, CPython fixes neither the
payload nor the sign of the result, so that test counts a NaN as a NaN."""
from __future__ import annotations

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoeuclid.angle import THETA_MAX, ExtendedAngle, KleinIndex, _angle_of, cosh_e, from_point
from pseudoeuclid.errors import NullDirection
from pseudoeuclid.geometry import PointP
from pseudoeuclid.hypnum import HyperbolicNumber, angle_between
from pseudoeuclid.tol import is_null_xy, quadratic_form, rescaled
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


def old_angle_of(x1: float, y1: float, x2: float, y2: float) -> ExtendedAngle:
    # the (c, s, u, w) that _angle_of forms, handed to the min form
    u, w = (x2 + y2) * (x1 - y1), (x2 - y2) * (x1 + y1)
    c, s = x1 * x2 - y1 * y2, x1 * y2 - y1 * x2
    if not (all(2.0 ** -900 < abs(v) < 2.0 ** 900 for v in (u, w)) and min(abs(c), abs(s)) > 2.0 ** -900):
        (x1, y1, _), (x2, y2, _) = old_rescaled(x1, y1, 449), old_rescaled(x2, y2, 449)
        u, w = (x2 + y2) * (x1 - y1), (x2 - y2) * (x1 + y1)
        c, s = x1 * x2 - y1 * y2, x1 * y2 - y1 * x2
    return old_from_null_coords(c, s, u, w)


def old_rescaled(x: float, y: float, e: int = 0) -> tuple[float, float, int]:
    s = e - math.frexp(max(abs(x), abs(y)))[1]
    return math.ldexp(x, s), math.ldexp(y, s), s


# the quiet NaN with payload 1, 0x7ff8000000000001
NAN_PAYLOAD_1 = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]


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


def bits_or_nan(*values: float) -> list[bytes | None]:
    # CPython fixes neither the payload nor the sign of an operation on two
    # NaNs (warm and cold bytecode keep different operands'), so a NaN is
    # only a NaN; every other value counts by its bytes, signed zeros included
    return [None if v != v else struct.pack("<d", v) for v in values]


# the images of a first-sector direction (a, b), |b| < a, in the sectors of
# +1, +h, -1 and -h
SECTORS = (
    (lambda a, b: (a, b), KleinIndex.P1),
    (lambda a, b: (b, a), KleinIndex.H),
    (lambda a, b: (-a, -b), KleinIndex.M1),
    (lambda a, b: (-b, -a), KleinIndex.MH),
)
magnitudes = st.floats(min_value=5e-324, max_value=1e300)
CONJUGATE = {KleinIndex.H: KleinIndex.MH, KleinIndex.MH: KleinIndex.H}


@pytest.mark.parametrize("image, k", SECTORS, ids=[k.name for _, k in SECTORS])
@settings(max_examples=300, deadline=None)
@given(a=magnitudes, ratio=st.floats(min_value=-1.0, max_value=1.0),
       first=st.sampled_from(SECTORS), b=magnitudes, ratio1=st.floats(min_value=-1.0, max_value=1.0))
@example(a=1.0, ratio=0.0, first=SECTORS[0], b=1.0, ratio1=0.0)
@example(a=1.0, ratio=-0.0, first=SECTORS[2], b=1.0, ratio1=-0.0)
@example(a=5.0, ratio=0.6, first=SECTORS[1], b=1e300, ratio1=0.5)
def test_angle_of_matches_the_min_form(image, k, a, ratio, first, b, ratio1):
    (first_image, first_k), (x2, y2) = first, image(a, a * ratio)
    x1, y1 = first_image(b, b * ratio1)
    if is_null_xy(x1, y1) or is_null_xy(x2, y2):
        return
    got, want = _angle_of(x1, y1, x2, y2), old_angle_of(x1, y1, x2, y2)
    # v2 * conj(v1): conjugation swaps +h and -h
    assert got.k is want.k is k * CONJUGATE.get(first_k, first_k)
    assert bits(got.theta) == bits(want.theta)


# doubles whose exponents fall on both sides of the band edges 2^+-900 of
# _angle_of and of the edges of the doubles, subnormals and zeros included
mantissas = st.floats(min_value=0.5, max_value=1.0, exclude_max=True)
exponents = st.one_of(st.integers(min_value=-1074, max_value=1024),
                      st.sampled_from([-1074, -1050, -1022, -901, -900, -899, 899, 900, 901, 1023, 1024]))
ratios = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
                   st.floats(min_value=-1.0, max_value=1.0))


@pytest.mark.parametrize("image, k", SECTORS, ids=[k.name for _, k in SECTORS])
@settings(max_examples=300, deadline=None)
@given(m=mantissas, e=exponents, ratio=ratios)
@example(m=0.5, e=1, ratio=-0.0)
@example(m=0.5, e=-1074, ratio=0.0)
@example(m=0.75, e=1024, ratio=0.5)
def test_from_point_is_angle_between_from_plus_one(image, k, m, e, ratio):
    # the same kernel behind both front ends: equal bytes, signed zeros included
    a = math.ldexp(m, e)
    x, y = image(a, a * ratio)
    try:
        want = angle_between(HyperbolicNumber(1.0, 0.0), HyperbolicNumber(x, y))
    except NullDirection:
        with pytest.raises(NullDirection):
            from_point(x, y)
        return
    got = from_point(x, y)
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
@given(x=entries, y=entries, e=st.sampled_from([0, 449]))
@example(x=math.nan, y=1.0, e=0)
@example(x=1.0, y=math.nan, e=0)
@example(x=-0.0, y=0.0, e=0)
@example(x=1e300, y=1e-300, e=449)
def test_rescaled_matches_the_max_form(x, y, e):
    # toward 2^449 a component beside a NaN or an inf overflows in both forms
    def outcome(form):
        try:
            got = form(x, y, e)
        except OverflowError:
            return "OverflowError"
        return bits(*got[:2]), got[2]
    assert outcome(rescaled) == outcome(old_rescaled)


@settings(max_examples=500, deadline=None)
@given(x=entries, y=entries)
@example(x=1e308, y=1e308)
@example(x=-1e308, y=-1e308)
@example(x=1.7e308, y=-1.7e308)
@example(x=math.inf, y=math.inf)
@example(x=math.nan, y=math.nan)
def test_quadratic_form_keeps_every_product_that_is_not_nan(x, y):
    # the product (x - y)(x + y) where it is not NaN, bit for bit; where it is
    # inf * 0 on finite doubles the exact D is 0, and a NaN input stays NaN
    got, product = quadratic_form(x, y), (x - y) * (x + y)
    if product == product:
        assert bits(got) == bits(product)
    elif math.isfinite(x) and math.isfinite(y):
        assert got == 0.0
    else:
        assert math.isnan(got)


@settings(max_examples=500, deadline=None)
@given(D=st.tuples(entries, entries, entries), d=st.tuples(entries, entries, entries),
       thetas=st.tuples(*[st.floats(min_value=-THETA_MAX, max_value=THETA_MAX)] * 3),
       ks=st.tuples(*[st.sampled_from(list(KleinIndex))] * 3))
@example(D=(math.nan, 1.0, 2.0), d=(1.0, math.inf, math.nan),
         thetas=(0.0, 0.0, 0.0), ks=(KleinIndex.P1,) * 3)
@example(D=(math.inf, -math.inf, math.nan), d=(-0.0, 0.0, 1.0),
         thetas=(300.0, -300.0, 1.0), ks=(KleinIndex.H, KleinIndex.M1, KleinIndex.MH))
@example(D=(-5.713998478090011e+16, -5039812435582682.0, -5.422627517033898e+16),
         d=(NAN_PAYLOAD_1, -math.nan, math.inf), thetas=(1.1, 299.1179880148793, 1e-05),
         ks=(KleinIndex.M1, KleinIndex.P1, KleinIndex.M1))
def test_law_of_cosines_check_matches_the_max_form(D, d, thetas, ks):
    # a real triangle whose cached elements are patched to hold any doubles,
    # NaN and inf among them; the law reads only the patched record
    tri = Triangle(PointP(0.0, 0.0), PointP(5.0, 0.0), PointP(5.0, 3.0))
    angles = tuple(ExtendedAngle(t, k) for t, k in zip(thetas, ks))
    _set_elements(tri, TriangleElements(D, d, angles, 7.5))
    c = tuple(cosh_e(a) for a in angles)
    got = tri.law_of_cosines_check()
    want = old_law_of_cosines_check(D, d, c)
    assert bits_or_nan(*got[0], *got[1]) == bits_or_nan(*want[0], *want[1])
