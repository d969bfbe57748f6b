import json
from itertools import zip_longest
from math import comb, factorial

import pytest
from hypothesis import example, given, strategies as st

from compstats.compositions import compositions_of
from compstats.errors import LIMITS, CapVarMismatch, InexactDivision
from compstats.polynomial import (
    VARIABLES,
    Poly,
    Series,
    divexact,
    monomial_exponents,
    monomial_key,
    p,
    q,
    t,
    v,
)
from compstats.qanalog import q_quotient
from compstats.tables import SLOT_BITS, pack, unpack


@st.composite
def small_polys(draw, variables=("p", "q")):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        key = monomial_key({var: draw(st.integers(0, 4)) for var in variables})
        terms[key] = draw(st.integers(-5, 5))
    return Poly(terms)


def test_zero_terms_are_dropped():
    assert Poly({monomial_key({"p": 1}): 0}) == Poly.zero()
    assert not Poly.zero()
    assert (1 + p * q) + (-1) == p * q


def test_a_constant_hashes_as_the_int_it_equals():
    for value in (3, 0, -7):
        assert Poly.constant(value) == value
        assert hash(Poly.constant(value)) == hash(value)
        assert len({Poly.constant(value), value}) == 1
    assert hash(Poly.zero()) == hash(0)
    assert len({Poly.zero(), 0}) == 1
    assert {p * q: 1}[q * p] == 1


def test_addition_identity_and_cancellation():
    x = 1 + 2 * p + q
    assert x + Poly.zero() == x
    assert x - x == Poly.zero()


def test_addition_coefficientwise():
    # oracle: add coefficients of equal monomials directly
    a = (p + p ** 2) * q
    assert a + a == 2 * p * q + 2 * p ** 2 * q


def test_multiplication_examples():
    assert (1 + q) * (1 - q) == 1 - q ** 2
    x = 3 * p * q ** 2 + 7
    assert x * Poly.one() == x
    assert (1 + p * q) * (1 + p * q) == 1 + 2 * p * q + p ** 2 * q ** 2


@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_pow_matches_repeated_multiplication():
    base = 1 - q
    power = Poly.one()
    for exponent in range(6):
        assert base ** exponent == power
        power = power * base


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # one multiply per set bit and one squaring per further bit
    base = 1 + q
    calls = []
    multiply = Poly.__mul__

    def counting(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(Poly, "__mul__", counting)
    for e in range(10):
        calls.clear()
        power = base ** e
        assert len(calls) == (bin(e).count("1") + e.bit_length() - 1 if e else 0)
        assert power == Poly({(0, i, 0, 0, 0): comb(e, i) for i in range(e + 1)})


def test_coeff_lookup():
    x = 1 + p * q
    assert x.coeff(p=1, q=1) == 1
    assert x.coeff(p=1) == 0
    assert x.coeff() == 1


def test_eval_at_one():
    assert (1 + p * q).eval_at_one("p") == 1 + q
    assert (p ** 2 * q + p * q).eval_at_one("p") == 2 * q


def test_rename_swap_and_collision():
    x = p ** 2 * q
    assert x.rename({"p": "t"}) == t ** 2 * q
    assert x.rename({"p": "q", "q": "p"}) == q ** 2 * p
    with pytest.raises(ValueError):
        x.rename({"p": "q"})


def test_rename_never_merges_two_occurring_variables():
    for x in (p + q, p - q, p * q):
        with pytest.raises(ValueError, match="rename sends both 'p' and 'q' to 't'"):
            x.rename({"p": "t", "q": "t"})
    assert (p ** 2 * q).rename({"p": "q", "q": "p"}) == p * q ** 2
    # a variable that does not occur may be sent anywhere
    assert (p * q).rename({"u": "p"}) == p * q
    assert (p * q).rename({"p": "t", "u": "t"}) == t * q


def test_unknown_variable_names_raise_value_error():
    x = 1 + p * q
    calls = [
        lambda: x.degree("x"),
        lambda: x.eval_at_one("x"),
        lambda: x.truncate({"x": 1}),
        lambda: x.rename({"x": "p"}),
        lambda: x.rename({"p": "x"}),
        lambda: Poly.zero().degree("x"),
        lambda: Series(x, "x", 2),
        lambda: divexact(q, q, "x"),
        lambda: divexact(p * q, q, "x"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown variable 'x'"):
            call()


def test_truncate():
    x = 1 + p + p ** 2 * q + p ** 3
    assert x.truncate({"p": 2}) == 1 + p + p ** 2 * q
    assert x.truncate({"p": 2, "q": 0}) == 1 + p


def test_degree():
    assert (1 + p ** 3 * q).degree("p") == 3
    assert (1 + p ** 3 * q).degree("t") == 0
    assert Poly.zero().degree("p") == -1


def test_str_rendering():
    assert str(Poly.zero()) == "0"
    assert str(1 + p * q) == "1 + p q"
    assert str(1 - q - q ** 2 + q ** 3) == "1 - q - q^2 + q^3"
    assert str(-2 * p ** 2) == "-2 p^2"


def test_terms_in_graded_lex_order():
    x = p ** 2 + q ** 3 + p * q + 1
    degrees = [sum(key) for key, _ in x.terms()]
    assert degrees == sorted(degrees)


def _from_json_obj(data):
    # the reader of to_json_obj: one term per item, exponents by variable name
    return Poly({monomial_key(item["exponents"]): int(item["coefficient"]) for item in data})


def test_json_round_trip():
    x = 1 + 2 * p * q - 3 * q ** 4
    data = json.loads(json.dumps(x.to_json_obj()))
    assert _from_json_obj(data) == x
    assert data[0] == {"exponents": {}, "coefficient": "1"}


@given(small_polys(VARIABLES))
@example(Poly.zero())
@example(-3 * p * v ** 2 + 5)
def test_json_round_trip_property(x):
    data = json.loads(json.dumps(x.to_json_obj()))
    assert _from_json_obj(data) == x


def test_monomial_key_validation():
    with pytest.raises(ValueError):
        monomial_key({"x": 1})
    with pytest.raises(ValueError):
        monomial_key({"p": -1})
    assert monomial_exponents(monomial_key({"p": 2, "t": 1})) == {"p": 2, "t": 1}


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------

def test_series_truncates_on_construction():
    s = Series(1 + p + p ** 3, "p", 2)
    assert s.body == 1 + p


def test_series_mul_truncates():
    a = Series(1 + p + p ** 2, "p", 2)
    b = Series(1 + p, "p", 2)
    assert (a * b).body == 1 + 2 * p + 2 * p ** 2


def test_series_mul_identity_and_kill():
    x = Series(1 + p + p ** 2 * q, "p", 2)
    assert x * Series.one("p", 5) == Series(x.body, "p", 2)
    zero = Series(p, "p", 1) * Series(p, "p", 1)
    assert zero.body == Poly.zero()


def test_series_cap_var_mismatch():
    with pytest.raises(CapVarMismatch):
        Series.one("p", 3) * Series.one("q", 3)
    with pytest.raises(CapVarMismatch):
        Series.one("p", 3) + Series.one("q", 3)


def test_series_result_cap_is_minimum():
    a = Series(1 + p + p ** 2 + p ** 3, "p", 3)
    b = Series(Poly.one(), "p", 2)
    assert (a * b).cap == 2
    assert (a * b).body == 1 + p + p ** 2


@given(small_polys(), small_polys(), st.integers(0, 6))
def test_series_mul_equals_truncated_poly_mul(a, b, cap):
    product = (Series(a, "p", cap) * Series(b, "p", cap)).body
    assert product == (a * b).truncate({"p": cap})


@given(small_polys(VARIABLES), small_polys(VARIABLES), st.integers(0, 6), st.integers(0, 6),
       st.sampled_from(VARIABLES), st.sampled_from(VARIABLES))
def test_series_truncation_laws(a, b, cap_a, cap_b, var, other_var):
    x, y = Series(a, var, cap_a), Series(b, var, cap_b)
    cut = {var: min(cap_a, cap_b)}
    # a product cut at c needs each factor only up to c
    assert (x * y).body == (a.truncate(cut) * b.truncate(cut)).truncate(cut)
    assert (x + y).body == (a + b).truncate(cut)
    assert (x * y).cap == (x + y).cap == min(cap_a, cap_b)
    if other_var != var:
        with pytest.raises(CapVarMismatch):
            x * Series(b, other_var, cap_b)
        with pytest.raises(CapVarMismatch):
            x + Series(b, other_var, cap_b)


# ---------------------------------------------------------------------------
# divexact
# ---------------------------------------------------------------------------

def test_divexact_basic():
    num = (1 + q) * (1 + q + q ** 2)
    assert divexact(num, 1 + q, "q") == 1 + q + q ** 2
    assert divexact(Poly.zero(), 1 + q, "q") == Poly.zero()


def test_divexact_sign_and_scale():
    num = 2 * (1 - q) * (1 + 3 * q)
    assert divexact(num, Poly.constant(2) * (1 - q), "q") == 1 + 3 * q


def test_divexact_rejects_inexact():
    with pytest.raises(InexactDivision):
        divexact(1 + q ** 2, 1 + q, "q")
    with pytest.raises(InexactDivision):
        divexact(q, q ** 2, "q")


def test_divexact_rejects_multivariate():
    with pytest.raises(ValueError):
        divexact(p * q, q, "q")


# ---------------------------------------------------------------------------
# packed polynomials
# ---------------------------------------------------------------------------

def test_slots_hold_every_count_the_limits_allow():
    # a table entry counts at most 2^(cap-1) compositions, and a coefficient of
    # an S_k polynomial at most k! permutations
    assert LIMITS["table"] < SLOT_BITS
    assert factorial(LIMITS["hk"]) < 2 ** SLOT_BITS


def _descent_weights(cap):
    """The weights W[s][j] of the packed descent kernel for s <= cap, rebuilt on plain integer
    lists: W[s][j] = sum_c W[s-c][j-1] [s, c]_q, with [s, c]_q by the q-Pascal rule.  A table
    at cap reads the kernel of k cut at q^(cap-k), which holds W[s][j] for s <= k, so only the
    coefficients up to q^(cap-s) of W[s][j] are built."""
    gauss, weights = [[1]], [[[1]]]
    for s in range(1, cap + 1):
        size = cap - s + 1
        gauss = [[1]] + [[x + y for x, y in zip_longest(gauss[c - 1][:size],
                                                          ([0] * c + gauss[c])[:size], fillvalue=0)]
                         for c in range(1, s)] + [[1]]
        row = [[]]
        for j in range(1, s + 1):
            acc = [0] * size
            for c in range(1, s - j + 2):
                for i, x in enumerate(weights[s - c][j - 1][:size]):
                    for e, y in enumerate(gauss[c][:size - i], start=i):
                        acc[e] += x * y
            row.append(acc)
        weights.append(row)
    return weights


def test_descent_kernel_weights_fit_a_slot_within_the_table_limit():
    # the final counts are bounded above; the kernel's intermediate weights grow faster
    weights = _descent_weights(51)
    for s in range(1, 8):  # W[s][j] sums the q-multinomials of the j-compositions of s
        for j in range(1, s + 1):
            expected = [0] * (comb(s, 2) + 1)
            for parts in compositions_of(s, j):
                down = [b for m in parts for b in range(1, m + 1)]
                for e, c in enumerate(q_quotient(range(1, s + 1), down)):
                    expected[e] += c
            assert weights[s][j] == (expected + [0] * 51)[:52 - s]

    def largest(cap):
        return max(c for s in range(cap + 1) for w in weights[s] for c in w[:cap - s + 1])

    assert largest(LIMITS["table"]) < 2 ** SLOT_BITS
    assert largest(24).bit_length() == 28
    # the check has teeth: the same weights outgrow a slot at cap 51
    assert largest(50) < 2 ** SLOT_BITS <= largest(51)


def test_pack_unpack_round_trip():
    full = 2 ** SLOT_BITS - 1
    for coefficients in ([], [0, 1], [full], [full, 0, full, 7], [3, full, 0, 0, 1]):
        assert unpack(pack(coefficients)) == coefficients
    assert unpack(pack([0, 0])) == []


def test_packed_signed_terms_cancel():
    # (1 - t)(1 + t) = 1 - t^2, and signed partial sums read back once they cancel
    assert unpack(pack([1, -1]) * pack([1, 1]) + pack([0, 0, 1])) == [1]
    assert unpack(pack([5, -3, 0]) + pack([0, 3, 2])) == [5, 0, 2]
    full = 2 ** SLOT_BITS - 1
    assert unpack(pack([full, -full, full]) + pack([0, full + full, -1])) == [full, full, full - 1]
