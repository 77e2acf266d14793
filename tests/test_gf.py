"""Exhaustive checks of the finite field layer on the fields used downstream."""

import time
import tracemalloc

import numpy as np
import pytest

from radchar.falinalg import SymmetryClass, mirror_codes
from radchar.gf import (
    MAX_FIELD_ORDER,
    BudgetExceeded,
    FieldCtx,
    field_create,
    field_for_order,
    frobenius,
    norm,
    odd_prime_power,
    quadratic_extension,
    relative_trace,
)
from radchar.params import _iroot, _is_prime


def small_fields():
    F3 = field_create(3)
    F5 = field_create(5)
    F7 = field_create(7)
    F9 = field_create(3, 2)
    return [F3, F5, F7, F9]


def test_field_axioms_exhaustive_small():
    # every triple, for all fields of order at most 9
    for F in small_fields():
        els = list(F.elements())
        zero, one = F.zero(), F.one()
        for a in els:
            assert a + zero == a and a * one == a
            assert a + (-a) == zero
            if a != zero:
                assert a * a.inverse() == one
        for a in els:
            for b in els:
                assert a + b == b + a and a * b == b * a
                assert a - b == a + (-b)
                for c in els:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


def test_prime_field_division():
    F3 = field_create(3)
    assert F3.elem(1) / F3.elem(2) == F3.elem(2)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        F3.one() / F3.zero()


def test_f9_construction():
    F9 = field_create(3, 2)
    assert F9.q == 9 and F9.p == 3
    assert F9.base is not None and F9.base.q == 3
    # 2 is the least nonresidue mod 3, so t^2 = 2
    assert F9.nonresidue_code == 2
    t = F9.gen()
    assert t * t == F9.elem(2)


def test_frobenius_f9():
    F9 = field_create(3, 2)
    t = F9.gen()
    assert frobenius(t) == -t
    assert relative_trace(t) == F9.base.zero()
    assert relative_trace(F9.one() + t) == F9.base.elem(2)


def test_frobenius_involution_and_fixed_field():
    F3 = field_create(3)
    F9 = quadratic_extension(F3)
    F25 = field_create(5, 2)
    F81 = quadratic_extension(F9)
    for F in (F9, F25, F81):
        Q = F.base.q
        fixed = 0
        for a in F.elements():
            assert frobenius(frobenius(a)) == a
            if frobenius(a) == a:
                fixed += 1
                assert a.code < Q  # fixed points are exactly the embedded base
        assert fixed == Q


def test_frobenius_is_field_automorphism():
    F9 = field_create(3, 2)
    els = list(F9.elements())
    for a in els:
        for b in els:
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_trace_zero_line():
    for F in (field_create(3, 2), field_create(5, 2)):
        Q = F.base.q
        # the trace-zero line: the codes the skew-Hermitian mirror x -> -x^Q fixes
        mirror = mirror_codes(F, SymmetryClass.SKEW_HERMITIAN)
        zero_line = [F.elem(int(c)) for c in np.flatnonzero(mirror == np.arange(F.q))]
        assert len(zero_line) == Q
        assert all(relative_trace(a) == F.base.zero() for a in zero_line)
        # and nothing else has zero trace
        assert sum(1 for a in F.elements() if relative_trace(a) == F.base.zero()) == Q
        t = F.gen()
        assert set(zero_line) == {b * t for b in [F.elem(i) for i in range(Q)]}


def test_norm_surjective_onto_base_units():
    for F in (field_create(3, 2), field_create(5, 2)):
        Q = F.base.q
        images = {norm(a).code for a in F.elements() if a.code != 0}
        assert images == set(range(1, Q))
        # each unit value is hit exactly Q+1 times
        hits = [norm(a).code for a in F.elements() if a.code != 0]
        assert all(hits.count(v) == Q + 1 for v in range(1, Q))


def test_tower_f81():
    F9 = field_create(3, 2)
    F81 = quadratic_extension(F9)
    assert F81.q == 81 and F81.base is F9 and F81.p == 3
    u = F81.gen()
    s = F81.nonresidue_code
    assert u * u == F81.elem(s)
    # relative trace of the tower lands in F9
    assert relative_trace(u).field == F9


def test_base_embedding_preserves_codes():
    F3 = field_create(3)
    F9 = quadratic_extension(F3)
    for a in F3.elements():
        lifted = F9.elem(a.code)
        assert frobenius(lifted) == lifted
        b = F3.elem((a.code * 2) % 3)
        assert (lifted * F9.elem(b.code)).code == (a * b).code


def test_construction_errors():
    with pytest.raises(ValueError, match="odd prime required"):
        field_create(2)
    with pytest.raises(ValueError, match="odd prime required"):
        field_create(4)
    with pytest.raises(ValueError, match="odd prime required"):
        field_create(9)
    with pytest.raises(ValueError, match="unsupported extension degree"):
        field_create(3, 3)
    with pytest.raises(ValueError, match="no conjugation defined"):
        frobenius(field_create(3).one())
    with pytest.raises(ValueError, match="no conjugation defined"):
        relative_trace(field_create(5).one())


def test_field_for_order():
    assert field_for_order(3).q == 3
    assert field_for_order(9).q == 9
    assert field_for_order(25).q == 25
    with pytest.raises(ValueError, match="odd prime power required"):
        field_for_order(2)
    with pytest.raises(ValueError, match="odd prime power required"):
        field_for_order(15)
    with pytest.raises(ValueError):
        field_for_order(27)


def test_value_semantics_without_registry():
    A = field_create(3, 2)
    B = field_create(3, 2)
    assert A is not B and A == B
    assert A.elem(5) == B.elem(5)
    assert (A.elem(5) + B.elem(7)).code == (A.elem(5) + A.elem(7)).code
    assert A.elem(1) != field_create(5).elem(1)


def test_element_misc():
    F9 = field_create(3, 2)
    t = F9.gen()
    assert (t ** 8) == F9.one()
    assert (t ** -1) * t == F9.one()
    a0, a1 = (F9.one() + t).coords()
    assert (a0.code, a1.code) == (1, 1)
    assert repr(F9.elem(4)) == "1+t"
    assert repr(F9.elem(6)) == "2*t"
    assert repr(F9.elem(2)) == "2"


def test_odd_prime_power():
    assert [odd_prime_power(q) for q in (3, 9, 27, 25, 1021, 3 ** 20)] == [
        (3, 1), (3, 2), (3, 3), (5, 2), (1021, 1), (3, 20)
    ]
    for q in (-3, 0, 1, 2, 4, 15, 45, 1023, 3.0, "9", None):
        assert odd_prime_power(q) is None, q
    # large q: exact roots and Miller-Rabin, no trial division up to sqrt(q)
    assert odd_prime_power(10 ** 18 + 3) == (10 ** 18 + 3, 1)
    assert odd_prime_power((10 ** 9 + 7) ** 2) == (10 ** 9 + 7, 2)
    assert odd_prime_power(3 ** 41) == (3, 41)
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime up to 37
    assert odd_prime_power(3215031751) is None
    assert odd_prime_power(318665857834031151167461) is None


def test_field_order_cap_refuses_before_allocating():
    # F_1031 tables take about 10 MB and F_(37^2) ones about 25 MB
    assert MAX_FIELD_ORDER == 1024
    assert field_create(1021).q == 1021
    base = field_create(37)
    for build in (lambda: field_create(1031), lambda: quadratic_extension(base), lambda: field_for_order(37 ** 2)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="exceeds the cap 1024"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
    assert issubclass(BudgetExceeded, ValueError)


def test_odd_prime_power_agrees_with_a_sieve():
    limit = 5000
    prime = [True] * limit
    prime[0] = prime[1] = False
    for i in range(2, limit):
        if prime[i]:
            prime[i * i :: i] = [False] * len(prime[i * i :: i])
    expected = {}
    for p in range(3, limit):
        power, m = p, 1
        while prime[p] and power < limit:
            expected[power] = (p, m)
            power, m = power * p, m + 1
    assert all(odd_prime_power(q) == expected.get(q) for q in range(limit))


def test_odd_prime_power_refuses_what_it_cannot_decide():
    # 10^30 + 3 has no prime factor up to 41 and lies above the range
    # where Miller-Rabin with those bases is proven
    with pytest.raises(BudgetExceeded, match="cannot decide whether"):
        odd_prime_power(10 ** 30 + 3)


def test_odd_prime_power_is_quick_on_huge_q():
    # prime exponents alone, each root from its float estimate; trying every
    # exponent from the top took 34 s (2 Xeon vCPUs) on 3^9000 + 2, which is
    # no perfect power and too large for Miller-Rabin to decide
    start = time.perf_counter()
    assert odd_prime_power(3 ** 9000) == (3, 9000)
    assert time.perf_counter() - start < 2.0
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=f"cannot decide whether {3 ** 9000 + 2} is prime"):
        odd_prime_power(3 ** 9000 + 2)
    assert time.perf_counter() - start < 2.0


def _decided(q):
    """odd_prime_power's answer on a q that is no perfect power: q itself if prime; its refusal if undecided."""
    try:
        return (q, 1) if _is_prime(q) else None
    except BudgetExceeded as refused:
        return str(refused)


def test_odd_prime_power_on_powers_of_small_primes_and_their_neighbours():
    # the answers of the scan over every exponent, largest first, which
    # odd_prime_power made before it tried prime exponents alone
    primes = [p for p in range(3, 200) if all(p % k for k in range(2, p))]
    perfect = {(5, 2): (3, 3), (7, 1): (3, 2), (23, 1): (5, 2), (47, 1): (7, 2), (79, 1): (3, 4), (167, 1): (13, 2)}
    for p in primes:
        for m in range(1, 60):
            assert odd_prime_power(p ** m) == (p, m)
            try:
                got = odd_prime_power(p ** m + 2)
            except BudgetExceeded as refused:
                got = str(refused)
            # p^m + 2 is a perfect power at these (p, m) alone
            assert got == perfect.get((p, m), _decided(p ** m + 2))
            for r in (p ** m + 2, p ** m - 2):
                for ell in range(1, r.bit_length() + 1, 7):
                    root = _iroot(r, ell)
                    assert root ** ell <= r < (root + 1) ** ell


def test_a_power_of_a_composite_is_no_prime_power():
    # 2021 = 43 * 47 has no factor that Miller-Rabin's bases divide; the scan
    # refused 2021^8, testing 2021^8 itself once 2021 had failed
    assert odd_prime_power(2021 ** 8) is None
    assert odd_prime_power(9073 ** 14) is None
    assert all(odd_prime_power((3 * p) ** m) is None for p in (5, 7, 197) for m in range(1, 30))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: FieldCtx(3, None), TypeError, "use field_create or quadratic_extension"),
        (lambda: field_create(3).elem(3), ValueError, "element code out of range"),
        (lambda: field_create(3).gen(), ValueError, "prime field has no adjoined generator"),
        (lambda: field_create(3).one() + field_create(5).one(), ValueError, "elements of different fields"),
        (lambda: field_create(3).zero() ** -1, ZeroDivisionError, "zero divisor"),
        (lambda: field_create(3).zero().inverse(), ZeroDivisionError, "zero divisor"),
        (lambda: field_create(3).one().coords(), ValueError, "prime field element has no base coordinates"),
        (lambda: norm(field_create(3).one()), ValueError, "no conjugation defined"),
    ],
)
def test_field_layer_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
