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
    odd_prime_power,
    quadratic_extension,
)
from radchar.params import _iroot, _is_prime

F9 = field_create(3, 2)
# every quadratic extension the oracles build: F_9, F_25, F_49 and F_121,
# and the tower F_81 over F_9 that type U uses at q = 9
EXTENSIONS = [F9, field_create(5, 2), field_create(7, 2), field_for_order(121), quadratic_extension(F9)]
FIELDS = [field_create(3), field_create(5), field_create(7), *EXTENSIONS]


def test_field_axioms_exhaustive_small():
    # every pair and triple of codes at once, by broadcasting over the tables
    for F in FIELDS:
        ADD, SUB, MUL, NEG, INV = F._add, F._sub, F._mul, F._neg, F._inv
        v = np.arange(F.q)
        a, b, c = v[:, None, None], v[None, :, None], v[None, None, :]
        assert (ADD[v, 0] == v).all() and (MUL[v, 1] == v).all()
        assert (ADD[v, NEG] == 0).all() and (SUB == ADD[:, NEG]).all()
        assert (MUL[v[1:], INV[1:]] == 1).all()
        assert (ADD == ADD.T).all() and (MUL == MUL.T).all()
        assert (ADD[ADD[a, b], c] == ADD[a, ADD[b, c]]).all()
        assert (MUL[MUL[a, b], c] == MUL[a, MUL[b, c]]).all()
        assert (MUL[a, ADD[b, c]] == ADD[MUL[a, b], MUL[a, c]]).all()


def test_prime_field_division():
    F3 = field_create(3)
    assert F3._mul[1, F3._inv[2]] == 2
    # 0 has no inverse; its entry is 0, so ranks scales a zero row to zero
    assert F3._inv[0] == 0


def test_f9_construction():
    assert F9.q == 9 and F9.p == 3
    assert F9.base is not None and F9.base.q == 3
    # 2 is the least nonresidue mod 3, so t^2 = 2; t's code is base.q
    assert F9.nonresidue_code == 2
    t = F9.base.q
    assert F9._mul[t, t] == 2


def test_frobenius_f9():
    t, ADD, FROB = F9.base.q, F9._add, F9._frob
    assert FROB[t] == F9._neg[t]
    # the relative traces x + x^Q of t and 1 + t
    assert ADD[t, FROB[t]] == 0
    assert ADD[ADD[1, t], FROB[ADD[1, t]]] == 2


def test_frobenius_involution_and_fixed_field():
    for F in EXTENSIONS:
        v = np.arange(F.q)
        assert (F._frob[F._frob] == v).all()
        # the fixed points are exactly the embedded base
        assert np.flatnonzero(F._frob == v).tolist() == list(range(F.base.q))


def test_frobenius_is_field_automorphism():
    for F in EXTENSIONS:
        FROB = F._frob
        for table in (F._add, F._mul):
            assert (FROB[table] == table[FROB[:, None], FROB[None, :]]).all()


def test_trace_zero_line():
    for F in EXTENSIONS:
        Q, v = F.base.q, np.arange(F.q)
        trace = F._add[v, F._frob]
        assert trace.max() < Q
        # the trace-zero line: the codes the skew-Hermitian mirror x -> -x^Q fixes, and nothing else
        mirror = mirror_codes(F, SymmetryClass.SKEW_HERMITIAN)
        zero_line = np.flatnonzero(mirror == v)
        assert len(zero_line) == Q
        assert np.array_equal(zero_line, np.flatnonzero(trace == 0))
        # the base multiples of t, whose code is Q
        assert set(zero_line.tolist()) == set(F._mul[np.arange(Q), Q].tolist())


def test_norm_surjective_onto_base_units():
    for F in EXTENSIONS:
        Q = F.base.q
        # the norms x * x^Q of the units: each base unit exactly Q + 1 times
        norms = F._mul[np.arange(1, F.q), F._frob[1:]]
        assert np.bincount(norms).tolist() == [0] + [Q + 1] * (Q - 1)


def test_tower_f81():
    F81 = quadratic_extension(F9)
    assert F81.q == 81 and F81.base is F9 and F81.p == 3
    u = F9.q
    assert F81._mul[u, u] == F81.nonresidue_code
    assert F81._frob[u] == F81._neg[u]


def test_base_embedding_preserves_codes():
    # the base codes keep their tables in the extension
    for F in EXTENSIONS:
        Q, base = F.base.q, F.base
        for name in ("_add", "_sub", "_mul"):
            assert np.array_equal(getattr(F, name)[:Q, :Q], getattr(base, name))
        assert np.array_equal(F._neg[:Q], base._neg) and np.array_equal(F._inv[:Q], base._inv)


def test_construction_errors():
    with pytest.raises(ValueError, match="odd prime required"):
        field_create(2)
    with pytest.raises(ValueError, match="odd prime required"):
        field_create(4)
    with pytest.raises(ValueError, match="odd prime required"):
        field_create(9)
    with pytest.raises(ValueError, match="unsupported extension degree"):
        field_create(3, 3)
    # a prime field has no conjugation table
    assert field_create(5)._frob is None


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
    assert A is not B and A == B and hash(A) == hash(B)
    for name in ("_add", "_sub", "_mul", "_neg", "_inv", "_frob"):
        assert np.array_equal(getattr(A, name), getattr(B, name))
    assert A != field_create(5, 2) and A.base != field_create(5)


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
        (lambda: mirror_codes(field_create(3), SymmetryClass.SKEW_HERMITIAN), ValueError, "no conjugation defined"),
    ],
)
def test_field_layer_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
