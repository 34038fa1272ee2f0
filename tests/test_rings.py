from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gmalg import cli
from gmalg.errors import InputError, NotEnumerable
from gmalg.rings import (
    MR_EXACT_BELOW,
    Rationals,
    Zmod,
    _is_prime,
    parse_ring,
    parse_ring_flag,
    scalar_from_json,
    scalar_to_json,
)


def test_zmod_basic_arithmetic():
    R = Zmod(3)
    assert R.normal(2 + 2) == 1
    assert R.normal(2 * 2) == 1
    assert R.normal(0 - 1) == 2
    assert R.normal(-1) == 2


def test_zmod_inverse():
    assert Zmod(4).inv_opt(2) is None
    assert Zmod(4).inv_opt(3) == 3
    assert Zmod(7).inv_opt(3) == 5


def test_zmod_scalars_deterministic():
    assert list(Zmod(5).scalars()) == [0, 1, 2, 3, 4]
    assert list(Zmod(2).scalars()) == [0, 1]


def test_zmod_field_detection():
    assert Zmod(3).is_field
    assert Zmod(7).is_field
    assert not Zmod(4).is_field
    assert not Zmod(6).is_field


def test_zmod_rejects_small_modulus():
    with pytest.raises(InputError):
        Zmod(1)


def test_two_torsion():
    assert Zmod(3).is_two_torsion_free()
    assert not Zmod(4).is_two_torsion_free()
    assert Rationals().is_two_torsion_free()


def test_rationals_arithmetic():
    Q = Rationals()
    assert Q.inv_opt(Fraction(3, 2)) == Fraction(2, 3)
    assert Q.inv_opt(Fraction(0)) is None
    with pytest.raises(NotEnumerable):
        Q.scalars()
    with pytest.raises(InputError):
        Q.coerce(0.5)


def test_parse_ring():
    assert parse_ring({"kind": "Zmod", "n": 3}) == Zmod(3)
    assert parse_ring({"kind": "Q"}) == Rationals()
    with pytest.raises(InputError):
        parse_ring({"kind": "Zp"})


def test_parse_ring_flag():
    assert parse_ring_flag("zmod:5") == Zmod(5)
    assert parse_ring_flag("q") == Rationals()
    with pytest.raises(InputError):
        parse_ring_flag("gf:9")


def test_scalar_json_round_trip():
    Q = Rationals()
    x = Fraction(-7, 3)
    assert scalar_from_json(Q, scalar_to_json(Q, x)) == x
    R = Zmod(5)
    assert scalar_from_json(R, scalar_to_json(R, 3)) == 3


@given(st.integers(2, 30), st.integers(), st.integers(), st.integers())
def test_zmod_ring_axioms(n, a, b, c):
    R = Zmod(n)
    x, y, z = R.coerce(a), R.coerce(b), R.coerce(c)
    assert R.normal(x + y) == R.normal(y + x)
    assert R.normal(x * y) == R.normal(y * x)
    assert R.normal(R.normal(x * y) * z) == R.normal(x * R.normal(y * z))
    assert R.normal(x * R.normal(y + z)) == R.normal(R.normal(x * y) + R.normal(x * z))
    assert R.normal(x + R.normal(-x)) == R.zero
    assert R.normal(x * R.one) == x


@given(st.integers(2, 30), st.integers())
def test_zmod_inverse_really_inverts(n, a):
    R = Zmod(n)
    x = R.coerce(a)
    inv = R.inv_opt(x)
    if inv is not None:
        assert R.normal(x * inv) == R.one


def test_odd_modulus_two_torsion_exhaustive():
    R = Zmod(9)
    for x in R.scalars():
        if R.normal(x + x) == R.zero:
            assert x == R.zero


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_agrees_with_trial_division():
    assert [n for n in range(100001) if _is_prime(n)] == \
        [n for n in range(100001) if _trial_division(n)]


def test_primality_on_pseudoprimes_and_large_moduli():
    assert not _is_prime(561)                  # Carmichael
    assert not _is_prime(3215031751)           # strong pseudoprime to 2, 3, 5, 7
    assert _is_prime(2**61 - 1)
    assert Zmod(100000000000031).is_field
    # above the proven bound a Miller-Rabin witness still proves compositeness
    assert MR_EXACT_BELOW < (2**61 - 1) * (2**89 - 1)
    assert not Zmod((2**61 - 1) * (2**89 - 1)).is_field
    assert not Zmod(10**30).is_field


def test_unproven_primality_is_refused(capsys):
    # the smallest strong pseudoprime to the 13 bases, and a prime above it
    for n in (MR_EXACT_BELOW, 2**89 - 1):
        with pytest.raises(InputError, match="cannot decide"):
            Zmod(n)
    assert cli.main(["family", "--kind", "full", "--n", "2",
                     "--ring", f"zmod:{2**89 - 1}"]) == 3
    assert capsys.readouterr().out == ""
