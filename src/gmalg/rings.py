"""Exact coefficient rings: Z/nZ with canonical residues, and Q.

Scalars are plain Python values (int residues in [0, n) for Z/nZ; over Q
an int when integral, else a reduced ``fractions.Fraction``), so equality
is representational equality and everything hashes.  Arithmetic is
Python's + and *; a ring object coerces scalars on entry, brings a result
back to normal form (``normal``), inverts (``inv_opt``) and scales rows to
integers (``integral``).
"""

import math
import re
from fractions import Fraction

from .errors import InputError, NotEnumerable

_INT = re.compile(r"-?[0-9]+")
_RATIO = re.compile(r"-?[0-9]+/[0-9]+")


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases _SMALL_PRIMES is exact below this bound
# (Sorenson and Webster, 2015)
MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n):
    """Whether n is prime, decided exactly.

    Trial division by the primes up to 41 settles every n < 43^2.  Beyond
    that, Miller-Rabin to those 13 bases: a base that witnesses n proves n
    composite at any size, and below ``MR_EXACT_BELOW`` no composite passes
    all 13.  A larger n that passes them all is not certified but refused."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_EXACT_BELOW:
        raise InputError(
            f"cannot decide whether {n} is prime: it passes Miller-Rabin to "
            f"the bases up to 41, which is proven exact only below "
            f"{MR_EXACT_BELOW}"
        )
    return True


class Zmod:
    """The ring Z/nZ, n >= 2.  Composite moduli are supported."""

    kind = "Zmod"
    enumerable = True

    def __init__(self, n):
        if type(n) is not int:
            raise InputError(f"Zmod modulus must be an int, got {n!r}")
        if n < 2:
            raise InputError(f"Zmod modulus must be >= 2, got {n}")
        self.n = n
        self.is_field = _is_prime(n)
        self.zero = 0
        self.one = 1 % n

    def coerce(self, v):
        if type(v) is int:
            return v % self.n
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise InputError(f"cannot coerce {v} into Z/{self.n}")
            v = v.numerator
        elif isinstance(v, float):
            raise InputError(f"floating point is not accepted as a scalar of Z/{self.n}")
        return int(v) % self.n

    def normal(self, v):
        """The scalar of an int computed from scalars by + and *."""
        return v % self.n

    def inv_opt(self, x):
        """Multiplicative inverse, or None when x is not a unit."""
        try:
            return pow(x % self.n, -1, self.n)
        except ValueError:
            return None

    def integral(self, rows):
        """(D, D*rows) for the least D >= 1 that makes every entry an int:
        here every residue is one, so ``rows`` itself with D = 1."""
        return 1, rows

    def scalars(self):
        """All ring elements, ascending.  Deterministic."""
        return range(self.n)

    @property
    def size(self):
        return self.n

    def is_two_torsion_free(self):
        # 2x = 0 with x != 0 happens exactly when n is even (x = n/2).
        return self.n % 2 == 1

    def __eq__(self, other):
        return isinstance(other, Zmod) and other.n == self.n

    def __hash__(self):
        return hash(("Zmod", self.n))

    def __repr__(self):
        return f"Zmod({self.n})"

    def to_json(self):
        return {"kind": "Zmod", "n": self.n}


def _canonical(v):
    """The canonical form of a Fraction: an int when it is integral, else
    the Fraction itself."""
    return v.numerator if v.denominator == 1 else v


class Rationals:
    """The field Q.  A scalar is an int when it is integral and a reduced
    Fraction (denominator > 1) otherwise, and ``normal`` returns that form:
    on integral data all arithmetic is int arithmetic, much cheaper than
    Fraction arithmetic, and ints compare and hash as the equal Fractions.
    Division is ``inv_opt``, never ``/``, which would make a float of two
    ints."""

    kind = "Q"
    enumerable = False
    is_field = True
    zero = 0
    one = 1

    def coerce(self, v):
        if type(v) is int:
            return v
        if type(v) is Fraction:
            return _canonical(v)
        if isinstance(v, float):
            raise InputError("floating point is not accepted as a rational scalar")
        return _canonical(Fraction(v))

    def normal(self, v):
        """A value computed from scalars by + and *, in canonical form."""
        return v if type(v) is int else _canonical(v)

    def inv_opt(self, x):
        if not x:
            return None
        if type(x) is int:
            return x if x in (1, -1) else Fraction(1, x)
        return _canonical(Fraction(x.denominator, x.numerator))

    def integral(self, rows):
        """(D, D*rows) for the least D >= 1 that makes every entry an int:
        the lcm of the denominators, each entry scaled exactly as
        numerator * (D // denominator).  ``rows`` itself when D = 1."""
        D = math.lcm(*{c.denominator for row in rows for c in row if type(c) is not int})
        if D == 1:
            return 1, rows
        return D, tuple(tuple(c * D if type(c) is int else c.numerator * (D // c.denominator)
                              for c in row) for row in rows)

    def scalars(self):
        raise NotEnumerable("the rationals cannot be enumerated")

    @property
    def size(self):
        return None

    def is_two_torsion_free(self):
        return True

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"

    def to_json(self):
        return {"kind": "Q"}


def parse_ring(obj):
    """Parse {"kind": "Zmod", "n": 3} or {"kind": "Q"}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError(f"bad ring spec: {obj!r}")
    kind = obj["kind"]
    if kind == "Zmod":
        if "n" not in obj:
            raise InputError("Zmod ring spec needs a modulus 'n'")
        return Zmod(obj["n"])
    if kind == "Q":
        return Rationals()
    raise InputError(f"unknown ring kind {kind!r}")


def _flag_int(digits, what):
    """The int written as ``digits`` in a command-line flag.  More digits
    than int() converts are refused with ``InputError``, as they are in a
    document."""
    try:
        return int(digits)
    except ValueError as exc:
        raise InputError(f"cannot read {what}: {exc}") from None


def parse_ring_flag(text):
    """Parse CLI shorthand like 'zmod:3' or 'q'."""
    t = text.strip().lower()
    if t in ("q", "rationals"):
        return Rationals()
    if t.startswith("zmod:") and _INT.fullmatch(t[5:]):
        return Zmod(_flag_int(t[5:], "a command-line modulus"))
    raise InputError(f"cannot parse ring {text!r} (expected 'zmod:N' or 'q')")


def scalar_to_json(ring, x):
    if type(x) is int:
        return x
    return f"{x.numerator}/{x.denominator}"


def scalar_from_json(ring, v):
    """The scalar that ``scalar_to_json`` writes as ``v``: an int, or over Q
    also a "p/q" string.  Anything else is refused, not converted."""
    if type(v) is int:
        return ring.coerce(v)
    if ring.kind == "Q" and isinstance(v, str) and _RATIO.fullmatch(v):
        try:
            num, den = map(int, v.split("/"))
        except ValueError:      # more digits than int() converts: refused
            den = 0
        if den:
            return _canonical(Fraction(num, den))
    raise InputError(f"not a scalar of {ring!r}: {v!r}")


def parse_scalar_flag(ring, text):
    """A scalar written on the command line: an int, or over Q "p/q"."""
    t = text.strip()
    if _INT.fullmatch(t):
        t = _flag_int(t, "a command-line scalar")
    return scalar_from_json(ring, t)
