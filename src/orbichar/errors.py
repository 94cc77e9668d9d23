"""Exception hierarchy shared across the package.

Errors split into two families: malformed input (``InputError``) and
resource-cap violations (``CapExceeded``).  The command line maps the two
families to distinct exit codes, so nothing here should be raised for an
identity that merely fails to hold -- that is a *result*, not an error.
"""
from __future__ import annotations


class OrbicharError(Exception):
    """Base class for all package errors."""


class InputError(OrbicharError):
    """Malformed or inconsistent input data."""


class CapExceeded(OrbicharError):
    """A configured size/enumeration cap would be exceeded.

    Caps are never silently applied: an operation either completes exactly
    or raises one of these.
    """


# ---------------------------------------------------------------------------
# group tables

class NonAssociative(InputError):
    """Multiplication table is not associative (carries a witness triple)."""


class NoIdentity(InputError):
    """Multiplication table has no two-sided identity."""


class NoInverse(InputError):
    """Some element has no two-sided inverse (carries the element index)."""


class NotBijection(InputError):
    """A purported permutation is not a bijection of its domain."""


class OrderCapExceeded(CapExceeded):
    """Group closure or construction would exceed the order cap."""


# ---------------------------------------------------------------------------
# presentations and homomorphism enumeration

class InvalidWord(InputError):
    """A word references a generator outside the presentation."""


class EnumerationCapExceeded(CapExceeded):
    """Homomorphism enumeration would exceed the candidate cap."""


# ---------------------------------------------------------------------------
# wreath products

class InvalidType(InputError):
    """A type function is inconsistent (bad class index or weight)."""


# ---------------------------------------------------------------------------
# simplicial complexes

class NotRegular(InputError):
    """Operation requires a certified regular equivariant complex."""


class RegularizationFailed(InputError):
    """Barycentric subdivision (twice) failed to produce a regular action.

    Unreachable for a genuinely simplicial action; raised as a guard.
    """


class SizeCapExceeded(CapExceeded):
    """A complex construction would exceed the simplex cap."""


# ---------------------------------------------------------------------------
# formal series

class ExpNonzeroConstant(InputError):
    """exp() of a series whose constant term is nonzero."""


class NonIntegerExponent(InputError):
    """A product formula was given a non-integer exponent."""


# ---------------------------------------------------------------------------
# Hodge data

class AngleOutOfRange(InputError):
    """A rotation angle lies outside the half-open interval (0, 1]."""


class NonIntegerShift(InputError):
    """A degree shift that must be an integer is fractional."""


class NonIntegerExponentOfXY(InputError):
    """An (xy)-power in a product formula is fractional."""

