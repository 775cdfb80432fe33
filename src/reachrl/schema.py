"""The one checker of every value read: config fields and workspace files.

A field is declared once, as ``(name, kind, domain)``.  ``kind`` is int,
float, str or dict, or a numpy dtype for an array of numbers; ``domain`` is
an interval such as "[1, inf)" (none is closed at infinity, so "(-inf, inf)"
means finite), a tuple of the allowed values, or None for any.  Configs are
built through ``checked`` (ValidationError, exit 1), and every workspace
file reader reads through it too, naming the file (CorruptDataError, exit 2).
"""

from __future__ import annotations

import reprlib
from contextlib import suppress

import numpy as np

from .errors import CorruptDataError, ValidationError

_KINDS = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def _within(x, domain: str):
    """Whether ``x``, a number or an array, lies in the interval ``domain``, elementwise."""
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    return (lo < x if domain[0] == "(" else lo <= x) & (x < hi if domain[-1] == ")" else x <= hi)


def checked(name: str, value, kind, domain=None, source: str | None = None, parse: bool = False):
    """``value`` as a ``kind`` in ``domain``.

    A number may come as a numpy scalar, or, if ``parse``, as the text of
    the int it spells, else the float; an integral float may stand for an
    int.  An array kind takes a list of numbers and tests it whole.  Any
    other value (a bool, a fraction for an int, NaN) raises ValidationError
    "<name> must be ...", or, reading ``source``, CorruptDataError
    "<source>: bad <name> <value>: not ...".
    """
    number = value
    if isinstance(kind, np.dtype):
        number = np.asarray(value)
        ok = number.dtype.kind in "iuf"
        if ok:
            with np.errstate(over="ignore"):  # beyond float32's range reads as inf
                number = number.astype(kind)
            ok = bool(_within(number, domain).all())
    else:
        if kind in (int, float) and parse and isinstance(value, str):
            with suppress(ValueError):  # the int it spells, else the float
                number = float(value)
                number = int(value)
        if kind in (int, float) and isinstance(number, (int, float, np.integer, np.floating)):
            with suppress(OverflowError):  # float(10**400); int() keeps an int exact
                if not isinstance(number, bool) and (kind is float or float(number).is_integer()):
                    number = kind(number)
        ok = type(number) is kind and (
            domain is None or (number in domain if isinstance(domain, tuple) else _within(number, domain))
        )
    if ok:
        return number
    wanted = (f"one of {', '.join(domain)}" if isinstance(domain, tuple)
              else _KINDS.get(kind, "numbers") + ("" if domain is None else f" in {domain}"))
    if source is None:
        raise ValidationError(f"{name} must be {wanted}, got {reprlib.repr(value)}")
    raise CorruptDataError(f"{source}: bad {name} {reprlib.repr(value)}: not {wanted}")


def checked_fields(doc, fields, source) -> dict:
    """Each of the ``fields`` of ``doc``, the JSON object read from ``source``,
    as ``checked`` reads it; CorruptDataError if one is missing or bad."""
    if not isinstance(doc, dict):
        raise CorruptDataError(f"{source}: not a JSON object")
    missing = [name for name, _, _ in fields if name not in doc]
    if missing:
        raise CorruptDataError(f"{source}: missing fields {missing}")
    return {name: checked(name, doc[name], kind, domain, source) for name, kind, domain in fields}
