"""The argument rule of every public entry point: a count or index is an
integer and a power a finite real, neither of them a bool, each at least
its lower bound. A bad value is rejected by name before numpy sees it.

A value whose type is exactly ``int`` or ``float`` skips the ``numbers``
ABC tests, which cost most of a call; every other type, bools, numpy
scalars and subclasses included, takes them."""

import math
import numbers


def check_int(name: str, value, low=None):
    """``value``, if it is an integer of at least ``low``."""
    if type(value) is not int and (isinstance(value, bool) or
                                   not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return _at_least(name, value, low)


def check_real(name: str, value, low=None):
    """``value``, if it is a finite real of at least ``low``; an integer
    beyond the float range is not finite."""
    try:
        bad = ((type(value) is not float and type(value) is not int
                and (isinstance(value, bool) or not isinstance(value, numbers.Real)))
               or not math.isfinite(value))
    except OverflowError:
        bad = True
    if bad:
        raise ValueError(f"{name} must be finite and real, got {value!r}")
    return _at_least(name, value, low)


def check_psk_order(value):
    """``value``, if it is an integer of at least 1 and a power of 2."""
    if check_int("psk_order", value, 1) & (value - 1):
        raise ValueError(f"psk_order must be a power of 2, got {value!r}")
    return value


def _at_least(name: str, value, low):
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}")
    return value
