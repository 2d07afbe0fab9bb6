"""The degree guard: the largest degree, q-order or page bound a request
may ask for, read from JFL_MAX_DEGREE_GUARD on every check.  Its own
module, so that a command checks its bound before it loads any
computation."""

import os

DEFAULT_MAX_DEGREE_GUARD = 64


class UnsupportedDegree(ValueError):
    """A degree bound exceeds the generator table or the global guard."""


def _guard_setting():
    """(guard, hint): the effective guard, and the hint an over-guard
    error carries, which says so when JFL_MAX_DEGREE_GUARD was ignored."""
    raw = os.environ.get("JFL_MAX_DEGREE_GUARD", "")
    try:
        value = int(raw) if raw else DEFAULT_MAX_DEGREE_GUARD
    except ValueError:
        value = -1
    if value < 0:
        return DEFAULT_MAX_DEGREE_GUARD, (
            "JFL_MAX_DEGREE_GUARD=%r is not a nonnegative integer; "
            "default used" % raw)
    return value, "set JFL_MAX_DEGREE_GUARD to raise"


def max_degree_guard():
    """The effective guard: JFL_MAX_DEGREE_GUARD if it is a nonnegative
    integer, else the default."""
    return _guard_setting()[0]


def check_guard(value, what="degree bound"):
    """value itself if 0 <= value <= the guard, else UnsupportedDegree
    naming the bound as `what`."""
    if value < 0:
        raise UnsupportedDegree("%s %d is negative" % (what, value))
    cap, hint = _guard_setting()
    if value > cap:
        raise UnsupportedDegree(
            "%s %d exceeds guard %d (%s)" % (what, value, cap, hint))
    return value
