"""Helpers shared by the test modules."""
from dualpcf.machine import Machine


class _Forgetful(dict):
    """A sharing table that stores nothing, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


def unshared(patch):
    """Give every run of `Machine` a sharing table that stores nothing:
    every marked application runs and no bisection takes the cell kernel,
    the unshared reference, whose values, steps and budget stops a shared
    run must repeat with no step replayed.  `patch` is a `MonkeyPatch`."""
    table = _Forgetful()
    patch.setattr(Machine, "_memo",
                  property(lambda m: table, lambda m, value: None))
