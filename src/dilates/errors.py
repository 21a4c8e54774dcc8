"""Exception types shared across the package.

Plain ValueError is used for precondition violations (bad arguments,
modulus mismatches, composite moduli where a prime is required); the
command-line tool maps it to exit code 2.  The two classes below mark
conditions it maps to dedicated exit codes 4 and 3.  A failed read or write
(OSError) is exit code 5, kept apart from usage errors.
"""


class ScaleCapError(RuntimeError):
    """An enumeration or size cap was exceeded; the input is too large for
    the exact desk-scale algorithms.  CLI exit code 4."""


class MathAssertionError(RuntimeError):
    """A relation that is a theorem failed numerically.  This always
    indicates an implementation bug, never bad input.  CLI exit code 3."""
