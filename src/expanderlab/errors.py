"""Shared exception types.

Input problems raise plain ``ValueError`` throughout the package; this module
only holds the errors that need to be told apart by callers (the CLI maps them
to distinct exit codes).
"""


class ComputationRefused(RuntimeError):
    """An exact or iterative computation declined to run.

    Raised when a size cap would be exceeded (graph vertex cap, exact Cheeger
    enumeration, Cayley order cap) or when an iterative eigensolver fails to
    converge.
    """
