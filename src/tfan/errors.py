"""Exception hierarchy for tfan.

Every failure mode callers are expected to handle gets its own class, so the
CLI can map them onto exit codes and a one-line diagnosis.
"""


class TfanError(Exception):
    """Base class for all tfan errors."""


class InvalidInput(TfanError):
    """An argument violates a documented precondition."""


class ParseError(TfanError):
    """Syntax or semantic error in a problem file."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        loc = ""
        if self.line is not None:
            loc = f"line {self.line}"
            if self.col is not None:
                loc += f", col {self.col}"
            loc += ": "
        return loc + super().__str__()


class DivisionDiverged(TfanError):
    """A division/normal-form loop exceeded the fixed ``division.STEP_CAP``.

    Carries a short trace of the last reduction states for diagnosis.
    """

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class InredDiverged(TfanError):
    """Generic-regime initial reduction diverged.

    The message names the element, the skeleton term and the weight, and the
    bound that tripped: the t-degree limit (on every known divergent input)
    or the fixed ``division.STEP_CAP``.  Declaring a prime, with p - t in the
    ideal, guarantees termination.
    """


class WitnessFailed(TfanError):
    """Witness division left a nonzero remainder: the prescribed initial
    form does not lie in the initial ideal, or the inputs are inconsistent."""


class NonGenericWeight(TfanError):
    """The fan traversal found no generic weight where it needed one: no
    perturbed start weight lies in the interior of a maximal cone, or the
    cone across a flip has no interior weight below the boundary that picks
    out its leading terms."""
