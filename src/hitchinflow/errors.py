"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands live on spaces of different dimension."""


class DegreeOverflow(ValueError):
    """Wedge product would exceed the top degree."""


class DegenerateMetric(ValueError):
    """A nondegenerate bilinear form was required."""


class UnstableForm(ValueError):
    """The form is not stable, so the requested associated tensor is undefined."""


class DegenerateOmega(ValueError):
    """The 2-form is degenerate (omega^3 = 0): the wedge solve divides by it."""


class NotClosed(ValueError):
    """A commutator left the span of the proposed basis."""


class NotProportional(ValueError):
    """A least-squares fit left a residual above tolerance."""


class PreconditionFailed(ValueError):
    """A named startup precondition does not hold."""

    def __init__(self, condition: str, message: str = ""):
        self.condition = condition
        super().__init__(f"{condition}: {message}" if message else condition)


class NonpositiveF(ValueError):
    """The fiber length must be positive for this operation."""


class ProjectionFailure(RuntimeError):
    """A computed form left the invariant subspace it must lie in.

    This signals a defect, not a numerical event, so it is deliberately
    not a ValueError: the integrators do not retry it with a smaller step.
    """
