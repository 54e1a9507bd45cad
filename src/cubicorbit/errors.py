"""Exception hierarchy shared by every module."""


class CubicOrbitError(Exception):
    pass


class DigitBudgetExceeded(CubicOrbitError):
    """A value would need more decimal digits than the configured budget."""

    def __init__(self, estimated_digits, budget):
        self.estimated_digits = estimated_digits
        self.budget = budget
        super().__init__(
            f"value needs ~{estimated_digits} decimal digits, budget is {budget}"
        )


class DivisionByZero(CubicOrbitError, ZeroDivisionError):
    pass


class CaseMismatch(CubicOrbitError):
    """A case-specific routine was called with parameters of another case."""


class TrivialSolutionEncountered(CubicOrbitError):
    """The orbit is eventually trivial; closed-form evaluation must stop.

    ``witness`` is the least index n with u_n = 0 or v_n = 0.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"eventually trivial solution, witness index {witness}")


class DegenerateParameters(CubicOrbitError):
    """a = b = 0 or c = d = 0: one coordinate is forced to zero outright."""


class UnknownWithinHorizon(CubicOrbitError):
    def __init__(self, horizon):
        self.horizon = horizon
        super().__init__(f"no zero found scanning up to index {horizon}; membership undecided")
