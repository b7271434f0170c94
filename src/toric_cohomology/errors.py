"""Exception types shared across the package."""


class ModelError(ValueError):
    """Malformed or inconsistent toric variety input data."""


class NonFiniteCohomologyError(RuntimeError):
    """An infinite neg-group met a nonzero multiplicity factor.

    This happens when the input fan is not complete; the algorithm's
    finiteness assumptions then fail and no partial answer is returned.
    """
