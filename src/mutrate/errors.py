"""Exception types shared across the package. Each class's ``code`` is what
the trials CSV records for a trial that raised it."""


class MutrateError(Exception):
    """Base class for domain errors raised by this package."""
    code = "estimator-error"


class SingularDenominator(MutrateError):
    """A closed-form estimator hit its blind spot (denominator exactly zero)."""
    code = "singular-denominator"


class NoRootInRange(MutrateError):
    """The moment equation has no sign change on the search interval."""
    code = "no-root-in-range"


class MismatchedK(MutrateError):
    """Two k-mer tables (or a table and a query) disagree on k."""
    code = "mismatched-k"


class EmptyRetainedSet(MutrateError):
    """The thresholded k-mer set carries zero mass, so the ratio is undefined."""
    code = "empty-retained-set"


class FastaParseError(MutrateError):
    """Malformed or invalid FASTA input."""
