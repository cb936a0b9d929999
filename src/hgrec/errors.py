"""Domain exceptions shared across the package."""


class HgrecError(Exception):
    """Base class for every domain error raised by hgrec."""


# -- hypergraph core ---------------------------------------------------------

class EmptyHypergraph(HgrecError):
    pass


class NotABijection(HgrecError):
    pass


class IncompleteMapping(HgrecError):
    pass


class DuplicateEdge(HgrecError):
    pass


class ParseError(HgrecError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# -- generators --------------------------------------------------------------

class InvalidSize(HgrecError):
    pass


class CannotBeConnected(HgrecError):
    pass


class InvalidWeights(HgrecError):
    pass


# -- sampling / oracle -------------------------------------------------------

class NotNormalized(HgrecError):
    pass


class EmptyDataset(HgrecError):
    pass


class UndefinedRatio(HgrecError):
    pass


# -- recovery ----------------------------------------------------------------

class NothingRecovered(HgrecError):
    pass


# -- alignment ---------------------------------------------------------------

class SizeMismatch(HgrecError):
    pass


class TooLarge(HgrecError):
    pass


class AmbiguousLabels(HgrecError):
    def __init__(self, message: str, classes):
        super().__init__(message)
        self.classes = classes


class NotAnIsomorphism(HgrecError):
    pass


class InconsistentAnchors(HgrecError):
    pass


# -- bounds / sweeps ---------------------------------------------------------

class HypothesisViolated(HgrecError):
    pass


class InvalidForLogFit(HgrecError):
    pass


# -- knowledge-graph evaluation ----------------------------------------------

class UnknownEntity(HgrecError):
    pass


class EmptyEntities(HgrecError):
    pass


class UndefinedScore(HgrecError):
    pass


class InvalidWeight(HgrecError):
    pass


class RequestFailed(HgrecError):
    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"HTTP {status}: {body_excerpt}")
        self.status = status
        self.body_excerpt = body_excerpt


class AuthError(RequestFailed):
    pass
