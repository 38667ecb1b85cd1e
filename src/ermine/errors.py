"""Exception types shared across the package."""


class ErmineError(Exception):
    """Base class for every error this package raises deliberately."""


class SchemaError(ErmineError):
    """Invalid schema declaration (names, keys, references, types)."""


class DataError(ErmineError):
    """Instance data violates its schema (arity, types, keys, references),
    or an input file is not valid UTF-8."""


class QueryParseError(ErmineError):
    """Syntax or type error in query text, with a character offset."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)


class UnsafeQueryError(ErmineError):
    """Formula failed the safety rules; carries the safety report."""

    def __init__(self, report):
        self.report = report
        rules = ", ".join(sorted({v.rule for v in report.violations}))
        super().__init__(f"query is not safe ({rules})")


class NotEntityQueryError(ErmineError):
    """Some free variable is not an entity variable; carries the report."""

    def __init__(self, report):
        self.report = report
        names = ", ".join(sorted({f.variable for f in report.failures}))
        super().__init__(f"free variables are not entity variables: {names}")


class NotValidError(ErmineError):
    """Query is not valid for the requested variable list."""


class EmptyDomainError(ErmineError):
    """Reference domain is empty, so the frequency is undefined."""


class ZeroAntecedentError(ErmineError):
    """Rule antecedent has no result tuples, so confidence is undefined."""


class InvalidRuleError(ErmineError):
    """Rule breaks the antecedent/consequent free-variable containment."""


class BiasError(ErmineError):
    """Malformed language-bias configuration."""


class EvaluationError(ErmineError):
    """Internal evaluation failure; unreachable for safe queries."""
