"""Shared exception types."""


class KGLogicError(ValueError):
    """Base class for data and evaluation errors raised by this package."""


class TripleFileError(KGLogicError):
    """Malformed or undecodable input file (triples, predicates, dataset, formula)."""


class FormulaSyntaxError(KGLogicError):
    """Formula text could not be parsed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(KGLogicError):
    """Invalid input to model checking, compilation, labeling, or the engine."""
