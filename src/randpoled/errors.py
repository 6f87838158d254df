"""The one error type of the package's refusals."""


class DomainError(ValueError):
    """Raised for an input outside a model's domain or a quantity that cannot be taken."""
