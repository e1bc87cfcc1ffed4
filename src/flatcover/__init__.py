"""flatcover: genus-3 Teichmuller curves from double covers of genus-2
square-tiled surfaces — orbits, monodromy mod m, exact period arithmetic,
and the classification tables."""

__version__ = "0.1.0"


class InvariantError(RuntimeError):
    """A library invariant failed: a defect in flatcover or in a reference
    value it checks against, never bad input (that raises ValueError)."""
