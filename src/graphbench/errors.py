"""Exception types raised by graphbench modules.

A violated precondition (a malformed input, argument, shape, edge list,
spec or file) raises ``ContractError``, whatever module it is in. A class
gets its own name here only when some caller catches it by that name:

- ``GraphbenchError``: the base; the CLI and the benchmark runner catch it.
- ``ContractError``: caught only through ``GraphbenchError``.
- ``BudgetError``: ``experiments`` turns it into a cell's error record.
- ``SolverError``: ``experiments`` turns it into a cell's error record.
- ``TrainingDivergedError``: ``experiments`` turns it into a cell's error record.
"""


class GraphbenchError(Exception):
    """Base class for all graphbench errors."""


class ContractError(GraphbenchError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


class SolverError(GraphbenchError):
    """Iterative linear solver failed to converge."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class BudgetError(GraphbenchError):
    """Parameter budget too small for the requested architecture."""


class TrainingDivergedError(GraphbenchError):
    """Loss became non-finite during training."""

    def __init__(self, message, iteration=None, learning_rate=None):
        super().__init__(message)
        self.iteration = iteration
        self.learning_rate = learning_rate
