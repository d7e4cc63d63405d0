"""Exception types raised by graphbench modules."""


class GraphbenchError(Exception):
    """Base class for all graphbench errors."""


class ShapeError(GraphbenchError):
    """Tensor dimensions do not satisfy an operation's contract."""


class GraphStructureError(GraphbenchError):
    """Edge list or index set violates a graph structure invariant."""


class ContractError(GraphbenchError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


class DegenerateBatchError(GraphbenchError):
    """Batch statistics requested on fewer than two nodes."""


class InsufficientSamplesError(GraphbenchError):
    """Statistical validation needs more samples than were provided."""


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
