"""The dense reference against which the tests check the sparse operators.

The library never builds a dense adjacency, so this lives with the tests
that check the sparse operators, kernels and aggregation ops against it.
"""

import numpy as np


def to_dense(adj):
    """The n x n matrix with A[i, j] = 1 for each edge j -> i of ``adj``."""
    a = np.zeros((adj.n_nodes, adj.n_nodes))
    a[adj.dst, adj.src] = 1.0
    return a
