"""Graph neural network benchmarks on stochastic block model tasks.

Pure-numpy reverse-mode autodiff, six graph architectures behind one layer
interface, SBM task generators, a plateau-scheduled training loop, a
harmonic label-propagation baseline, and sweep orchestration with
deterministic outputs. The edge-aggregation kernels are sparse-matrix
products that add in a fixed edge order, so a fixed seed reproduces every
number bit for bit.
"""

from . import kernels
from .adjacency import SparseAdjacency
from .dirichlet import DirichletResult, build_laplacian, dirichlet_assign, jacobi_pcg
from .errors import (
    BudgetError,
    ContractError,
    GraphbenchError,
    SolverError,
    TrainingDivergedError,
)
from .experiments import (
    ExperimentSpec,
    parse_experiment_file,
    parse_experiment_text,
    resolve_cell,
    run_dirichlet_baseline,
    run_experiment,
)
from .generators import (
    Graph,
    SbmParams,
    TaskInstance,
    graph_to_text,
    instance_to_text,
    make_clustering_instance,
    make_matching_instance,
    make_pattern,
    sbm_generate,
    validate_sbm_stats,
)
from .models import (
    ARCHITECTURES,
    BatchNorm,
    GraphModel,
    Linear,
    ModelConfig,
    count_params,
    solve_hidden_for_budget,
)
from .seeding import derive_seed
from .tensor import Tape, Tensor, backward
from .training import (
    Adam,
    PlateauSchedule,
    Sgd,
    TrainReport,
    TrainSettings,
    accuracy,
    class_weights_for,
    default_optimizer,
    evaluate,
    task_dims,
    train,
    weighted_loss,
    write_series_csv,
    write_summary_json,
)

__version__ = "0.1.0"
