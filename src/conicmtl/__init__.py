"""Conic multi-task multiple-kernel learning toolkit."""

from .bounds import (
    BoundReport,
    RademacherEstimate,
    bound_report,
    bound_rhs_any_lambda,
    bound_rhs_fixed_lambda,
    erc_upper_bound_lp,
    estimate_scale_constant,
    margin_loss,
    model_radius,
    rademacher_mc,
)
from .data import (
    Scaler,
    TaskDataset,
    balanced_resample,
    build_ovo_tasks,
    load_sparse_text,
    load_task_directory,
    prepare_run,
    save_task_directory,
    stratified_split,
    synth_multitask,
    synthetic_benchmark,
    write_sparse_text,
)
from .experiments import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
    cross_validate,
    run_experiment,
    summarize_results,
    welch_t_test,
    write_results_csv,
)
from .kernels import (
    GramStack,
    KernelSpec,
    build_gram_stack,
    combine,
    compute_gram,
    cosine_normalize,
    default_kernel_dictionary,
    trace_vector,
)
from .solvers import DualSolution, component_sq_norms, lambda_step, solve_svm_dual, theta_step
from .training import (
    MtlModel,
    TrainConfig,
    fit,
    load_model,
    pareto_lambda,
    predict,
    save_model,
    weighted_empirical_loss,
)

__version__ = "0.1.0"
