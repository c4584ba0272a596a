"""Multimodal embedding alignment toolkit: toy contrastive encoders,
training-free modality-gap removal, latent-space augmentation, gap
diagnostics, and a gridworld transfer benchmark."""

from .banks import (
    EmbeddingBank,
    Modality,
    load_bank,
    row_norms,
    save_bank,
    unit_rows,
)
from .bench import BenchConfig, TransferReport, run_transfer_experiment
from .collapse import (
    CollapseTransform,
    apply_to_bank,
    fit_centralize,
    fit_delete,
    load_transform,
    save_transform,
)
from .corrupt import CorruptConfig, corrupt_bank
from .diagnostics import (
    GapReport,
    gap_report,
    gap_vector,
    matched_pair_similarity_matrix,
    pca_project_2d,
    per_dimension_mean_gap,
    retrieval_topk_accuracy,
)
from .errors import (
    DegenerateVectorError,
    DimensionError,
    DivergenceError,
    EmptyBankError,
    FormatError,
    IoError,
    ModalignError,
    ParameterError,
    PipelineError,
    TaskMismatchError,
)
from .gridworld import (
    Action,
    GridTask,
    Trajectory,
    build_dataset,
    build_vocab,
    expert_trajectory,
    generate_tasks,
    synthetic_gap_bank,
)
from .policy import (
    PolicyConfig,
    chance_floor,
    encode_goals,
    eval_episodes,
    evaluate_policy,
    expert_steps,
    train_policies,
    training_goals,
    variant_goals,
)
from .trainer import (
    Clip,
    EncoderParams,
    PairBatch,
    TrainerConfig,
    compile_tokens,
    finite_difference_check,
    frame_differences,
    infonce_loss,
    infonce_loss_and_gradient,
    load_encoder_params,
    save_encoder_params,
    train_encoders,
)

__version__ = "0.1.0"
