"""Multimodal embedding alignment toolkit: toy contrastive encoders,
training-free modality-gap removal, latent-space augmentation, gap
diagnostics, and a gridworld transfer benchmark."""

from .banks import (
    BankFormat,
    EmbeddingBank,
    Modality,
    cosine_similarity,
    load_bank,
    normalize,
    save_bank,
    unit_rows,
)
from .bench import BenchConfig, TransferReport, run_transfer_experiment
from .collapse import (
    CollapseKind,
    CollapseTransform,
    apply_to_bank,
    fit_centralize,
    fit_delete,
    load_transform,
    save_transform,
)
from .corrupt import (
    CorruptConfig,
    NoiseKind,
    corrupt_bank,
    cosine_noise,
    gaussian_noise,
    orthogonal_component,
)
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
    ParallelVectorError,
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
    PolicyParams,
    chance_floor,
    encode_goals,
    evaluate_policy,
    train_policy,
)
from .trainer import (
    Clip,
    EncoderParams,
    PairBatch,
    TrainerConfig,
    finite_difference_check,
    frame_differences,
    infonce_gradient,
    infonce_loss,
    load_encoder_params,
    save_encoder_params,
    train_encoders,
)

__version__ = "0.1.0"
