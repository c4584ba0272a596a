"""Training-free modality-gap removal.

Two transforms: *centralize* subtracts each modality's empirical mean;
*delete* drops the dimensions where the two modalities' means differ
most. Transforms are fit once on reference banks, frozen, and can be
serialized to JSON so a transform fit offline ships with a policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .banks import EmbeddingBank, mean_row
from .diagnostics import _check_pair, per_dimension_mean_gap
from .errors import (
    POSITIVE, DimensionError, ParameterError, check_fields, from_json, is_integer, one_of,
)
from .fileio import json_text, read_bytes, read_json, write_atomic

COLLAPSE_KINDS = ("centralize", "delete")


@dataclass(frozen=True)
class CollapseTransform:
    """A frozen gap-removal transform; applying never refits. A centralize
    transform holds both means, stored as read-only float64 arrays, and a
    delete transform the ascending dimensions it drops."""

    kind: str = field(metadata=one_of(*COLLAPSE_KINDS))
    source_dim: int = field(metadata=POSITIVE)
    visual_mean: tuple[float, ...] | None = None
    text_mean: tuple[float, ...] | None = None
    deleted_dims: tuple[int, ...] | None = None
    fit_reference: str | None = None  # provenance of the fitting banks

    def __post_init__(self):
        check_fields(self)
        # each kind sets its own fields and leaves the other kind's None
        uses = ("visual_mean", "text_mean") if self.kind == "centralize" else ("deleted_dims",)
        for name in ("visual_mean", "text_mean", "deleted_dims"):
            if (getattr(self, name) is None) == (name in uses):
                verb = "needs" if name in uses else "does not use"
                raise ParameterError(f"a {self.kind} transform {verb} {name}")
        if self.kind == "centralize":
            for name in uses:
                mean = np.array(getattr(self, name), dtype=np.float64)
                if mean.shape != (self.source_dim,):
                    raise ParameterError(f"{name} has shape {mean.shape}, expected ({self.source_dim},)")
                mean.setflags(write=False)
                object.__setattr__(self, name, mean)
            return
        dims = self.deleted_dims
        if not dims:
            raise ParameterError("delete transform needs at least one dimension")
        if list(dims) != sorted(set(dims)):
            raise ParameterError(f"deleted_dims must be unique and ascending, got {dims}")
        if dims[0] < 0 or dims[-1] >= self.source_dim:
            raise ParameterError(f"deleted_dims {dims} out of range for dim {self.source_dim}")
        if len(dims) >= self.source_dim:
            raise ParameterError("cannot delete every dimension")

    @property
    def output_dim(self) -> int:
        if self.kind == "delete":
            return self.source_dim - len(self.deleted_dims)
        return self.source_dim

    def to_json_dict(self) -> dict:
        """Every field that is set, means as lists."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}
        return {name: value.tolist() if isinstance(value, np.ndarray) else value for name, value in doc.items()}


def fit_centralize(
    reference_v: EmbeddingBank, reference_l: EmbeddingBank, fit_reference: str | None = None
) -> CollapseTransform:
    """Estimate per-modality means over all reference rows."""
    if (reference_v.modality, reference_l.modality) != ("visual", "text"):
        raise ParameterError(
            f"centralize needs a visual then a text reference bank, got "
            f"{reference_v.modality} then {reference_l.modality}"
        )
    _check_pair(reference_v, reference_l)
    return CollapseTransform(
        kind="centralize",
        source_dim=reference_v.dim,
        visual_mean=mean_row(reference_v.values, "visual mean"),
        text_mean=mean_row(reference_l.values, "text mean"),
        fit_reference=fit_reference,
    )


def fit_delete(
    reference_v: EmbeddingBank,
    reference_l: EmbeddingBank,
    k: int = 1,
    fit_reference: str | None = None,
) -> CollapseTransform:
    """Mark the k dimensions with the largest per-dimension mean gap for
    deletion; ties go to the lower index."""
    if not is_integer(k) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k!r}")
    gap = per_dimension_mean_gap(reference_v, reference_l)
    dim = reference_v.dim
    if k >= dim:
        raise ParameterError(f"k={k} would delete all of {dim} dimensions")
    order = np.lexsort((np.arange(dim), -gap))  # gap desc, then index asc
    dims = tuple(sorted(int(i) for i in order[:k]))
    return CollapseTransform(
        kind="delete",
        source_dim=dim,
        deleted_dims=dims,
        fit_reference=fit_reference,
    )


def apply_to_bank(transform: CollapseTransform | None, bank: EmbeddingBank) -> EmbeddingBank:
    """Apply a transform row-wise to a whole bank; None is the identity.

    Centralize subtracts the stored mean of the bank's own modality; delete
    drops the marked dimensions, the same for either modality, and keeps
    the order of the rest."""
    if transform is None:
        return bank
    if bank.dim != transform.source_dim:
        raise DimensionError(f"bank dim {bank.dim} != transform dim {transform.source_dim}")
    if transform.kind == "centralize":
        mean = transform.visual_mean if bank.modality == "visual" else transform.text_mean
        return bank.with_values(bank.values - mean)
    keep = np.ones(transform.source_dim, dtype=bool)
    keep[list(transform.deleted_dims)] = False
    return bank.with_values(bank.values[:, keep])


def save_transform(transform: CollapseTransform, path) -> None:
    write_atomic(path, json_text(transform.to_json_dict()))


def load_transform(path) -> CollapseTransform:
    return from_json(CollapseTransform, read_json(read_bytes(path), str(path)), str(path))
