"""Training-free modality-gap removal.

Two transforms: *centralize* subtracts each modality's empirical mean;
*delete* drops the dimensions where the two modalities' means differ
most. Transforms are fit once on reference banks, frozen, and can be
serialized to JSON so a transform fit offline ships with a policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .banks import EmbeddingBank, Modality
from .diagnostics import per_dimension_mean_gap
from .errors import (
    DimensionError,
    EmptyBankError,
    FormatError,
    ParameterError,
)
from .fileio import json_int, json_number, json_text, read_bytes, read_json, write_atomic


class CollapseKind(Enum):
    CENTRALIZE = "centralize"
    DELETE = "delete"


@dataclass(frozen=True)
class CollapseTransform:
    """A frozen gap-removal transform; applying never refits."""

    kind: CollapseKind
    source_dim: int
    visual_mean: np.ndarray | None = None
    text_mean: np.ndarray | None = None
    deleted_dims: tuple[int, ...] | None = None
    fit_reference: str | None = None  # provenance of the fitting banks

    def __post_init__(self):
        if self.source_dim < 1:
            raise DimensionError(f"source_dim must be >= 1, got {self.source_dim}")
        if self.kind is CollapseKind.CENTRALIZE:
            if self.visual_mean is None or self.text_mean is None:
                raise ParameterError("centralize transform needs both modality means")
            for name, mean in (("visual_mean", self.visual_mean), ("text_mean", self.text_mean)):
                m = np.asarray(mean, dtype=np.float64)
                if m.shape != (self.source_dim,):
                    raise DimensionError(f"{name} has shape {m.shape}, expected ({self.source_dim},)")
                m = m.copy()
                m.setflags(write=False)
                object.__setattr__(self, name, m)
        elif self.kind is CollapseKind.DELETE:
            dims = self.deleted_dims
            if not dims:
                raise ParameterError("delete transform needs at least one dimension")
            dims = tuple(int(d) for d in dims)
            if list(dims) != sorted(set(dims)):
                raise ParameterError(f"deleted_dims must be unique and ascending, got {dims}")
            if dims[0] < 0 or dims[-1] >= self.source_dim:
                raise ParameterError(f"deleted_dims {dims} out of range for dim {self.source_dim}")
            if len(dims) >= self.source_dim:
                raise ParameterError("cannot delete every dimension")
            object.__setattr__(self, "deleted_dims", dims)
        else:
            raise ParameterError(f"unknown collapse kind {self.kind!r}")

    @property
    def output_dim(self) -> int:
        if self.kind is CollapseKind.DELETE:
            return self.source_dim - len(self.deleted_dims)
        return self.source_dim

    def to_json_dict(self) -> dict:
        doc = {"kind": self.kind.value, "source_dim": self.source_dim}
        if self.kind is CollapseKind.CENTRALIZE:
            doc["visual_mean"] = [float(x) for x in self.visual_mean]
            doc["text_mean"] = [float(x) for x in self.text_mean]
        else:
            doc["deleted_dims"] = list(self.deleted_dims)
        if self.fit_reference is not None:
            doc["fit_reference"] = self.fit_reference
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CollapseTransform":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise FormatError("transform document must be an object with a 'kind' field")
        try:
            kind = CollapseKind(doc["kind"])
        except ValueError:
            raise FormatError(f"unknown transform kind {doc['kind']!r}") from None
        known = {"kind", "source_dim", "visual_mean", "text_mean", "deleted_dims", "fit_reference"}
        unknown = set(doc) - known
        if unknown:
            raise FormatError(f"unknown transform fields: {sorted(unknown)}")
        if "source_dim" not in doc:
            raise FormatError("transform document is missing 'source_dim'")
        source_dim = json_int(doc["source_dim"], "source_dim")
        fit_reference = doc.get("fit_reference")
        if "fit_reference" in doc and not isinstance(fit_reference, str):
            raise FormatError(f"fit_reference must be a string, got {fit_reference!r}")
        if kind is CollapseKind.CENTRALIZE:
            if "visual_mean" not in doc or "text_mean" not in doc:
                raise FormatError("centralize transform needs visual_mean and text_mean")
            return cls(
                kind=kind,
                source_dim=source_dim,
                visual_mean=_json_means(doc["visual_mean"], "visual_mean"),
                text_mean=_json_means(doc["text_mean"], "text_mean"),
                fit_reference=fit_reference,
            )
        if "deleted_dims" not in doc:
            raise FormatError("delete transform needs deleted_dims")
        dims = doc["deleted_dims"]
        if not isinstance(dims, list):
            raise FormatError(f"deleted_dims must be a list, got {dims!r}")
        return cls(
            kind=kind,
            source_dim=source_dim,
            deleted_dims=tuple(json_int(d, "deleted_dims entry") for d in dims),
            fit_reference=fit_reference,
        )


def _json_means(values, what: str) -> np.ndarray:
    if not isinstance(values, list):
        raise FormatError(f"{what} must be a list of finite numbers")
    return np.array([json_number(x, f"{what} entry") for x in values], dtype=np.float64)


def fit_centralize(
    reference_v: EmbeddingBank, reference_l: EmbeddingBank, fit_reference: str | None = None
) -> CollapseTransform:
    """Estimate per-modality means over all reference rows."""
    if reference_v.n == 0 or reference_l.n == 0:
        raise EmptyBankError("reference banks must be non-empty")
    if reference_v.dim != reference_l.dim:
        raise DimensionError(f"dimension mismatch: {reference_v.dim} vs {reference_l.dim}")
    return CollapseTransform(
        kind=CollapseKind.CENTRALIZE,
        source_dim=reference_v.dim,
        visual_mean=reference_v.values.mean(axis=0),
        text_mean=reference_l.values.mean(axis=0),
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
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k!r}")
    gap = per_dimension_mean_gap(reference_v, reference_l)
    dim = reference_v.dim
    if k >= dim:
        raise ParameterError(f"k={k} would delete all of {dim} dimensions")
    order = np.lexsort((np.arange(dim), -gap))  # gap desc, then index asc
    dims = tuple(sorted(int(i) for i in order[:k]))
    return CollapseTransform(
        kind=CollapseKind.DELETE,
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
    if transform.kind is CollapseKind.CENTRALIZE:
        mean = transform.visual_mean if bank.modality is Modality.VISUAL else transform.text_mean
        return bank.with_values(bank.values - mean)
    keep = np.ones(transform.source_dim, dtype=bool)
    keep[list(transform.deleted_dims)] = False
    return bank.with_values(bank.values[:, keep], dim=transform.output_dim)


def save_transform(transform: CollapseTransform, path) -> None:
    write_atomic(path, json_text(transform.to_json_dict()))


def load_transform(path) -> CollapseTransform:
    return CollapseTransform.from_json_dict(read_json(read_bytes(path), str(path)))
