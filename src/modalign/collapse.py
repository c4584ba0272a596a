"""Training-free modality-gap removal.

Two transforms: *centralize* subtracts each modality's empirical mean;
*delete* drops the dimensions where the two modalities' means differ
most. Transforms are fit once on reference banks, frozen, and can be
serialized to JSON so a transform fit offline ships with a policy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .banks import EmbeddingBank, Modality
from .diagnostics import per_dimension_mean_gap
from .errors import DimensionError, EmptyBankError, FormatError, ParameterError, check_keys, is_finite, is_integer
from .fileio import json_text, read_bytes, read_json, write_atomic


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
        if not isinstance(self.kind, CollapseKind):
            raise ParameterError(f"unknown collapse kind {self.kind!r}")
        if not is_integer(self.source_dim) or self.source_dim < 1:
            raise DimensionError(f"source_dim must be a positive integer, got {self.source_dim!r}")
        object.__setattr__(self, "source_dim", int(self.source_dim))
        # each kind sets its own fields and leaves the other kind's None
        uses = ("visual_mean", "text_mean") if self.kind is CollapseKind.CENTRALIZE else ("deleted_dims",)
        for name in ("visual_mean", "text_mean", "deleted_dims"):
            if (getattr(self, name) is None) == (name in uses):
                verb = "needs" if name in uses else "does not use"
                raise ParameterError(f"a {self.kind.value} transform {verb} {name}")
        if self.kind is CollapseKind.CENTRALIZE:
            for name in uses:
                m = np.array(getattr(self, name), dtype=np.float64)
                if m.shape != (self.source_dim,):
                    raise DimensionError(f"{name} has shape {m.shape}, expected ({self.source_dim},)")
                if not np.all(np.isfinite(m)):
                    raise ParameterError(f"{name} must be finite")
                m.setflags(write=False)
                object.__setattr__(self, name, m)
        else:
            if not all(map(is_integer, self.deleted_dims)):
                raise ParameterError(f"deleted_dims must be integers, got {self.deleted_dims!r}")
            dims = tuple(int(d) for d in self.deleted_dims)
            if not dims:
                raise ParameterError("delete transform needs at least one dimension")
            if list(dims) != sorted(set(dims)):
                raise ParameterError(f"deleted_dims must be unique and ascending, got {dims}")
            if dims[0] < 0 or dims[-1] >= self.source_dim:
                raise ParameterError(f"deleted_dims {dims} out of range for dim {self.source_dim}")
            if len(dims) >= self.source_dim:
                raise ParameterError("cannot delete every dimension")
            object.__setattr__(self, "deleted_dims", dims)

    @property
    def output_dim(self) -> int:
        if self.kind is CollapseKind.DELETE:
            return self.source_dim - len(self.deleted_dims)
        return self.source_dim

    def to_json_dict(self) -> dict:
        """Every field that is set, the kind as its name and means as lists."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}
        doc["kind"] = self.kind.value
        return {name: value.tolist() if isinstance(value, np.ndarray) else value for name, value in doc.items()}

    @classmethod
    def from_json_dict(cls, doc: dict, where: str = "transform") -> "CollapseTransform":
        """The transform a decoded JSON document holds. Here a missing or
        unknown key or a field of the wrong JSON type is a FormatError naming
        where; __post_init__ checks the values and which fields the kind uses."""
        check_keys(cls, doc, where, FormatError)
        try:
            kind = CollapseKind(doc["kind"])
        except ValueError:
            raise FormatError(f"{where}: unknown transform kind {doc['kind']!r}") from None
        return cls(kind, **{name: _json_field(name, value, where) for name, value in doc.items() if name != "kind"})


def _json_field(name: str, value, where: str):
    """A transform document's field as a Python value: fit_reference a
    string, source_dim an integer, deleted_dims a list of integers and the
    means lists of finite numbers."""
    if name == "fit_reference":
        if not isinstance(value, str):
            raise FormatError(f"{where}: fit_reference must be a string, got {value!r}")
        return value
    entries = [value] if name == "source_dim" else value
    if not isinstance(entries, list):
        raise FormatError(f"{where}: {name} must be a list, got {value!r}")
    test, text = (is_finite, "a finite number") if name.endswith("_mean") else (is_integer, "integral")
    if not all(map(test, entries)):
        raise FormatError(f"{where}: {name} must be {text}, got {value!r}")
    return value


def fit_centralize(
    reference_v: EmbeddingBank, reference_l: EmbeddingBank, fit_reference: str | None = None
) -> CollapseTransform:
    """Estimate per-modality means over all reference rows."""
    if (reference_v.modality, reference_l.modality) != (Modality.VISUAL, Modality.TEXT):
        raise ParameterError(
            f"centralize needs a visual then a text reference bank, got "
            f"{reference_v.modality.value} then {reference_l.modality.value}"
        )
    if reference_v.n == 0 or reference_l.n == 0:
        raise EmptyBankError("reference banks must be non-empty")
    if reference_v.dim != reference_l.dim:
        raise DimensionError(f"dimension mismatch: {reference_v.dim} vs {reference_l.dim}")
    with np.errstate(over="ignore"):  # CollapseTransform refuses an overflowed mean
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
    if not is_integer(k) or k < 1:
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
    return bank.with_values(bank.values[:, keep])


def save_transform(transform: CollapseTransform, path) -> None:
    write_atomic(path, json_text(transform.to_json_dict()))


def load_transform(path) -> CollapseTransform:
    return CollapseTransform.from_json_dict(read_json(read_bytes(path), str(path)), str(path))
