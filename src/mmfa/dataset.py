"""Container for one heterogeneous dataset: a real-valued block plus any
number of categorical blocks over the same instances."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch


@dataclass
class HeteroDataset:
    gaussian: np.ndarray = None  # (P, D1) or None
    mask: np.ndarray = None  # (P, D1) bool, True = observed; None = all observed
    categoricals: list = field(default_factory=list)

    def __post_init__(self):
        if self.gaussian is not None:
            self.gaussian = np.asarray(self.gaussian, dtype=float)
            if self.gaussian.ndim != 2:
                raise DimensionMismatch("gaussian block must be a P x D1 matrix")
        if self.mask is not None:
            if self.gaussian is None:
                raise DimensionMismatch("mask given without a gaussian block")
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.gaussian.shape:
                raise DimensionMismatch(
                    f"mask {self.mask.shape} vs data {self.gaussian.shape}"
                )
        self.validate()

    @property
    def n_instances(self):
        if self.gaussian is not None:
            return self.gaussian.shape[0]
        if self.categoricals:
            return self.categoricals[0].n_instances
        return 0

    @property
    def n_gaussian(self):
        return 0 if self.gaussian is None else self.gaussian.shape[1]

    @property
    def category_counts(self):
        return [m.n_categories for m in self.categoricals]

    def validate(self):
        if self.gaussian is None and not self.categoricals:
            raise DimensionMismatch("dataset has no modalities")
        p = self.n_instances
        for m, block in enumerate(self.categoricals):
            if block.n_instances != p:
                raise DimensionMismatch(
                    f"categorical modality {m} has {block.n_instances} instances, "
                    f"expected {p}"
                )
        if self.gaussian is not None:
            # hidden entries may hold anything, NaN included
            finite = np.isfinite(self.gaussian)
            if self.mask is not None:
                finite |= ~self.mask
            if not finite.all():
                raise ValueError("observed gaussian entries must be finite")

    def observed_mask(self):
        """Mask normalized to an explicit boolean array (or None if no
        gaussian block)."""
        if self.gaussian is None:
            return None
        if self.mask is None:
            return np.full(self.gaussian.shape, True)
        return self.mask

    def require_covered_features(self):
        """Fitting requires every gaussian feature to have at least one
        observed entry; evaluation-only subsets are exempt."""
        if self.gaussian is None or self.n_instances == 0:
            return
        observed = self.observed_mask()
        empty = ~observed.any(axis=0)
        if empty.any():
            raise DimensionMismatch(
                f"gaussian features {np.flatnonzero(empty).tolist()} have no "
                "observed entries"
            )

    def subset(self, idx):
        """New dataset restricted to the given instance indices."""
        idx = np.asarray(idx)
        return HeteroDataset(
            gaussian=None if self.gaussian is None else self.gaussian[idx],
            mask=None if self.mask is None else self.mask[idx],
            categoricals=[m.subset(idx) for m in self.categoricals],
        )
