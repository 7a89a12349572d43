"""Feature standardization and KNN classification with split / LOOCV evaluation."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import GenreLabel, LabeledDataset


@dataclass
class StandardizationParams:
    """Per-column mean and population standard deviation from training data."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class KnnModel:
    k: int
    train_matrix: np.ndarray  # standardized
    train_labels: np.ndarray
    standardization: StandardizationParams


@dataclass
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # rows true, columns predicted, GenreLabel code order
    per_item: list  # (track_id, true token, predicted token)

    def to_json(self) -> str:
        payload = {
            "accuracy": self.accuracy,
            "labels": [g.token for g in GenreLabel],
            "confusion": self.confusion.tolist(),
            "per_item": [
                {"track_id": i, "true": t, "predicted": p} for i, t, p in self.per_item
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"accuracy: {self.accuracy:.4f} ({len(self.per_item)} items)"]
        width = max(len(g.token) for g in GenreLabel)
        header = " " * (width + 2) + "  ".join(f"{g.token:>{width}}" for g in GenreLabel)
        lines.append("confusion (rows true, columns predicted):")
        lines.append(header)
        for g in GenreLabel:
            cells = "  ".join(f"{self.confusion[int(g), int(h)]:>{width}}" for h in GenreLabel)
            lines.append(f"{g.token:>{width}}  {cells}")
        lines.append("items:")
        for track_id, true, predicted in self.per_item:
            mark = "ok " if true == predicted else "MISS"
            lines.append(f"  {mark} {track_id}: {true} -> {predicted}")
        return "\n".join(lines) + "\n"


class SplitMix64:
    """Seeded 64-bit generator used for every data split, so splits are
    reproducible from the seed alone.

    state := (state + 0x9E3779B97F4A7C15) mod 2^64
    z := state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31

    Shuffles are Fisher-Yates from the top, drawing j = next() mod (i + 1).
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def _column_stats(matrix: np.ndarray) -> StandardizationParams:
    matrix = np.asarray(matrix, dtype=np.float64)
    return StandardizationParams(matrix.mean(axis=0), matrix.std(axis=0))


def fit_standardization(matrix: np.ndarray) -> StandardizationParams:
    """Per-column mean and population std; needs at least two rows."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if matrix.shape[0] < 2:
        raise ValueError(f"need at least 2 rows to standardize, got {matrix.shape[0]}")
    return _column_stats(matrix)


def apply_standardization(params: StandardizationParams, rows: np.ndarray) -> np.ndarray:
    """Center and scale; zero-variance columns are centered but not divided."""
    scale = np.where(params.std > 0, params.std, 1.0)
    return (np.asarray(rows, dtype=np.float64) - params.mean) / scale


def fit_knn(matrix: np.ndarray, labels, k: int) -> KnnModel:
    """Standardize the training rows and bundle them into a KNN model.

    Single-row training sets (LOOCV on two items) are centered only.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    labels = np.asarray([int(v) for v in labels], dtype=int)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ValueError(f"training matrix must be 2-D and non-empty, got shape {matrix.shape}")
    if len(labels) != matrix.shape[0]:
        raise ValueError(f"{matrix.shape[0]} rows but {len(labels)} labels")
    if not 1 <= k <= matrix.shape[0]:
        raise ValueError(f"k must be in [1, {matrix.shape[0]}], got {k}")
    params = _column_stats(matrix)
    return KnnModel(k, apply_standardization(params, matrix), labels, params)


def knn_predict(model: KnnModel, x: np.ndarray) -> GenreLabel:
    """Majority label among the k nearest training rows (Euclidean distance).

    Equal distances rank by training-row order; a vote tie goes to the tied
    class with the smallest summed neighbor distance, then the smallest code.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.train_matrix.shape[1],):
        raise ValueError(f"expected {model.train_matrix.shape[1]} features, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("query vector contains NaN or Inf")
    z = apply_standardization(model.standardization, x[None, :])[0]
    dists = np.sqrt(((model.train_matrix - z) ** 2).sum(axis=1))
    nearest = np.argsort(dists, kind="stable")[: model.k]
    votes = np.bincount(model.train_labels[nearest], minlength=len(GenreLabel))
    tied = np.flatnonzero(votes == votes.max())
    if len(tied) > 1:
        sums = [dists[nearest[model.train_labels[nearest] == c]].sum() for c in tied]
        tied = tied[np.flatnonzero(np.asarray(sums) == min(sums))]
    return GenreLabel(int(tied[0]))


def _report(ds: LabeledDataset, indices, model_for) -> EvalReport:
    """Predict row i of ds with model_for(i) for every i in indices."""
    confusion = np.zeros((len(GenreLabel), len(GenreLabel)), dtype=int)
    per_item = []
    for i in indices:
        predicted = knn_predict(model_for(i), ds.matrix[i])
        true = GenreLabel(int(ds.labels[i]))
        confusion[int(true), int(predicted)] += 1
        per_item.append((ds.track_ids[i], true.token, predicted.token))
    accuracy = float(np.trace(confusion)) / max(1, confusion.sum())
    return EvalReport(accuracy, confusion, per_item)


def stratified_split(labels: np.ndarray, test_fraction: float, seed: int):
    """Deterministic per-class split into (train_indices, test_indices).

    Each class keeps round(test_fraction * n) items for testing, shuffled by
    a SplitMix64 stream seeded once; classes are processed in code order.

    Raises:
        ValueError: a class would end up without a train or test item.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = SplitMix64(seed)
    train, test = [], []
    for genre in GenreLabel:
        members = [int(i) for i in np.flatnonzero(labels == int(genre))]
        if not members:
            continue
        n_test = int(math.floor(test_fraction * len(members) + 0.5))
        if n_test < 1 or n_test >= len(members):
            raise ValueError(
                f"class {genre.token} with {len(members)} tracks cannot give "
                f"{n_test} test and {len(members) - n_test} train items"
            )
        rng.shuffle(members)
        test.extend(members[:n_test])
        train.extend(members[n_test:])
    return sorted(train), sorted(test)


def evaluate_split(
    ds: LabeledDataset, test_fraction: float = 1.0 / 3.0, seed: int = 0, k: int = 3
) -> EvalReport:
    """Train on a stratified split, report accuracy/confusion on the held-out rows."""
    train_idx, test_idx = stratified_split(ds.labels, test_fraction, seed)
    model = fit_knn(ds.matrix[train_idx], ds.labels[train_idx], k)
    return _report(ds, test_idx, lambda i: model)


def evaluate_loocv(ds: LabeledDataset, k: int = 3) -> EvalReport:
    """Leave-one-out evaluation; standardization is refitted on every fold."""
    n = len(ds)
    if n < 2:
        raise ValueError(f"need at least 2 tracks for leave-one-out, got {n}")

    def model_for(i):
        keep = np.arange(n) != i
        return fit_knn(ds.matrix[keep], ds.labels[keep], k)

    return _report(ds, range(n), model_for)
