"""Sequence alignment, error taxonomy, and metrics.

Predicted and ground-truth primitive sequences are aligned with the
Levenshtein algorithm (unit costs, canonical backtrace). Each alignment
op maps onto the clinical error taxonomy: matches are true positives,
deletions are missed primitives, insertions are hallucinated ones, and a
substitution counts once against the ground-truth class (swap-out) and
once against the predicted class (swap-in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import CLASSES, N_CLASSES, DataError, PrimitiveClass, _as_codes

MATCH = "match"
SUBSTITUTION = "substitution"
DELETION = "deletion"
INSERTION = "insertion"

# Row and column of the count matrix that stand for a gap.
GAP = N_CLASSES


class AlignmentOp(NamedTuple):
    """One slot of an alignment: a (gt, pred) pair where None is a gap."""

    gt: PrimitiveClass | None
    pred: PrimitiveClass | None

    @property
    def kind(self) -> str:
        if self.gt is None:
            return INSERTION
        if self.pred is None:
            return DELETION
        return MATCH if self.gt == self.pred else SUBSTITUTION

    @property
    def cost(self) -> int:
        return int(self.gt != self.pred)


def _dp_table(gt: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Full Levenshtein cost table, filled one row at a time.

    The insertion branch makes each row a running minimum, so the row is
    closed in vector form: cur[j] = min_{k<=j}(t[k] - k) + j where t is
    the element-wise min of the substitution and deletion branches.
    """
    n, m = len(gt), len(pred)
    dp = np.empty((n + 1, m + 1), dtype=np.int64)
    dp[0] = np.arange(m + 1)
    offsets = np.arange(m + 1)
    for i in range(1, n + 1):
        prev = dp[i - 1]
        t = np.empty(m + 1, dtype=np.int64)
        t[0] = i
        np.minimum(prev[:-1] + (gt[i - 1] != pred), prev[1:] + 1, out=t[1:])
        dp[i] = np.minimum.accumulate(t - offsets) + offsets
    return dp


def align(gt_sequence, pred_sequence) -> list[AlignmentOp]:
    """Canonical minimal-cost alignment of two primitive sequences.

    Backtrace tie-breaking prefers the diagonal (match or substitution)
    over deletion over insertion, so repeated calls return the identical
    op list.
    """
    gt = _as_codes(gt_sequence)
    pred = _as_codes(pred_sequence)
    dp = _dp_table(gt, pred)
    a = [PrimitiveClass(c) for c in gt.tolist()]
    b = [PrimitiveClass(c) for c in pred.tolist()]
    ops: list[AlignmentOp] = []
    i, j = len(a), len(b)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i, j] == dp[i - 1, j - 1] + (a[i - 1] != b[j - 1]):
            i, j = i - 1, j - 1
            ops.append(AlignmentOp(a[i], b[j]))
        elif i > 0 and dp[i, j] == dp[i - 1, j] + 1:
            i -= 1
            ops.append(AlignmentOp(a[i], None))
        else:
            j -= 1
            ops.append(AlignmentOp(None, b[j]))
    ops.reverse()
    return ops


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass
class OutcomeTallies:
    """Alignment outcomes as one (gt, pred) count matrix.

    counts[g, p] counts the ops that pair gt class g with predicted class
    p, with index GAP for a gap: the diagonal holds matches (TP), column
    GAP deletions, row GAP insertions, and the off-diagonal class cells
    substitutions, each one swap-out FN for g and one swap-in FP for p.
    Every other array is derived from counts and read-only.
    """

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((N_CLASSES + 1, N_CLASSES + 1), dtype=np.int64)
    )

    @property
    def tp(self) -> np.ndarray:
        return _read_only(self.counts.diagonal()[:N_CLASSES])

    @property
    def fn(self) -> np.ndarray:
        return _read_only(self.counts[:N_CLASSES].sum(axis=1) - self.tp)

    @property
    def fp(self) -> np.ndarray:
        return _read_only(self.counts[:, :N_CLASSES].sum(axis=0) - self.tp)

    @property
    def fn_deletion(self) -> np.ndarray:
        return _read_only(self.counts[:N_CLASSES, GAP])

    @property
    def fp_insertion(self) -> np.ndarray:
        return _read_only(self.counts[GAP, :N_CLASSES])

    @property
    def fn_swap_out(self) -> np.ndarray:
        return _read_only(self.fn - self.fn_deletion)

    @property
    def fp_swap_in(self) -> np.ndarray:
        return _read_only(self.fp - self.fp_insertion)

    @property
    def substitutions(self) -> np.ndarray:
        subs = self.counts[:N_CLASSES, :N_CLASSES].copy()
        np.fill_diagonal(subs, 0)
        return _read_only(subs)

    @property
    def total_tp(self) -> int:
        return int(self.tp.sum())

    @property
    def total_fn(self) -> int:
        return int(self.fn.sum())

    @property
    def total_fp(self) -> int:
        return int(self.fp.sum())

    @property
    def gt_length(self) -> int:
        return self.total_tp + self.total_fn

    @property
    def pred_length(self) -> int:
        return self.total_tp + self.total_fp

    @property
    def distance(self) -> int:
        """Levenshtein distance: deletions + insertions + substitutions."""
        return self.total_fn + int(self.fp_insertion.sum())

    def __add__(self, other: "OutcomeTallies") -> "OutcomeTallies":
        return OutcomeTallies(self.counts + other.counts)


def tally(alignment: list[AlignmentOp]) -> OutcomeTallies:
    out = OutcomeTallies()
    for gt, pred in alignment:
        out.counts[GAP if gt is None else gt, GAP if pred is None else pred] += 1
    return out


@dataclass(frozen=True)
class Metrics:
    """Sensitivity, FDR, F1, and alignment error rate. NaN marks undefined."""

    sensitivity: float
    fdr: float
    f1: float
    aer: float

    def to_json(self) -> dict:
        return {name: None if math.isnan(v) else v for name, v in vars(self).items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else math.nan


def _metrics(t: OutcomeTallies, classes=slice(None)) -> Metrics:
    """The metric quartet over the selected classes of t (default: all).

    AER's distance is FN + insertions: over all classes the Levenshtein
    distance, for one class its deletions, swap-outs and insertions.
    """
    tp, fn, fp, ins = (
        int(a[classes].sum()) for a in (t.tp, t.fn, t.fp, t.fp_insertion)
    )
    return Metrics(
        sensitivity=_ratio(tp, tp + fn),
        fdr=_ratio(fp, tp + fp),
        f1=_ratio(2 * tp, 2 * tp + fn + fp),
        aer=_ratio(fn + ins, tp + fn),
    )


def metrics(tallies_or_pair) -> Metrics:
    """Compute the metric quartet from tallies or a (gt, pred) pair.

    sensitivity = TP/(TP+FN), FDR = FP/(TP+FP), F1 = 2TP/(2TP+FN+FP),
    AER = Levenshtein distance / |gt|. Zero denominators give NaN.
    """
    if isinstance(tallies_or_pair, OutcomeTallies):
        return _metrics(tallies_or_pair)
    gt, pred = tallies_or_pair
    return _metrics(tally(align(gt, pred)))


def f1_score(sensitivity: float, fdr: float) -> float:
    """Harmonic mean of sensitivity and precision (1 - FDR)."""
    precision = 1.0 - fdr
    if sensitivity + precision <= 0:
        return 0.0
    return 2.0 * sensitivity * precision / (sensitivity + precision)


@dataclass
class ConfusionMatrix:
    """Rows are ground truth, columns predictions, normalized by gt counts.

    The diagonal holds per-class sensitivity; off-diagonal (r, c) is the
    fraction of class r swapped out for c. Deleted mass is reported
    separately so each defined row satisfies
    rowsum(matrix) + deleted_fraction = 1.
    """

    matrix: np.ndarray
    deleted_fraction: np.ndarray
    gt_counts: np.ndarray

    def to_json(self) -> dict:
        def clean(a):
            return [
                [None if math.isnan(v) else v for v in row] for row in np.atleast_2d(a)
            ]

        return {
            "classes": [c.label for c in CLASSES],
            "matrix": clean(self.matrix),
            "deleted_fraction": clean(self.deleted_fraction)[0],
            "gt_counts": self.gt_counts.tolist(),
        }


def confusion_matrix(tallies: OutcomeTallies) -> ConfusionMatrix:
    rows = tallies.counts[:N_CLASSES]
    gt_counts = rows.sum(axis=1)
    fractions = np.full(rows.shape, math.nan)
    seen = gt_counts > 0
    fractions[seen] = rows[seen] / gt_counts[seen, None]
    return ConfusionMatrix(fractions[:, :N_CLASSES], fractions[:, GAP], gt_counts)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentRecord:
    """One scored unit (usually a window) with its grouping labels."""

    subject_id: str
    activity: str
    tallies: OutcomeTallies


@dataclass
class GroupMetrics:
    group: str
    micro: Metrics
    n_records: int
    n_subjects: int
    subject_mean: Metrics
    subject_std: Metrics

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "micro": self.micro.to_json(),
            "n_records": self.n_records,
            "n_subjects": self.n_subjects,
            "subject_mean": self.subject_mean.to_json(),
            "subject_std": self.subject_std.to_json(),
        }


# group_by partitions other than primitive_class: record -> group name
_GROUP_KEYS = {
    "overall": lambda r: "overall",
    "subject": lambda r: r.subject_id,
    "activity": lambda r: r.activity,
}


def _partition(records: list[AlignmentRecord], key) -> dict[str, list[AlignmentRecord]]:
    """Records grouped by key(record), in sorted group order."""
    names = sorted({key(r) for r in records})
    return {n: [r for r in records if key(r) == n] for n in names}


def _subject_stats(per_subject: list[Metrics]) -> tuple[Metrics, Metrics]:
    cols = {
        name: np.array([getattr(m, name) for m in per_subject])
        for name in ("sensitivity", "fdr", "f1", "aer")
    }

    def stat(fn):
        vals = {}
        for name, col in cols.items():
            finite = col[~np.isnan(col)]
            vals[name] = float(fn(finite)) if finite.size else math.nan
        return Metrics(**vals)

    return stat(np.mean), stat(lambda v: np.std(v, ddof=1) if v.size > 1 else 0.0)


def _group_result(
    name: str, records: list[AlignmentRecord], classes=slice(None)
) -> GroupMetrics:
    """Metrics of the selected classes (default: all) over the records."""

    def scored(group):
        return _metrics(sum((r.tallies for r in group), OutcomeTallies()), classes)

    subjects = _partition(records, _GROUP_KEYS["subject"])
    mean, std = _subject_stats([scored(group) for group in subjects.values()])
    return GroupMetrics(name, scored(records), len(records), len(subjects), mean, std)


def aggregate(
    records: list[AlignmentRecord], group_by: str = "overall"
) -> dict[str, GroupMetrics]:
    """Micro-aggregated metrics per group, with across-subject mean and SD.

    Tallies are summed within each group before metrics are computed;
    the per-subject spread is reported alongside. group_by selects the
    partition: overall, subject, activity, or primitive_class.
    """
    if not records:
        raise DataError("no alignment records to aggregate")
    if group_by == "primitive_class":
        return {c.label: _group_result(c.label, records, int(c)) for c in CLASSES}
    if group_by not in _GROUP_KEYS:
        raise DataError(f"unknown group_by {group_by!r}")
    groups = _partition(records, _GROUP_KEYS[group_by])
    return {name: _group_result(name, group) for name, group in groups.items()}
