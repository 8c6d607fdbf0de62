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

import numpy as np

from .dataset import CLASSES, N_CLASSES, DataError, PrimitiveClass

MATCH = "match"
SUBSTITUTION = "substitution"
DELETION = "deletion"
INSERTION = "insertion"


@dataclass(frozen=True)
class AlignmentOp:
    """One slot of an alignment: consumes a gt token, a pred token, or both."""

    kind: str
    gt: PrimitiveClass | None = None
    pred: PrimitiveClass | None = None

    def __post_init__(self):
        ok = {
            MATCH: self.gt is not None and self.gt == self.pred,
            SUBSTITUTION: self.gt is not None and self.pred is not None
            and self.gt != self.pred,
            DELETION: self.gt is not None and self.pred is None,
            INSERTION: self.gt is None and self.pred is not None,
        }
        if self.kind not in ok:
            raise DataError(f"unknown alignment op kind {self.kind!r}")
        if not ok[self.kind]:
            raise DataError(f"inconsistent {self.kind} op: gt={self.gt} pred={self.pred}")

    @classmethod
    def match(cls, c: PrimitiveClass) -> "AlignmentOp":
        return cls(MATCH, c, c)

    @classmethod
    def substitution(cls, gt: PrimitiveClass, pred: PrimitiveClass) -> "AlignmentOp":
        return cls(SUBSTITUTION, gt, pred)

    @classmethod
    def deletion(cls, gt: PrimitiveClass) -> "AlignmentOp":
        return cls(DELETION, gt)

    @classmethod
    def insertion(cls, pred: PrimitiveClass) -> "AlignmentOp":
        return cls(INSERTION, pred=pred)

    @property
    def cost(self) -> int:
        return 0 if self.kind == MATCH else 1


def _as_codes(seq) -> np.ndarray:
    codes = np.asarray([int(t) for t in seq], dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= N_CLASSES):
        raise DataError("sequence token outside the 5-class alphabet")
    return codes


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

    Backtrace tie-breaking prefers match over substitution over deletion
    over insertion, so repeated calls return the identical op list.
    """
    gt = _as_codes(gt_sequence)
    pred = _as_codes(pred_sequence)
    dp = _dp_table(gt, pred)
    ops: list[AlignmentOp] = []
    i, j = len(gt), len(pred)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and gt[i - 1] == pred[j - 1] and dp[i, j] == dp[i - 1, j - 1]:
            ops.append(AlignmentOp.match(PrimitiveClass(int(gt[i - 1]))))
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and gt[i - 1] != pred[j - 1] and dp[i, j] == dp[i - 1, j - 1] + 1:
            ops.append(
                AlignmentOp.substitution(
                    PrimitiveClass(int(gt[i - 1])), PrimitiveClass(int(pred[j - 1]))
                )
            )
            i -= 1
            j -= 1
        elif i > 0 and dp[i, j] == dp[i - 1, j] + 1:
            ops.append(AlignmentOp.deletion(PrimitiveClass(int(gt[i - 1]))))
            i -= 1
        else:
            ops.append(AlignmentOp.insertion(PrimitiveClass(int(pred[j - 1]))))
            j -= 1
    ops.reverse()
    return ops


@dataclass
class OutcomeTallies:
    """Per-class outcome counts accumulated from alignments.

    FN splits into deletion vs swap_out, FP into insertion vs swap_in;
    substitutions holds the (gt, pred) pair counts behind the swaps.
    """

    tp: np.ndarray = field(default_factory=lambda: np.zeros(N_CLASSES, dtype=np.int64))
    fn_deletion: np.ndarray = field(
        default_factory=lambda: np.zeros(N_CLASSES, dtype=np.int64)
    )
    fn_swap_out: np.ndarray = field(
        default_factory=lambda: np.zeros(N_CLASSES, dtype=np.int64)
    )
    fp_insertion: np.ndarray = field(
        default_factory=lambda: np.zeros(N_CLASSES, dtype=np.int64)
    )
    fp_swap_in: np.ndarray = field(
        default_factory=lambda: np.zeros(N_CLASSES, dtype=np.int64)
    )
    substitutions: np.ndarray = field(
        default_factory=lambda: np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    )

    @property
    def fn(self) -> np.ndarray:
        return self.fn_deletion + self.fn_swap_out

    @property
    def fp(self) -> np.ndarray:
        return self.fp_insertion + self.fp_swap_in

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
        return int(
            self.fn_deletion.sum() + self.fp_insertion.sum() + self.substitutions.sum()
        )

    def __add__(self, other: "OutcomeTallies") -> "OutcomeTallies":
        return OutcomeTallies(
            self.tp + other.tp,
            self.fn_deletion + other.fn_deletion,
            self.fn_swap_out + other.fn_swap_out,
            self.fp_insertion + other.fp_insertion,
            self.fp_swap_in + other.fp_swap_in,
            self.substitutions + other.substitutions,
        )

    def class_slice(self, cls: PrimitiveClass) -> "OutcomeTallies":
        """Tallies restricted to one class (for per-class metrics)."""
        c = int(cls)
        out = OutcomeTallies()
        out.tp[c] = self.tp[c]
        out.fn_deletion[c] = self.fn_deletion[c]
        out.fn_swap_out[c] = self.fn_swap_out[c]
        out.fp_insertion[c] = self.fp_insertion[c]
        out.fp_swap_in[c] = self.fp_swap_in[c]
        out.substitutions[c, :] = self.substitutions[c, :]
        return out


def tally(alignment: list[AlignmentOp]) -> OutcomeTallies:
    out = OutcomeTallies()
    for op in alignment:
        if op.kind == MATCH:
            out.tp[int(op.gt)] += 1
        elif op.kind == DELETION:
            out.fn_deletion[int(op.gt)] += 1
        elif op.kind == INSERTION:
            out.fp_insertion[int(op.pred)] += 1
        else:
            out.fn_swap_out[int(op.gt)] += 1
            out.fp_swap_in[int(op.pred)] += 1
            out.substitutions[int(op.gt), int(op.pred)] += 1
    return out


@dataclass(frozen=True)
class Metrics:
    """Sensitivity, FDR, F1, and alignment error rate. NaN marks undefined."""

    sensitivity: float
    fdr: float
    f1: float
    aer: float

    def to_json(self) -> dict:
        def clean(v):
            return None if math.isnan(v) else v

        return {
            "sensitivity": clean(self.sensitivity),
            "fdr": clean(self.fdr),
            "f1": clean(self.f1),
            "aer": clean(self.aer),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else math.nan


def metrics(tallies_or_pair) -> Metrics:
    """Compute the metric quartet from tallies or a (gt, pred) pair.

    sensitivity = TP/(TP+FN), FDR = FP/(TP+FP), F1 = 2TP/(2TP+FN+FP),
    AER = Levenshtein distance / |gt|. Zero denominators give NaN.
    """
    if isinstance(tallies_or_pair, OutcomeTallies):
        t = tallies_or_pair
    else:
        gt, pred = tallies_or_pair
        t = tally(align(gt, pred))
    tp, fn, fp = t.total_tp, t.total_fn, t.total_fp
    return Metrics(
        sensitivity=_ratio(tp, tp + fn),
        fdr=_ratio(fp, tp + fp),
        f1=_ratio(2 * tp, 2 * tp + fn + fp),
        aer=_ratio(t.distance, t.gt_length) if t.gt_length > 0 else math.nan,
    )


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
    gt_counts = tallies.tp + tallies.fn
    matrix = np.full((N_CLASSES, N_CLASSES), math.nan)
    deleted = np.full(N_CLASSES, math.nan)
    for r in range(N_CLASSES):
        if gt_counts[r] == 0:
            continue
        matrix[r] = tallies.substitutions[r] / gt_counts[r]
        matrix[r, r] = tallies.tp[r] / gt_counts[r]
        deleted[r] = tallies.fn_deletion[r] / gt_counts[r]
    return ConfusionMatrix(matrix, deleted, gt_counts)


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


def _sum_tallies(records: list[AlignmentRecord]) -> OutcomeTallies:
    total = OutcomeTallies()
    for r in records:
        total = total + r.tallies
    return total


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

    mean = stat(np.mean)
    std = stat(lambda v: np.std(v, ddof=1) if v.size > 1 else 0.0)
    return mean, std


def _group_result(
    name: str,
    records: list[AlignmentRecord],
    project=None,
) -> GroupMetrics:
    project = project or (lambda t: t)
    micro = metrics(project(_sum_tallies(records)))
    subjects = sorted({r.subject_id for r in records})
    per_subject = [
        metrics(project(_sum_tallies([r for r in records if r.subject_id == s])))
        for s in subjects
    ]
    mean, std = _subject_stats(per_subject)
    return GroupMetrics(name, micro, len(records), len(subjects), mean, std)


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
    if group_by == "overall":
        return {"overall": _group_result("overall", records)}
    if group_by == "subject":
        subjects = sorted({r.subject_id for r in records})
        return {
            s: _group_result(s, [r for r in records if r.subject_id == s])
            for s in subjects
        }
    if group_by == "activity":
        activities = sorted({r.activity for r in records})
        return {
            a: _group_result(a, [r for r in records if r.activity == a])
            for a in activities
        }
    if group_by == "primitive_class":
        return {
            c.label: _group_result(
                c.label, records, project=lambda t, c=c: t.class_slice(c)
            )
            for c in CLASSES
        }
    raise DataError(f"unknown group_by {group_by!r}")
