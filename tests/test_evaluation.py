import itertools
import math

import numpy as np
import pytest

from primcount.dataset import CLASSES, DataError, PrimitiveClass
from primcount.evaluation import (
    DELETION,
    GAP,
    INSERTION,
    MATCH,
    SUBSTITUTION,
    AlignmentOp,
    AlignmentRecord,
    OutcomeTallies,
    aggregate,
    align,
    confusion_matrix,
    f1_score,
    metrics,
    tally,
)

R = PrimitiveClass.REACH
P = PrimitiveClass.REPOSITION
T = PrimitiveClass.TRANSPORT
S = PrimitiveClass.STABILIZE
I = PrimitiveClass.IDLE


def reference_distance(a, b):
    """Plain triple-branch Levenshtein DP, the oracle for align()."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(
                dp[i - 1][j - 1] + cost,
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
            )
    return dp[n][m]


def alignment_distance(ops):
    return sum(op.cost for op in ops)


def random_pair(rng, max_len):
    na, nb = rng.integers(0, max_len + 1, size=2)
    return (
        [int(c) for c in rng.integers(0, 5, size=na)],
        [int(c) for c in rng.integers(0, 5, size=nb)],
    )


class TestAlign:
    def test_identity(self):
        ops = align([R, I], [R, I])
        assert [op.kind for op in ops] == [MATCH, MATCH]
        assert alignment_distance(ops) == 0

    def test_insertion_against_empty(self):
        ops = align([], [R])
        assert ops == [AlignmentOp(None, R)]
        assert align([R], []) == [AlignmentOp(R, None)]
        assert align([], []) == []

    def test_canonical_example(self):
        ops = align([R, T, S, I], [R, I, S])
        assert ops == [
            AlignmentOp(R, R),
            AlignmentOp(T, I),
            AlignmentOp(S, S),
            AlignmentOp(I, None),
        ]
        assert alignment_distance(ops) == 2

    def test_distance_matches_oracle_exhaustive_short(self):
        seqs = [
            list(s)
            for n in range(3)
            for s in itertools.product(range(5), repeat=n)
        ]
        for a in seqs:
            for b in seqs:
                assert alignment_distance(align(a, b)) == reference_distance(a, b)

    def test_distance_matches_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            a, b = random_pair(rng, 12)
            assert alignment_distance(align(a, b)) == reference_distance(a, b)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b = random_pair(rng, 10)
            ops = align(a, b)
            gt_slots = [int(op.gt) for op in ops if op.gt is not None]
            pred_slots = [int(op.pred) for op in ops if op.pred is not None]
            assert gt_slots == a
            assert pred_slots == b

    def test_deterministic_backtrace(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = random_pair(rng, 8)
            assert align(a, b) == align(a, b)

    def test_rejects_tokens_outside_alphabet(self):
        with pytest.raises(DataError, match="alphabet"):
            align([0, 5], [1])


def int64_dp_table(gt, pred):
    """The cost table as align() filled it in int64, the oracle for the narrow one."""
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


class TestNarrowCostTable:
    """_dp_table takes the narrowest unsigned type that holds n + m + 1, and
    align() returns the op lists it returned with the int64 table."""

    @staticmethod
    def assert_same_ops(monkeypatch, a, b):
        import primcount.evaluation as evaluation

        narrow = evaluation._dp_table
        got = align(a, b)
        monkeypatch.setattr(evaluation, "_dp_table", int64_dp_table)
        want = align(a, b)
        monkeypatch.setattr(evaluation, "_dp_table", narrow)
        assert got == want
        codes = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        table = narrow(*codes)
        assert table.dtype == np.min_scalar_type(len(a) + len(b) + 1)
        assert (table == int64_dp_table(*codes)).all()

    def test_random_pairs_with_many_ties(self, monkeypatch):
        rng = np.random.default_rng(30)
        for _ in range(400):
            n, m = rng.integers(0, 30, size=2)
            k = int(rng.integers(1, 4))  # one to three classes: many tied branches
            self.assert_same_ops(monkeypatch, rng.integers(0, k, n).tolist(),
                                 rng.integers(0, k, m).tolist())

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 7), (7, 0), (0, 300), (300, 0)])
    def test_empty_sides(self, monkeypatch, n, m):
        rng = np.random.default_rng(n + m)
        self.assert_same_ops(monkeypatch, rng.integers(0, 5, n).tolist(),
                             rng.integers(0, 5, m).tolist())

    @pytest.mark.parametrize("n, m", [(127, 127), (100, 154), (154, 100), (128, 127),
                                      (200, 255), (255, 260), (470, 300)])
    def test_lengths_on_both_sides_of_255(self, monkeypatch, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        for k in (1, 2, 5):
            self.assert_same_ops(monkeypatch, rng.integers(0, k, n).tolist(),
                                 rng.integers(0, k, m).tolist())


class TestAlignmentOp:
    def test_costs(self):
        assert AlignmentOp(R, R).cost == 0
        assert AlignmentOp(R, I).cost == 1
        assert AlignmentOp(R, None).cost == 1
        assert AlignmentOp(None, R).cost == 1

    def test_kind_derived_from_the_pair(self):
        assert AlignmentOp(R, R).kind == MATCH
        assert AlignmentOp(R, I).kind == SUBSTITUTION
        assert AlignmentOp(R, None).kind == DELETION
        assert AlignmentOp(None, R).kind == INSERTION


class TestTally:
    def test_schematic_pattern(self):
        # one of each outcome: match, deletion, substitution, insertion
        ops = [
            AlignmentOp(T, T),
            AlignmentOp(S, None),
            AlignmentOp(R, I),
            AlignmentOp(None, R),
        ]
        t = tally(ops)
        assert t.total_tp == 1
        assert t.total_fn == 2
        assert t.total_fp == 2
        assert t.fn_deletion[int(S)] == 1
        assert t.fn_swap_out[int(R)] == 1
        assert t.fp_swap_in[int(I)] == 1
        assert t.fp_insertion[int(R)] == 1
        assert t.substitutions[int(R), int(I)] == 1

    def test_all_matches(self):
        ops = [AlignmentOp(c, c) for c in CLASSES]
        t = tally(ops)
        assert t.total_tp == 5
        assert t.total_fn == 0
        assert t.total_fp == 0
        np.testing.assert_array_equal(t.tp, 1)

    def test_length_invariants_random(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            a, b = random_pair(rng, 15)
            t = tally(align(a, b))
            assert t.gt_length == len(a)
            assert t.pred_length == len(b)
            assert t.fn_swap_out.sum() == t.fp_swap_in.sum() == t.substitutions.sum()
            assert t.distance == reference_distance(a, b)
            np.testing.assert_array_equal(
                t.counts.sum(axis=1)[:GAP], np.bincount(a, minlength=5)
            )
            np.testing.assert_array_equal(
                t.counts.sum(axis=0)[:GAP], np.bincount(b, minlength=5)
            )

    def test_addition(self):
        rng = np.random.default_rng(3)
        a1, b1 = random_pair(rng, 10)
        a2, b2 = random_pair(rng, 10)
        combined = tally(align(a1, b1)) + tally(align(a2, b2))
        assert combined.gt_length == len(a1) + len(a2)
        assert combined.pred_length == len(b1) + len(b2)

    def test_derived_arrays_are_read_only(self):
        t = tally(align([R, T, S], [R, I]))
        for name in ("tp", "fn", "fp", "fn_deletion", "fp_insertion",
                     "substitutions", "fn_swap_out", "fp_swap_in"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(t, name)[0] = 7
        assert t.total_tp == 1


class TestMetrics:
    def test_reported_f1_from_sensitivity_and_fdr(self):
        assert abs(f1_score(0.767, 0.166) - 0.799) < 0.0005

    def test_formulas(self):
        t = OutcomeTallies()
        t.counts[0, 0] = 6
        t.counts[1, GAP] = 2
        t.counts[GAP, 2] = 1
        t.counts[3, 4] = 1
        m = metrics(t)
        assert m.sensitivity == 6 / 9
        assert m.fdr == 2 / 8
        assert m.f1 == 12 / 17
        assert m.aer == 4 / 9

    def test_aer_examples(self):
        m = metrics(([R, T, S, I], [R, T, S, S]))
        assert m.aer == 0.25
        m = metrics(([R], [R, I, I]))
        assert m.aer == 2.0

    def test_f1_equals_harmonic_mean(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a, b = random_pair(rng, 12)
            m = metrics((a, b))
            t = tally(align(a, b))
            if t.total_tp == 0:
                continue
            s, p = m.sensitivity, 1.0 - m.fdr
            assert abs(m.f1 - 2 * s * p / (s + p)) < 1e-12

    def test_aer_zero_iff_identical(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = random_pair(rng, 8)
            if not a:
                continue
            m = metrics((a, b))
            assert (m.aer == 0.0) == (a == b)

    def test_undefined_flags(self):
        m = metrics(([], []))
        assert math.isnan(m.sensitivity)
        assert math.isnan(m.fdr)
        assert math.isnan(m.f1)
        assert math.isnan(m.aer)
        m = metrics(([], [R]))
        assert math.isnan(m.sensitivity)
        assert m.fdr == 1.0
        assert math.isnan(m.aer)

    def test_json_uses_null_for_undefined(self):
        m = metrics(([], []))
        assert m.to_json()["sensitivity"] is None


class TestConfusionMatrix:
    def test_perfect_predictions(self):
        seq = [R, P, T, S, I] * 3
        cm = confusion_matrix(tally(align(seq, seq)))
        np.testing.assert_allclose(cm.matrix, np.eye(5))
        np.testing.assert_allclose(cm.deleted_fraction, 0.0)

    def test_fully_deleted_class(self):
        t = tally(align([R, R, R], []))
        cm = confusion_matrix(t)
        np.testing.assert_allclose(cm.matrix[0], 0.0)
        assert cm.deleted_fraction[0] == 1.0
        assert math.isnan(cm.matrix[1, 1])

    def test_row_sum_invariant(self):
        rng = np.random.default_rng(42)
        total = OutcomeTallies()
        for _ in range(200):
            a, b = random_pair(rng, 12)
            total = total + tally(align(a, b))
        cm = confusion_matrix(total)
        for r in range(5):
            if total.tp[r] + total.fn[r] == 0:
                continue
            row = cm.matrix[r].sum() + cm.deleted_fraction[r]
            assert abs(row - 1.0) < 1e-12

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(9)
        total = OutcomeTallies()
        for _ in range(100):
            a, b = random_pair(rng, 10)
            total = total + tally(align(a, b))
        cm = confusion_matrix(total)
        finite = cm.matrix[~np.isnan(cm.matrix)]
        assert ((finite >= 0) & (finite <= 1)).all()


def record(subject, activity, tp, fn, fp):
    t = OutcomeTallies()
    t.counts[0, 0] = tp
    t.counts[1, GAP] = fn
    t.counts[GAP, 2] = fp
    return AlignmentRecord(subject, activity, t)


class TestAggregate:
    def test_micro_vs_subject_mean(self):
        records = [record("s1", "a", 1, 1, 0), record("s2", "a", 3, 1, 0)]
        out = aggregate(records, group_by="overall")["overall"]
        assert abs(out.micro.sensitivity - 4 / 6) < 1e-12
        assert abs(out.subject_mean.sensitivity - 0.625) < 1e-12
        assert out.n_subjects == 2

    def test_single_subject_equals_pooled(self):
        records = [record("s1", "a", 2, 1, 1), record("s1", "a", 4, 0, 2)]
        out = aggregate(records)["overall"]
        pooled = metrics(_total(records))
        assert out.micro == pooled
        assert out.subject_mean.sensitivity == pooled.sensitivity
        assert out.subject_std.sensitivity == 0.0

    def test_activity_grouping_matches_manual_partition(self):
        rng = np.random.default_rng(42)
        records = []
        for subject in ("s1", "s2", "s3"):
            for activity in ("x", "y"):
                for _ in range(4):
                    a, b = random_pair(rng, 10)
                    records.append(
                        AlignmentRecord(subject, activity, tally(align(a, b)))
                    )
        out = aggregate(records, group_by="activity")
        assert set(out) == {"x", "y"}
        for activity in ("x", "y"):
            manual = metrics(
                _total([r for r in records if r.activity == activity])
            )
            assert out[activity].micro == manual

    def test_class_grouping_slices_tallies(self):
        records = [record("s1", "a", 3, 2, 1)]
        out = aggregate(records, group_by="primitive_class")
        assert out["reach"].micro.sensitivity == 1.0
        assert math.isnan(out["reposition"].micro.sensitivity) is False
        assert out["reposition"].micro.sensitivity == 0.0
        assert out["transport"].micro.fdr == 1.0
        assert math.isnan(out["stabilize"].micro.sensitivity)

    def test_class_grouping_from_op_lists(self):
        rng = np.random.default_rng(11)
        records, ops = [], []
        for subject in ("s1", "s2", "s3"):
            for _ in range(5):
                a, b = random_pair(rng, 12)
                ops += align(a, b)
                records.append(AlignmentRecord(subject, "x", tally(align(a, b))))
        out = aggregate(records, group_by="primitive_class")
        for c in CLASSES:
            tp = sum(op.gt == c and op.pred == c for op in ops)
            fn = sum(op.gt == c and op.pred != c for op in ops)
            fp = sum(op.pred == c and op.gt != c for op in ops)
            ins = sum(op.gt is None and op.pred == c for op in ops)
            expected = [
                tp / (tp + fn) if tp + fn else math.nan,
                fp / (tp + fp) if tp + fp else math.nan,
                2 * tp / (2 * tp + fn + fp) if 2 * tp + fn + fp else math.nan,
                (fn + ins) / (tp + fn) if tp + fn else math.nan,
            ]
            m = out[c.label].micro
            np.testing.assert_array_equal([m.sensitivity, m.fdr, m.f1, m.aer], expected)

    def test_subject_grouping(self):
        records = [record("s1", "a", 1, 1, 0), record("s2", "a", 3, 1, 0)]
        out = aggregate(records, group_by="subject")
        assert out["s1"].micro.sensitivity == 0.5
        assert out["s2"].micro.sensitivity == 0.75

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no alignment records"):
            aggregate([])
        with pytest.raises(DataError, match="unknown group_by"):
            aggregate([record("s", "a", 1, 0, 0)], group_by="trial")


def _total(records):
    t = OutcomeTallies()
    for r in records:
        t = t + r.tallies
    return t

