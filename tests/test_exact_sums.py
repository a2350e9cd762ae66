"""Exact DCG and AP sums: the fixed-point prefix sums and the fsum loop give
``math.fsum``'s bits on the same inputs, and a whole split's evaluation
calls no ``math.fsum``."""

import math

import numpy as np
import pytest

from smoothrank import Scorer, data_io, evaluate, ideal_dcg_at_k, ltr_model
from smoothrank.rank_core import FIXED_POINT_MIN_SUMS, _fixed_point_sums, _prefix_fsums, ideal_dcg


def fsum_loop(terms, cuts):
    """The definition: one ``math.fsum`` per row and cutoff."""
    cuts = np.asarray(cuts)
    sums = [[math.fsum(row[:c]) for c in row_cuts] for row, row_cuts in zip(terms.tolist(), cuts.tolist())]
    return np.array(sums, dtype=np.float64).reshape(cuts.shape)


def assert_bits(got, want):
    assert got.shape == want.shape
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def dcg_terms(rng, b, n, top=5):
    grades = rng.integers(0, top, size=(b, n)).astype(np.float64)
    return (np.exp2(grades) - 1.0) / np.log2(np.arange(2.0, n + 2.0))


def ap_terms(rng, b, n):
    binary = (rng.random((b, n)) < 0.4).astype(np.float64)
    return binary * (np.cumsum(binary, axis=1) / np.arange(1.0, n + 1.0))


def random_cuts(rng, b, n, m):
    cuts = rng.integers(0, n + 1, size=(b, m))
    cuts[:, 0] = n
    return cuts


def assert_both_paths(terms, cuts):
    """Both paths, on the same inputs, have the fsum loop's bits."""
    want = fsum_loop(terms, cuts)
    fixed = _fixed_point_sums(terms, np.asarray(cuts))
    assert fixed is not None
    assert_bits(fixed, want)
    assert_bits(_prefix_fsums(terms, cuts), want)


@pytest.fixture()
def fsum_calls(monkeypatch):
    """Counts the ``math.fsum`` calls made while the test runs."""
    calls = []
    real = math.fsum

    def counting(values):
        calls.append(1)
        return real(values)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


@pytest.mark.parametrize("make", [dcg_terms, ap_terms], ids=["dcg", "ap"])
@pytest.mark.parametrize("seed", range(6))
def test_random_batches_have_the_bits_of_the_loop(make, seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        b, n, m = int(rng.integers(1, 70)), int(rng.integers(1, 130)), int(rng.integers(1, 5))
        assert_both_paths(make(rng, b, n), random_cuts(rng, b, n, m))


def test_rows_of_mixed_magnitudes_have_the_bits_of_the_loop():
    rng = np.random.default_rng(7)
    for _ in range(40):
        b, n = int(rng.integers(1, 40)), int(rng.integers(1, 60))
        # exponents spread over 17 binades, within the guard for 63 columns
        terms = rng.uniform(0.5, 1.0, size=(b, n)) * np.exp2(rng.integers(-8, 9, size=(b, n)))
        terms[rng.random((b, n)) < 0.3] = 0.0
        assert_both_paths(terms, random_cuts(rng, b, n, 3))


def test_ties_round_half_to_even():
    # 2 + 2**-52 lies halfway between 2 and 2 + 2**-51, which rounds to 2;
    # 2 + 3 * 2**-52 halfway to the even 2 + 2**-50, which rounds up
    terms = np.array([[1.0 + 2.0**-52, 1.0], [1.0 + 3 * 2.0**-52, 1.0]])
    assert_both_paths(terms, [[2, 1], [2, 0]])
    assert _prefix_fsums(terms, [[2], [2]]).ravel().tolist() == [2.0, 2.0 + 2.0**-50]


def test_the_widest_spread_the_guard_takes_is_exact():
    # 32 columns: the guard takes exponent spreads up to 53 - 27 - 6 = 20, and
    # 31 terms just below 2**20 bring the high limb's sums close to 2**53
    n = 32
    terms = np.full((2, n), math.nextafter(2.0**20, 0.0))
    terms[:, 0] = 0.5 + 2.0**-53
    terms[1, 5] = 0.75
    assert_both_paths(terms, [[n, 1, 7], [n, 0, 31]])
    terms[0, 0] = 0.25  # spread 21
    assert _fixed_point_sums(terms, np.array([[n]])) is None


def test_all_zero_rows_and_batches():
    rng = np.random.default_rng(3)
    terms = dcg_terms(rng, 6, 9)
    terms[[1, 4]] = 0.0
    assert_both_paths(terms, random_cuts(rng, 6, 9, 2))
    zeros = np.zeros((5, 9))
    assert_both_paths(zeros, random_cuts(rng, 5, 9, 2))


def test_cutoffs_zero_and_full():
    rng = np.random.default_rng(4)
    terms = ap_terms(rng, 10, 12)
    cuts = np.tile([0, 12, 0, 12], (10, 1))
    assert_both_paths(terms, cuts)
    assert _prefix_fsums(terms, cuts)[:, 0].tolist() == [0.0] * 10


def test_one_column_and_one_row():
    rng = np.random.default_rng(5)
    assert_both_paths(dcg_terms(rng, 40, 1), rng.integers(0, 2, size=(40, 1)))
    assert_both_paths(dcg_terms(rng, 1, 50), random_cuts(rng, 1, 50, 4))


@pytest.mark.parametrize("sums", [FIXED_POINT_MIN_SUMS - 1, FIXED_POINT_MIN_SUMS])
def test_the_crossover_picks_the_path(fsum_calls, sums):
    rng = np.random.default_rng(6)
    terms, cuts = dcg_terms(rng, sums, 20), rng.integers(0, 21, size=(sums, 1))
    want = fsum_loop(terms, cuts)
    fsum_calls.clear()
    got = _prefix_fsums(terms, cuts)
    assert len(fsum_calls) == (sums if sums < FIXED_POINT_MIN_SUMS else 0)
    assert_bits(got, want)


def one_term(value):
    def put(terms):
        terms[3, 7] = value
    return put


def scaled(factor):
    def put(terms):
        terms *= factor
    return put


OUTSIDE_THE_GUARD = {
    "spread": one_term(2.0**-40),
    "near underflow": scaled(2.0**-1000),
    "subnormal": one_term(5e-324),
    "negative": one_term(-0.5),
    "nan": one_term(math.nan),
    "inf": one_term(math.inf),
}


@pytest.mark.parametrize("case", OUTSIDE_THE_GUARD)
def test_terms_outside_the_guard_take_the_loop(fsum_calls, case):
    rng = np.random.default_rng(8)
    terms = dcg_terms(rng, 40, 16)
    OUTSIDE_THE_GUARD[case](terms)
    cuts = random_cuts(rng, 40, 16, 2)
    assert _fixed_point_sums(terms, cuts) is None
    want = fsum_loop(terms, cuts)
    fsum_calls.clear()
    got = _prefix_fsums(terms, cuts)
    assert len(fsum_calls) == cuts.size
    np.testing.assert_array_equal(got, want)


def test_the_smallest_terms_the_guard_takes_are_exact():
    rng = np.random.default_rng(9)
    terms = dcg_terms(rng, 40, 16) * 2.0**-990
    terms[0, 0] = 2.0**-997  # the smallest exponent the guard takes
    cuts = random_cuts(rng, 40, 16, 2)
    assert_both_paths(terms, cuts)
    terms[0, 0] = 2.0**-998
    assert _fixed_point_sums(terms, cuts) is None


@pytest.mark.parametrize("lists", [1, FIXED_POINT_MIN_SUMS], ids=["loop", "fixed point"])
@pytest.mark.parametrize("cutoff", [-1, 5])
def test_ideal_dcg_refuses_a_cutoff_outside_the_list(fsum_calls, lists, cutoff):
    grades = np.ones((lists, 4))
    cuts = np.full((lists, 2), 4)
    cuts[-1, 1] = cutoff
    fsum_calls.clear()
    with pytest.raises(ValueError, match=rf"^cutoff={cutoff} out of range \[0, 4\]$"):
        ideal_dcg(grades, cuts)
    assert fsum_calls == []
    cuts[-1, 1] = 0
    assert ideal_dcg(grades, cuts)[-1].tolist() == [math.fsum(1.0 / np.log2(np.arange(2.0, 6.0))), 0.0]


def test_a_split_evaluates_without_fsum(fsum_calls):
    # 120 graded lists of 24 documents, as sweep-graded evaluates them
    ds = data_io.synthesize(122, 24, 5, seed=0, graded=True).split_by_counts(1, 1, 120)
    scorer = Scorer(5, hidden_dim=16, seed=0)
    fsum_calls.clear()
    result = evaluate(scorer, ds, "test")
    plan = ltr_model._ValidationPlan(ds, "test", ltr_model.EVAL_CUTOFFS)
    plan.run(scorer)
    assert result.query_count == 120
    assert fsum_calls == []


@pytest.mark.parametrize("k", [0, -1, 7, 2.5, 2.0, True, "2"])
def test_ideal_dcg_at_k_checks_the_cutoff(k):
    with pytest.raises(ValueError, match="k"):
        ideal_dcg_at_k([2.0, 0.0, 1.0, 1.0, 0.0, 3.0], k)


@pytest.mark.parametrize("rel", [[1.0, -1.0, 2.0], [1.0, math.nan, 2.0], [[1.0, 2.0, 0.0]]])
def test_ideal_dcg_at_k_checks_the_grades(rel):
    with pytest.raises(ValueError, match="relevance"):
        ideal_dcg_at_k(rel, 2)


def test_ideal_dcg_at_k_is_the_sorted_dcg():
    rel = [2.0, 0.0, 1.0, 1.0, 0.0, 3.0]
    for k in range(1, 7):
        top = np.sort(rel)[::-1][:k]
        assert ideal_dcg_at_k(rel, k) == math.fsum((np.exp2(top) - 1.0) / np.log2(np.arange(2.0, k + 2.0)))
