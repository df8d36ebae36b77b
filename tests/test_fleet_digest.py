"""Property tests for the streaming quantile digest and windowed
rollups the control plane aggregates telemetry with
(:mod:`repro.fleet.digest`)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.digest import (
    DigestError,
    QuantileDigest,
    WindowedRollup,
)

finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)
sample_lists = st.lists(finite_floats, min_size=1, max_size=200)
quantiles = st.floats(min_value=0.0, max_value=1.0)


def build(samples, relative_error=0.01):
    d = QuantileDigest(relative_error)
    for x in samples:
        d.add(x)
    return d


def true_rank_value(samples, q):
    """The reference the digest's guarantee is stated against: the
    sorted sample at rank ``ceil(q * (n - 1))``."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(q * (len(ordered) - 1))))
    return ordered[rank]


class TestQuantileDigestAccuracy:
    @given(sample_lists, quantiles)
    @settings(max_examples=200, deadline=None)
    def test_rank_error_bound_vs_sorted_reference(self, samples, q):
        """quantile(q) is within relative error of the true sample at
        that rank (absolute error epsilon near zero)."""
        e = 0.01
        d = build(samples, relative_error=e)
        got = d.quantile(q)
        truth = true_rank_value(samples, q)
        if abs(truth) < d.epsilon:
            assert abs(got - truth) <= d.epsilon
        else:
            # The clamp to [min, max] can only move the estimate toward
            # the truth, so the bin bound is still valid.
            assert abs(got - truth) <= e * abs(truth) + d.epsilon

    @given(sample_lists)
    @settings(max_examples=100, deadline=None)
    def test_extremes_exact(self, samples):
        d = build(samples)
        assert d.quantile(0.0) == min(samples)
        assert d.quantile(1.0) == max(samples)
        assert d.min == min(samples)
        assert d.max == max(samples)

    @given(sample_lists, quantiles)
    @settings(max_examples=100, deadline=None)
    def test_estimate_within_observed_range(self, samples, q):
        d = build(samples)
        assert min(samples) <= d.quantile(q) <= max(samples)

    def test_single_sample_every_quantile(self):
        d = build([42.5])
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert d.quantile(q) == 42.5

    def test_empty_digest_raises(self):
        d = QuantileDigest()
        assert d.count == 0
        assert d.min is None and d.max is None
        with pytest.raises(DigestError):
            d.quantile(0.5)

    def test_rejects_bad_inputs(self):
        d = QuantileDigest()
        with pytest.raises(DigestError):
            d.add(float("nan"))
        with pytest.raises(DigestError):
            d.add(float("inf"))
        with pytest.raises(DigestError):
            d.add(1.0, n=0)
        d.add(1.0)
        with pytest.raises(DigestError):
            d.quantile(1.5)
        with pytest.raises(DigestError):
            QuantileDigest(relative_error=1.5)

    def test_weighted_add_equals_repeated_add(self):
        a = QuantileDigest()
        a.add(3.25, n=7)
        b = QuantileDigest()
        for _ in range(7):
            b.add(3.25)
        assert a == b


class TestQuantileDigestMerge:
    @given(st.lists(finite_floats, max_size=60),
           st.lists(finite_floats, max_size=60),
           st.lists(finite_floats, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_merge_exactly_associative_and_commutative(self, xs, ys, zs):
        a, b, c = build(xs), build(ys), build(zs)
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(st.lists(finite_floats, max_size=60),
           st.lists(finite_floats, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_single_stream(self, xs, ys):
        """Sharded ingestion folds to exactly the unsharded sketch."""
        assert build(xs).merge(build(ys)) == build(xs + ys)

    def test_merge_identity_and_mismatch(self):
        d = build([1.0, 2.0])
        empty = QuantileDigest()
        assert d.merge(empty) == d
        with pytest.raises(DigestError):
            d.merge(QuantileDigest(relative_error=0.05))
        with pytest.raises(DigestError):
            d.merge("not a digest")

    @given(sample_lists)
    @settings(max_examples=50, deadline=None)
    def test_dict_round_trip(self, samples):
        d = build(samples)
        assert QuantileDigest.from_dict(d.to_dict()) == d


class TestWindowedRollupBoundaries:
    # Binary-representable widths: k*w and its division back are exact
    # in float64, so the boundary membership is well-defined. For
    # arbitrary widths only the covering invariant below can hold.
    @given(st.sampled_from([0.25, 0.5, 1.0, 2.0, 30.0, 60.0, 600.0]),
           st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=200, deadline=None)
    def test_boundary_sample_opens_new_window(self, width, k):
        """A sample exactly on a window boundary belongs to the window
        it opens: window k covers [k*w, (k+1)*w)."""
        r = WindowedRollup(width)
        t = k * r.window_s
        stat = r.add(t, 1.0)
        assert r.window_index(t) == k
        assert stat.start == pytest.approx(k * r.window_s)
        assert stat.start <= t < stat.end

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        finite_floats), min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_every_sample_lands_in_its_covering_window(self, points):
        r = WindowedRollup(60.0)
        for t, v in points:
            stat = r.add(t, v)
            assert stat.start <= t < stat.end
        assert r.count == len(points)
        starts = [w.start for w in r.windows()]
        assert starts == sorted(starts)

    def test_windows_align_to_multiples_of_width(self):
        r = WindowedRollup(600.0)
        for t in (0.0, 599.999, 600.0, 1234.5, 1799.9, 1800.0):
            r.add(t, 1.0)
        assert [w.start for w in r.windows()] == [0.0, 600.0, 1200.0, 1800.0]
        assert [w.count for w in r.windows()] == [2, 1, 2, 1]

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        finite_floats), max_size=50),
        st.lists(st.tuples(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            finite_floats), max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_single_stream(self, xs, ys):
        def fold(points):
            r = WindowedRollup(30.0)
            for t, v in points:
                r.add(t, v)
            return r

        merged = fold(xs).merge(fold(ys))
        combined = fold(xs + ys)
        got = [w.to_dict() for w in merged.windows()]
        want = [w.to_dict() for w in combined.windows()]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            # Digest-backed fields (count/min/max/percentiles) merge
            # exactly; the float running total is only associative up
            # to summation order, so the mean gets an ulp of slack.
            assert g["mean"] == pytest.approx(w["mean"], rel=1e-12,
                                              abs=1e-12)
            g.pop("mean"), w.pop("mean")
            assert g == w

    def test_merge_mismatch_and_bad_width(self):
        with pytest.raises(DigestError):
            WindowedRollup(0.0)
        with pytest.raises(DigestError):
            WindowedRollup(10.0).merge(WindowedRollup(20.0))

    def test_window_stats(self):
        r = WindowedRollup(10.0)
        for v in (1.0, 2.0, 3.0):
            r.add(5.0, v)
        (w,) = r.windows()
        assert w.mean == pytest.approx(2.0)
        assert w.min == 1.0 and w.max == 3.0
        doc = w.to_dict()
        assert doc["count"] == 3
        assert doc["p50"] == pytest.approx(2.0, rel=0.03)
