"""Shared hypothesis strategies for the test suite.

Kept in a plain module (not ``conftest.py``) so test files can import the
strategies explicitly: ``from helpers import dense_arrays`` resolves to this
file because pytest puts each test's directory on ``sys.path``, whereas
``from conftest import ...`` is ambiguous once other rootdirs (e.g.
``benchmarks/``) contribute their own ``conftest.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro import (
    Histogram,
    Partition,
    PiecewisePolynomial,
    QueryRequest,
    SparseFunction,
    fit_polynomial,
    wavelet_synopsis,
)

__all__ = [
    "assert_same_answers",
    "coalescing_batch",
    "dense_arrays",
    "histograms",
    "piecewise_polynomials",
    "positive_dense_arrays",
    "sparse_functions",
    "summary_metadata",
    "synopsis_objects",
    "wavelet_synopses",
]


def summary_metadata(store):
    """``store.summary()`` rows minus live residency state.

    ``hydrated``/``resident_bytes`` describe the current memory tier of
    each entry (in-memory builds are resident, a lazy load starts cold),
    so round-trip tests compare the persisted metadata only.
    """
    rows = [dict(row) for row in store.summary()]
    for row in rows:
        row.pop("hydrated", None)
        row.pop("resident_bytes", None)
    return rows


def coalescing_batch(names, n, seed=3):
    """One batch over every coalescing route of the serving front ends.

    ``names[:-1]`` get many same-entry groups: 1-D array requests mixed
    with scalar requests of every coalescible kind, as Python ints and
    floats, NumPy scalars, bools and 0-d arrays.  ``names[-1]`` gets one
    request per kind, so each of its groups holds one request.
    """
    rng = np.random.default_rng(seed)
    hot, single = list(names[:-1]) or list(names), names[-1]

    def position():
        return int(rng.integers(0, n))

    requests = []
    for _ in range(12):  # 1-D array requests
        a = rng.integers(0, n, 8)
        b = rng.integers(0, n, 8)
        name = hot[int(rng.integers(len(hot)))]
        requests.append(
            QueryRequest("range_sum", name, (np.minimum(a, b), np.maximum(a, b)))
        )
    for _ in range(30):  # scalar requests, every coalescible kind
        name = hot[int(rng.integers(len(hot)))]
        lo, hi = sorted((position(), position()))
        q = float(rng.random())
        requests.extend(
            [
                QueryRequest("range_sum", name, (lo, hi)),
                QueryRequest("range_mean", name, (np.int64(lo), hi)),
                QueryRequest("point_mass", name, (np.int32(position()),)),
                QueryRequest("cdf", name, (position(),)),
                QueryRequest("quantile", name, (q,)),
                QueryRequest("quantile", name, (np.float32(q),)),
            ]
        )
    requests.extend(
        [
            QueryRequest("point_mass", hot[0], (True,)),
            QueryRequest("range_sum", hot[0], (False, np.bool_(True))),
            QueryRequest("quantile", hot[0], (True,)),
            QueryRequest("cdf", hot[0], (np.asarray(position()),)),
            QueryRequest("range_mean", hot[0], (np.asarray([1, 2]), 5)),
            QueryRequest("range_sum", single, (3, n - 1)),
            QueryRequest("range_mean", single, (np.asarray([0, 4]), 9)),
            QueryRequest("point_mass", single, (np.int64(position()),)),
            QueryRequest("cdf", single, (position(),)),
            QueryRequest("quantile", single, (0.5,)),
        ]
    )
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def assert_same_answers(got, want):
    """Results agree bit for bit: values (same Python or NumPy types),
    versions and error-ness, request by request."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.index, g.name, g.kind) == (w.index, w.name, w.kind)
        assert g.version == w.version
        assert (g.error is None) == (w.error is None), (g.error, w.error)
        assert type(g.value) is type(w.value), (g, w)
        if isinstance(w.value, np.ndarray):
            assert g.value.dtype == w.value.dtype
            assert g.value.tobytes() == w.value.tobytes()
        elif isinstance(w.value, float):
            assert np.float64(g.value).tobytes() == np.float64(w.value).tobytes()
        else:
            assert g.value == w.value


def dense_arrays(min_size: int = 1, max_size: int = 40):
    """Dense float arrays with values in a tame range."""
    return st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=32),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda xs: np.asarray(xs, dtype=np.float64))


def positive_dense_arrays(min_size: int = 1, max_size: int = 40):
    """Dense strictly-positive float arrays (safe for cdf/quantile queries)."""
    return st.lists(
        st.floats(min_value=0.015625, max_value=10.0, allow_nan=False, width=32),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda xs: np.asarray(xs, dtype=np.float64))


@st.composite
def _partitions(draw, n: int):
    count = draw(st.integers(min_value=1, max_value=min(n, 6)))
    rights = []
    if count > 1:  # count >= 2 implies n >= 2, so [0, n-2] is non-empty
        rights = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 2),
                min_size=count - 1,
                max_size=count - 1,
                unique=True,
            )
        )
    return Partition(n, np.asarray(sorted(rights) + [n - 1], dtype=np.int64))


@st.composite
def histograms(draw, max_n: int = 60):
    """Random histograms: random partitions with random (any-sign) values."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    partition = draw(_partitions(n))
    values = draw(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=32),
            min_size=partition.num_intervals,
            max_size=partition.num_intervals,
        )
    )
    return Histogram(partition, np.asarray(values, dtype=np.float64))


@st.composite
def wavelet_synopses(draw, max_n: int = 40, max_budget: int = 10):
    """Random B-term Haar synopses, including the non-power-of-two padded path."""
    dense = draw(positive_dense_arrays(min_size=1, max_size=max_n))
    budget = draw(st.integers(min_value=1, max_value=max_budget))
    return wavelet_synopsis(dense, budget)


@st.composite
def piecewise_polynomials(draw, max_n: int = 50, max_degree: int = 3):
    """Random piecewise polynomials: per-piece l2 fits of a random sparse q."""
    q = draw(sparse_functions(max_n=max_n))
    partition = draw(_partitions(q.n))
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    fits = [fit_polynomial(q, a, b, degree) for a, b in partition]
    return PiecewisePolynomial(q.n, fits)


def synopsis_objects():
    """One strategy covering every serializable synopsis family."""
    return st.one_of(
        histograms(),
        wavelet_synopses(),
        piecewise_polynomials(),
        sparse_functions(),
    )


@st.composite
def sparse_functions(draw, max_n: int = 60, max_nonzeros: int = 12):
    """Random sparse functions on small universes."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    count = draw(st.integers(min_value=0, max_value=min(max_nonzeros, n)))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    indices = sorted(indices)
    values = draw(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=32).filter(
                lambda v: v != 0.0
            ),
            min_size=len(indices),
            max_size=len(indices),
        )
    )
    return SparseFunction(n, indices, values)
