"""Every row of the query-kind table, through every serving layer.

One test, parametrized over :data:`repro.serve.kinds.KINDS`: each kind is
answered by ``QueryEngine.query``, ``ShardRouter.query``,
``ProcessShardRouter.query`` and ``AsyncServingFrontend.serve``, which
must agree on value and version, and the answer must match a brute-force
reference computed from the synopses' dense reconstructions
(``F = cumsum(to_dense())``) or, for heavy hitters, from the exact counts
of the live window.  A new kind is covered by adding its row here too:
its reference below, keyed by kind name.
"""

from collections import Counter

import numpy as np
import pytest

from repro import ShardRouter, SynopsisStore, WindowedStreamLearner
from repro.serve import AsyncServingFrontend, QueryEngine, QueryRequest
from repro.serve.kinds import KINDS
from repro.serve.persistence import save_sharded
from repro.serve.workers import ProcessShardRouter

N = 64
ENTRIES = ("e0", "e1", "e2", "e3")
COHORT = "fleet"
WINDOWED = "windowed"

# Arguments by parameter name: batched where the kind takes arrays.
ARGS = {
    "a": np.array([0, 5, 17, 40]),
    "b": np.array([10, 40, 17, 63]),
    "x": np.array([0, 9, 33, 63]),
    "q": np.array([0.0, 0.25, 0.5, 0.99]),
    "m": 3,
    "name_b": "e1",  # on another shard than e0, so the pair crosses shards
    "phi": 0.05,
}


def populate(target):
    """Register the same entries into a store or a router."""
    rng = np.random.default_rng(11)
    for name in ENTRIES:
        target.register(name, rng.random(N) + 0.05, family="merging", k=6)
    learner = WindowedStreamLearner(
        n=N, k=4, window_size=2_000, num_epochs=4, sketch_eps=0.01
    )
    weights = np.full(N, 0.5 / N)
    weights[[3, 30]] += 0.25
    learner.extend(rng.choice(N, size=5_000, p=weights))
    target.register_stream(WINDOWED, learner)
    target.define_cohort(COHORT, ENTRIES[:3])


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    store = SynopsisStore()
    populate(store)
    router = ShardRouter(num_shards=3)
    populate(router)
    path = tmp_path_factory.mktemp("kinds") / "sharded"
    save_sharded(router, path)
    frontend = AsyncServingFrontend(router)
    with ProcessShardRouter(path, workers=2) as process_router:
        yield store, QueryEngine(store), router, frontend, process_router
    frontend.close()


def prefix(store, name):
    """``F[x] = sum_{i < x} f(i)`` of the entry's synopsis."""
    dense = store.snapshot(name)[1].to_dense()
    return np.concatenate(([0.0], np.cumsum(dense)))


def heaviest(lefts, rights, masses, m):
    order = np.argsort(-masses, kind="stable")[:m]
    return [(int(lefts[u]), int(rights[u]), float(masses[u])) for u in order]


def ref_top_k(store, name, m):
    partition = store.snapshot(name)[1].partition
    F = prefix(store, name)
    masses = F[partition.rights + 1] - F[partition.lefts]
    return heaviest(partition.lefts, partition.rights, masses, m)


def ref_group_top_k(store, members, m):
    lefts = np.unique(
        np.concatenate([store.snapshot(n)[1].partition.lefts for n in members])
    )
    rights = np.append(lefts[1:] - 1, N - 1)
    masses = sum(
        prefix(store, n)[rights + 1] - prefix(store, n)[lefts] for n in members
    )
    return heaviest(lefts, rights, masses, m)


def ref_group_sum(store, members, a, b):
    return sum(prefix(store, n)[b + 1] - prefix(store, n)[a] for n in members)


def ref_quantile(store, name, q):
    F = prefix(store, name)
    return np.array([int(np.argmax(F[1:] >= level * F[-1])) for level in q])


#: kind -> brute-force answer from the store, the addressed name and args.
REFERENCE = {
    "range_sum": lambda s, n, a, b: prefix(s, n)[b + 1] - prefix(s, n)[a],
    "range_mean": lambda s, n, a, b: (prefix(s, n)[b + 1] - prefix(s, n)[a])
    / (b - a + 1),
    "point_mass": lambda s, n, x: prefix(s, n)[x + 1] - prefix(s, n)[x],
    "cdf": lambda s, n, x: prefix(s, n)[x + 1] / prefix(s, n)[-1],
    "quantile": ref_quantile,
    "top_k": ref_top_k,
    "inner_product": lambda s, n, other: float(
        np.dot(s.snapshot(n)[1].to_dense(), s.snapshot(other)[1].to_dense())
    ),
    "group_range_sum": lambda s, c, a, b: ref_group_sum(
        s, s.cohort_members(c), a, b
    ),
    "group_range_mean": lambda s, c, a, b: ref_group_sum(
        s, s.cohort_members(c), a, b
    )
    / (b - a + 1),
    "group_top_k": lambda s, c, m: ref_group_top_k(s, s.cohort_members(c), m),
}


def assert_heavy_hitters(learner, phi, hitters):
    """The window guarantee against the exact counts of the live window."""
    truth = Counter()
    for epoch in learner._epochs:
        truth.update(dict(zip(epoch.positions.tolist(), epoch.counts.tolist())))
    total = learner.window_total
    reported = dict(hitters)
    assert reported  # the stream plants two hitters
    for position, true_count in truth.items():
        if true_count >= phi * total:
            assert position in reported
    for position, estimate in hitters:
        assert (phi - learner.sketch_eps) * total <= truth[position]
        assert estimate <= truth[position]


def assert_same(got, want):
    if isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_layer_agrees_with_brute_force(layers, kind):
    store, engine, router, frontend, process_router = layers
    spec = KINDS[kind]
    name = COHORT if spec.group else WINDOWED if spec.source == "learner" else "e0"
    args = tuple(ARGS[param] for param in spec.params)

    value, version = engine.query(kind, name, *args)
    (served,) = frontend.serve([QueryRequest(kind, name, args)])
    assert served.error is None
    answers = [
        router.query(kind, name, *args),
        process_router.query(kind, name, *args),
        (served.value, served.version),
    ]
    for other_value, other_version in answers:
        assert_same(other_value, value)
        assert other_version == version
    if spec.group:
        assert version == {member: 0 for member in store.cohort_members(name)}
    else:
        assert version == store[name].version

    if spec.source == "learner":
        assert_heavy_hitters(store[name].learner, *args, value)
        return
    expected = REFERENCE[kind](store, name, *args)
    if isinstance(expected, list):  # (left, right, mass) buckets
        assert [t[:2] for t in value] == [t[:2] for t in expected]
        np.testing.assert_allclose(
            [t[2] for t in value], [t[2] for t in expected], rtol=1e-9
        )
    else:
        np.testing.assert_allclose(value, expected, rtol=1e-9, atol=1e-12)
