"""Fleet-scale serving: bulk cohort registration, group-by queries, and
tiered residency under a memory budget.

The load-bearing properties:

* ``register_many`` is *bit-identical* to the per-entry ``register_auto``
  loop (plan, payload, version) — amortizing one plan over a cohort must
  never change what gets built (Hypothesis, plain and sharded).
* Group-by answers are *exact*: equal to the member-wise sum/merge for
  every pair of synopsis families, carrying per-member snapshot versions.
* A ``ResidencyManager`` budget bounds resident payload bytes while every
  answer stays correct — cooled entries re-hydrate transparently.
* Cohort definitions persist (schema bump) while cohort-less stores keep
  stamping the previous schema so older readers still load them.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import positive_dense_arrays
from repro import (
    BuildBudget,
    QueryEngine,
    ResidencyManager,
    ShardRouter,
    SynopsisStore,
)
from repro.obs import get_default_registry
from repro.serve import (
    SYNOPSIS_FAMILIES,
    AsyncServingFrontend,
    QueryRequest,
    duplicate_entry_message,
    synopsis_to_dict,
)
from repro.serve.persistence import (
    MMAP_SCHEMA_VERSION,
    SHARDED_SCHEMA_VERSION,
    STORE_SCHEMA_VERSION,
    load_store,
    read_manifest,
    read_sharded_manifest,
    save_sharded,
)

# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def fleet_signals(count, n=48, seed=0):
    """Similar-but-distinct positive series, one per cohort member."""
    rng = np.random.default_rng(seed)
    base = np.abs(rng.normal(2.0, 0.4, n)) + 0.01
    return [
        (
            f"u{i}",
            base * rng.uniform(0.8, 1.25) + np.abs(rng.normal(0.0, 0.05, n)),
        )
        for i in range(count)
    ]


def plan_fingerprint(plan):
    """A plan's decision record minus wall-clock timing fields."""

    def scrub(obj):
        if isinstance(obj, dict):
            return {
                key: scrub(value)
                for key, value in obj.items()
                if key not in ("build_ms", "build_seconds")
            }
        if isinstance(obj, list):
            return [scrub(value) for value in obj]
        return obj

    return scrub(plan.to_dict())


def assert_payload_equal(a, b):
    """Two synopses serialize to bitwise-equal payloads."""

    def compare(da, db, path=""):
        assert type(da) is type(db), path
        if isinstance(da, dict):
            assert da.keys() == db.keys(), path
            for key in da:
                compare(da[key], db[key], f"{path}.{key}")
        elif isinstance(da, np.ndarray):
            np.testing.assert_array_equal(da, db, err_msg=path)
        else:
            assert da == db, path

    compare(synopsis_to_dict(a), synopsis_to_dict(b))


# --------------------------------------------------------------------- #
# Bulk registration parity
# --------------------------------------------------------------------- #


class TestRegisterManyParity:
    @given(
        positive_dense_arrays(min_size=16, max_size=40),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_bit_identical_to_per_entry_loop(self, values, count):
        # Identical member series: the amortized plan's reuse path must
        # reproduce exactly what per-entry probing builds — same plan
        # record (member metrics spliced in), same payload, same version.
        budget = BuildBudget(max_bytes=256)
        named = [(f"d{i}", values) for i in range(count)]

        loop_store = SynopsisStore()
        for name, data in named:
            loop_store.register_auto(name, data, budget)
        bulk_store = SynopsisStore()
        bulk_store.register_many(named, budget, cohort="all")

        for name, _ in named:
            one, many = loop_store[name], bulk_store[name]
            assert one.version == many.version
            assert plan_fingerprint(one.plan) == plan_fingerprint(many.plan)
            assert_payload_equal(one.result.synopsis, many.result.synopsis)
        assert bulk_store.cohorts() == {"all": tuple(n for n, _ in named)}

    @given(
        positive_dense_arrays(min_size=16, max_size=40),
        st.integers(min_value=3, max_value=5),
    )
    @settings(max_examples=6, deadline=None)
    def test_sharded_parity(self, values, count):
        budget = BuildBudget(max_bytes=256)
        named = [(f"d{i}", values) for i in range(count)]

        loop_router = ShardRouter(num_shards=2)
        for name, data in named:
            loop_router.register_auto(name, data, budget)
        bulk_router = ShardRouter(num_shards=2)
        bulk_router.register_many(named, budget, cohort="all")

        for name, _ in named:
            assert loop_router.shard_map.shard_of(
                name
            ) == bulk_router.shard_map.shard_of(name)
            one = loop_router._shard_for_registered(name).store[name]
            many = bulk_router._shard_for_registered(name).store[name]
            assert one.version == many.version
            assert plan_fingerprint(one.plan) == plan_fingerprint(many.plan)
            assert_payload_equal(one.result.synopsis, many.result.synopsis)

    def test_single_map_version_bump(self):
        router = ShardRouter(num_shards=3)
        before = router.shard_map.version
        router.register_many(fleet_signals(12), BuildBudget(max_bytes=400))
        assert router.shard_map.version == before + 1

    def test_plan_reuse_and_escalation_counters(self):
        registry = get_default_registry()
        probed = registry.counter("plans_probed_total")
        reused = registry.counter("plans_reused_total")
        probed0, reused0 = probed.value, reused.value

        # The flat representative compresses losslessly under the byte
        # cap, but the noisy member's exact synopsis is data-dependent
        # and blows past it, forcing a private escalation probe.
        flat = np.full(64, 3.0)
        rng = np.random.default_rng(3)
        noise = np.abs(rng.normal(2.0, 1.0, 64)) + 0.01
        store = SynopsisStore()
        store.register_many(
            [("flat0", flat), ("flat1", flat), ("noise", noise)],
            BuildBudget(max_bytes=300),
            families=("exact", "merging"),
        )
        # Representative probed in full, the identical member rode the
        # plan, the violator escalated to its own probe.
        assert probed.value - probed0 == 2
        assert reused.value - reused0 == 1
        assert store["flat1"].result.family == "exact"
        assert store["noise"].result.family == "merging"
        assert store["noise"].result.stored_numbers * 8 <= 300


# --------------------------------------------------------------------- #
# Group-by exactness
# --------------------------------------------------------------------- #

FAMILY_PAIRS = list(itertools.combinations(sorted(SYNOPSIS_FAMILIES), 2))


class TestGroupQueries:
    @pytest.mark.parametrize(
        "fam_a,fam_b", FAMILY_PAIRS, ids=[f"{a}+{b}" for a, b in FAMILY_PAIRS]
    )
    def test_group_equals_member_wise_every_family_pair(self, fam_a, fam_b):
        n = 48
        rng = np.random.default_rng(11)
        va = np.abs(rng.normal(2.0, 0.5, n)) + 0.01
        vb = np.abs(rng.normal(3.0, 0.7, n)) + 0.01
        store = SynopsisStore()
        store.register("a", va, family=fam_a, k=4)
        store.register("b", vb, family=fam_b, k=4)
        engine = QueryEngine(store)

        a = np.asarray([0, 5, 17, 30])
        b = np.asarray([47, 30, 46, 30])
        group_sum, versions = engine.group_range_sum(["a", "b"], a, b)
        member_sum = engine.range_sum("a", a, b) + engine.range_sum("b", a, b)
        np.testing.assert_array_equal(group_sum, member_sum)
        assert versions == {"a": 0, "b": 0}

        # Pooled mean: the mean of the summed series over the range —
        # exactly the group sum divided by the range length.
        group_mean, _ = engine.group_range_mean(["a", "b"], a, b)
        np.testing.assert_array_equal(group_mean, group_sum / (b - a + 1))

        buckets, versions = engine.group_top_k(["a", "b"], 3)
        assert versions == {"a": 0, "b": 0}
        assert len(buckets) == 3
        masses = [mass for _, _, mass in buckets]
        assert masses == sorted(masses, reverse=True)
        for left, right, mass in buckets:
            piece_sum, _ = engine.group_range_sum(["a", "b"], left, right)
            assert mass == piece_sum

    def test_group_over_shards_with_cohort_and_frontend(self):
        router = ShardRouter(num_shards=3)
        named = fleet_signals(9, seed=3)
        router.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        names = [name for name, _ in named]
        spans = {router.shard_map.shard_of(name) for name in names}
        assert len(spans) > 1  # the cohort genuinely crosses shards

        value, versions = router.group_range_sum("fleet", 4, 40)
        member_wise = sum(router.range_sum(name, 4, 40) for name in names)
        assert value == member_wise
        assert set(versions) == set(names)

        frontend = AsyncServingFrontend(router)
        results = frontend.serve(
            [
                QueryRequest("range_sum", names[0], (4, 40)),
                QueryRequest("group_range_sum", "fleet", (4, 40)),
                QueryRequest("group_range_mean", ",".join(names[:3]), (0, 10)),
            ]
        )
        assert results[0].error is None
        assert results[1].error is None
        assert results[1].value == member_wise
        assert results[1].version == versions
        assert results[2].error is None
        assert set(results[2].version) == set(names[:3])

    def test_group_rejects_unknown_member_and_empty_set(self):
        store = SynopsisStore()
        store.register("a", np.ones(16), family="merging", k=2)
        engine = QueryEngine(store)
        with pytest.raises(KeyError):
            engine.group_range_sum(["a", "ghost"], 0, 5)
        with pytest.raises(ValueError):
            engine.group_range_sum([], 0, 5)


# --------------------------------------------------------------------- #
# Tiered residency
# --------------------------------------------------------------------- #


class TestResidency:
    def test_eviction_bounds_resident_bytes_with_exact_answers(self, tmp_path):
        named = fleet_signals(16, seed=5)
        store = SynopsisStore()
        store.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        engine = QueryEngine(store)
        n = named[0][1].size
        expected = {
            name: engine.range_sum(name, 0, n - 1) for name, _ in named
        }
        store.save(tmp_path / "fleet")

        loaded = load_store(tmp_path / "fleet", lazy=True)
        budget = 3 * max(
            int(loaded[name].describe()["stored_numbers"]) * 8
            for name, _ in named
        )
        manager = ResidencyManager(max_resident_bytes=budget)
        manager.watch(loaded)
        served = QueryEngine(loaded)

        rng = np.random.default_rng(0)
        # Skewed mix: a few hot members dominate, every member appears.
        hot = [name for name, _ in named[:3]]
        mix = [name for name, _ in named] + list(
            rng.choice(hot, size=48)
        )
        rng.shuffle(mix)
        for name in mix:
            assert served.range_sum(name, 0, n - 1) == expected[name]
            assert loaded.residency()["resident_bytes"] <= budget
        assert manager.describe()["evictions"] > 0
        assert loaded.residency()["cold"] > 0

    def test_cooled_entry_rehydrates_and_recools(self, tmp_path):
        store = SynopsisStore()
        store.register_many(
            fleet_signals(4, seed=9), BuildBudget(max_bytes=400)
        )
        store.save(tmp_path / "store")
        loaded = load_store(tmp_path / "store", lazy=True)
        engine = QueryEngine(loaded)
        first = engine.range_sum("u0", 0, 10)
        assert loaded["u0"].is_hydrated
        assert loaded.cool("u0") > 0
        assert not loaded["u0"].is_hydrated
        assert engine.range_sum("u0", 0, 10) == first  # transparent rehydrate
        assert loaded["u0"].is_hydrated

    def test_cooling_releases_the_table(self, tmp_path):
        store = SynopsisStore()
        store.register_many(fleet_signals(2, seed=4), BuildBudget(max_bytes=400))
        store.save(tmp_path / "store")
        loaded = load_store(tmp_path / "store", lazy=True)
        engine = QueryEngine(loaded)
        first = engine.range_sum("u0", 0, 10)
        engine.range_sum("u0", 0, 10)
        assert loaded.cool("u0") > 0
        assert engine.range_sum("u0", 0, 10) == first
        # The table went with the cooled payload: exactly one rebuild.
        info = engine.entry_cache_info("u0")
        assert (info["hits"], info["misses"]) == (1, 2)

    def test_repeated_wide_group_query_is_all_hits(self, tmp_path):
        named = fleet_signals(48, seed=3)
        n = named[0][1].size
        router = ShardRouter(num_shards=1)
        router.register_many(named, BuildBudget(max_bytes=400), cohort="wide")
        expected = router.group_range_sum("wide", 0, n - 1)
        before = router.cache_info()
        assert router.group_range_sum("wide", 0, n - 1) == expected
        after = router.cache_info()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + len(named)

        # Lazily loaded under a budget that fits exactly the cohort's
        # hydrated payload: the second pass hydrates and builds nothing.
        router.save(tmp_path / "wide")
        loaded = ShardRouter.load(tmp_path / "wide", lazy=True)
        store = loaded.shards[0].store
        budget = sum(
            int(store[name].describe()["stored_numbers"]) * 8 for name, _ in named
        )
        ResidencyManager(max_resident_bytes=budget).watch(store)
        hydrations = loaded.registry.get("store_hydrate_seconds", shard="0")
        assert loaded.group_range_sum("wide", 0, n - 1) == expected
        hydrated, misses = hydrations.count, loaded.cache_info()["misses"]
        assert hydrated == len(named)
        assert loaded.group_range_sum("wide", 0, n - 1) == expected
        assert hydrations.count == hydrated
        assert loaded.cache_info()["misses"] == misses

    def test_migrated_entries_stay_under_the_budget(self, tmp_path):
        """Regression: an entry migrated while hydrated was never noted with
        the target store's residency manager (so it could never cool again)
        and kept rehydrating into the source store's accounting."""
        named = fleet_signals(8, seed=6)
        names = [name for name, _ in named]
        built = ShardRouter(num_shards=2)
        built.register_many(named, BuildBudget(max_bytes=400))
        built.save(tmp_path / "fleet")
        router = ShardRouter.load(tmp_path / "fleet", lazy=True)
        target, source = (shard.store for shard in router.shards)
        movers = source.names()
        assert movers and target.names()
        per_entry = max(
            int(router[name].describe()["stored_numbers"]) * 8 for name in names
        )
        budget = 2 * per_entry
        manager = ResidencyManager(max_resident_bytes=budget)
        for shard in router.shards:
            manager.watch(shard.store)

        def assert_accounted():
            for store in (source, target):
                assert store.residency()["resident_bytes"] == sum(
                    store[name].resident_bytes for name in store.names()
                )

        assert router.migrate(movers, 0) == movers
        assert_accounted()
        expected = {name: built.range_sum(name, 0, 10) for name in names}
        for _ in range(2):
            for name in names:  # movers first: later queries must cool them
                assert router.range_sum(name, 0, 10) == expected[name]
                assert router.residency()["resident_bytes"] <= budget
                assert_accounted()
        assert not any(target[name].is_hydrated for name in movers)
        assert target.cool(movers[0]) == 0  # already cooled by the budget
        assert router.range_sum(movers[0], 0, 10) == expected[movers[0]]
        assert target[movers[0]].is_hydrated
        assert source.residency() == {
            "entries": 0, "hydrated": 0, "cold": 0, "resident_bytes": 0
        }
        assert_accounted()

    def test_in_memory_entries_never_cool(self):
        store = SynopsisStore()
        store.register("live", np.ones(32), family="merging", k=2)
        manager = ResidencyManager(max_resident_bytes=8)
        manager.watch(store)
        assert manager.enforce() == 0  # nothing evictable: built in memory
        assert store["live"].is_hydrated


# --------------------------------------------------------------------- #
# Cohort persistence and schema compatibility
# --------------------------------------------------------------------- #


class TestCohortPersistence:
    def test_mmap_schema_bump_only_with_cohorts(self, tmp_path):
        named = fleet_signals(4, seed=2)
        plain = SynopsisStore()
        plain.register_many(named, BuildBudget(max_bytes=400))
        plain.save(tmp_path / "plain")
        assert read_manifest(tmp_path / "plain")["schema"] == MMAP_SCHEMA_VERSION

        withc = SynopsisStore()
        withc.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        withc.save(tmp_path / "cohorts")
        manifest = read_manifest(tmp_path / "cohorts")
        assert manifest["schema"] == STORE_SCHEMA_VERSION
        assert manifest["cohorts"] == {"fleet": [n for n, _ in named]}

        loaded = load_store(tmp_path / "cohorts", lazy=True)
        assert loaded.cohorts() == {"fleet": tuple(n for n, _ in named)}
        value, versions = QueryEngine(loaded).group_range_sum("fleet", 0, 20)
        member_wise = sum(
            QueryEngine(loaded).range_sum(n, 0, 20) for n, _ in named
        )
        assert value == member_wise

    def test_npz_layout_keeps_schema_with_additive_cohorts(self, tmp_path):
        named = fleet_signals(3, seed=4)
        store = SynopsisStore()
        store.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        store.save(tmp_path / "npz", layout="npz")
        manifest = read_manifest(tmp_path / "npz")
        assert manifest["schema"] == 3  # npz stays additive
        assert manifest["cohorts"] == {"fleet": [n for n, _ in named]}
        loaded = load_store(tmp_path / "npz")
        assert loaded.cohorts() == {"fleet": tuple(n for n, _ in named)}

    def test_sharded_cohorts_round_trip(self, tmp_path):
        router = ShardRouter(num_shards=3)
        named = fleet_signals(9, seed=6)
        router.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        save_sharded(router, tmp_path / "sharded")
        manifest = read_sharded_manifest(tmp_path / "sharded")
        assert manifest["schema"] == SHARDED_SCHEMA_VERSION
        assert manifest["cohorts"] == {"fleet": [n for n, _ in named]}

        loaded = ShardRouter.load(tmp_path / "sharded")
        assert loaded.cohorts() == {"fleet": tuple(n for n, _ in named)}
        want, _ = router.group_range_sum("fleet", 2, 30)
        got, versions = loaded.group_range_sum("fleet", 2, 30)
        assert got == want
        assert set(versions) == {n for n, _ in named}

    def test_cohort_membership_pruned_on_save_after_remove(self, tmp_path):
        named = fleet_signals(3, seed=8)
        store = SynopsisStore()
        store.register_many(named, BuildBudget(max_bytes=400), cohort="fleet")
        store.remove(named[0][0])
        store.save(tmp_path / "pruned")
        loaded = load_store(tmp_path / "pruned")
        assert loaded.cohorts() == {
            "fleet": tuple(n for n, _ in named[1:])
        }


# --------------------------------------------------------------------- #
# Duplicate registration (the unified error message)
# --------------------------------------------------------------------- #


class TestDuplicateRegistration:
    def test_store_register_auto_names_the_entry(self):
        store = SynopsisStore()
        store.register_auto("taken", np.ones(32), BuildBudget(max_bytes=400))
        with pytest.raises(ValueError) as excinfo:
            store.register_auto(
                "taken", np.ones(32), BuildBudget(max_bytes=400)
            )
        assert str(excinfo.value) == duplicate_entry_message("taken")
        assert "'taken'" in str(excinfo.value)

    def test_router_register_auto_matches_store_message(self):
        router = ShardRouter(num_shards=2)
        router.register_auto("taken", np.ones(32), BuildBudget(max_bytes=400))
        with pytest.raises(ValueError) as excinfo:
            router.register_auto(
                "taken", np.ones(32), BuildBudget(max_bytes=400)
            )
        assert str(excinfo.value) == duplicate_entry_message("taken")

    def test_register_many_rejects_existing_name_before_building(self):
        store = SynopsisStore()
        store.register("taken", np.ones(32), family="merging", k=2)
        with pytest.raises(ValueError, match="already registered"):
            store.register_many(
                [("fresh", np.ones(32)), ("taken", np.ones(32))],
                BuildBudget(max_bytes=400),
            )
        assert "fresh" not in store.names()  # nothing partially installed

        router = ShardRouter(num_shards=2)
        router.register("taken", np.ones(32), family="merging", k=2)
        with pytest.raises(ValueError) as excinfo:
            router.register_many(
                [("taken", np.ones(32))], BuildBudget(max_bytes=400)
            )
        assert str(excinfo.value) == duplicate_entry_message("taken")


class TestEntryNamesAddressableByGroupSpecs:
    """A comma separates member names in a group spec, so no entry name
    may contain one: it could never be addressed by a group query."""

    def test_store_rejects_comma_names_on_every_registration_path(self):
        store = SynopsisStore()
        with pytest.raises(ValueError, match="contains ','"):
            store.register("a,b", np.ones(16), family="merging", k=2)
        with pytest.raises(ValueError, match="contains ','"):
            store.register_auto("a,b", np.ones(16), BuildBudget(max_bytes=400))
        with pytest.raises(ValueError, match="contains ','"):
            store.register_many(
                [("fresh", np.ones(16)), ("a,b", np.ones(16))],
                BuildBudget(max_bytes=400),
            )
        assert store.names() == []  # nothing partially installed

    def test_router_rejects_comma_names_without_recording_them(self):
        router = ShardRouter(num_shards=2)
        router.register("a", np.ones(16), family="merging", k=2)
        map_version = router.shard_map.version
        with pytest.raises(ValueError, match="contains ','"):
            router.register("a,b", np.ones(16), family="merging", k=2)
        with pytest.raises(ValueError, match="contains ','"):
            router.register_many(
                [("fresh", np.ones(16)), ("a,b", np.ones(16))],
                BuildBudget(max_bytes=400),
            )
        assert router.names() == ["a"]
        assert router.shard_map.names() == ["a"]
        assert router.shard_map.version == map_version
        # The spec the rejected name would have collided with still means
        # the member list it spells.
        router.register("b", np.ones(16), family="merging", k=2)
        value, versions = router.group_range_sum("a,b", 0, 10)
        assert versions == {"a": 0, "b": 0}
        assert value == router.range_sum("a", 0, 10) + router.range_sum("b", 0, 10)
