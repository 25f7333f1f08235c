"""The query-kind table: every query the serving stack answers, as data.

In the paper's model every query is an evaluation of one piecewise-
constant prefix table, or a member-order reduction over several
(histograms are mergeable summaries).  So a query kind is one row of
:data:`KINDS` — its argument form, whether requests of the kind
coalesce, whether it addresses a member *set*, where its answer comes
from, and a table-level evaluator — and :func:`run_query` is the one
dispatcher every in-process layer calls.  Adding a kind is adding a row.

Sources:

* ``table`` — ``evaluate(table, *args)`` on the entry's prefix table
  (for a group kind, ``evaluate(tables, *args)`` over the members'
  tables, reduced in member order);
* ``pair`` — ``evaluate(table, partner_table)``, the partner named by
  the single argument;
* ``learner`` — ``evaluate(store, name, *args)``, answered by the
  entry's live streaming learner rather than its built synopsis.

A group kind is named ``group_<member kind>``.  Its ``name`` is a member
spec — a cohort name, a comma-separated name list, or one entry name —
which is why entry names may not contain a comma (see
:func:`check_entry_name`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "GROUP_QUERY_KINDS",
    "KINDS",
    "MEMBER_SEPARATOR",
    "QUERY_KINDS",
    "QueryKind",
    "QueryMethods",
    "check_entry_name",
    "group_tables_range_mean",
    "group_tables_range_sum",
    "group_tables_top_k",
    "query_kind",
    "resolve_members",
    "run_query",
]

#: Separates member names in a group spec, on every layer and the wire.
MEMBER_SEPARATOR = ","


# --------------------------------------------------------------------- #
# Group-by closed forms (the group rows' evaluators)
# --------------------------------------------------------------------- #


def group_tables_range_sum(tables: List[Any], a, b):
    """``sum_{member} sum_{i in [a, b]} f_member(i)`` over closed ranges.

    Exact by linearity of the prefix integral: the group's range sum is
    the plain sum of member range sums, reduced in member order — so the
    result is bitwise equal to what a caller summing the member-wise
    answers themselves would compute.
    """
    if not tables:
        raise ValueError("group queries need at least one member")
    total = tables[0].range_sum(a, b)
    for table in tables[1:]:
        total = total + table.range_sum(a, b)
    return total


def group_tables_range_mean(tables: List[Any], a, b):
    """Mean of the *pooled* mass over ``[a, b]``: group sum / range length.

    Note the denominator is the range length, not members x length — the
    group is treated as one pooled series, matching how a cohort's summed
    prefix table would answer ``range_mean``.
    """
    sums = group_tables_range_sum(tables, a, b)
    lengths = np.asarray(b, dtype=np.int64) - np.asarray(a, dtype=np.int64) + 1
    out = sums / lengths.astype(np.float64)
    return float(out) if np.ndim(a) == 0 and np.ndim(b) == 0 else out


def group_tables_top_k(tables: List[Any], m: int) -> List[Tuple[int, int, float]]:
    """The ``m`` heaviest pieces of the group's merged partition.

    The members' piece boundaries are merged (union of left endpoints);
    on each merged segment every member is summed exactly via its own
    range sum, so the returned ``(left, right, mass)`` triples are the
    heaviest segments of the pooled distribution — the group analogue of
    :meth:`PrefixTable.top_k_buckets`, mass-descending with stable ties.
    All members must share one domain length.
    """
    if not tables:
        raise ValueError("group queries need at least one member")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n = tables[0].n
    for table in tables[1:]:
        if table.n != n:
            raise ValueError(
                f"group top-k needs matching domains, got n={n} and n={table.n}"
            )
    lefts = np.unique(
        np.concatenate([table.prefix.lefts for table in tables])
    )
    rights = np.append(lefts[1:] - 1, n - 1)
    masses = tables[0].range_sum(lefts, rights)
    for table in tables[1:]:
        masses = masses + table.range_sum(lefts, rights)
    masses = np.atleast_1d(np.asarray(masses, dtype=np.float64))
    order = np.argsort(-masses, kind="stable")[:m]
    return [
        (int(lefts[u]), int(rights[u]), float(masses[u])) for u in order
    ]


# --------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class QueryKind:
    """One query kind: its arguments, its source, and how to evaluate it.

    ``form`` is the positional argument shape quoted in error messages
    (``"(a, b)"``); the parameter names parsed from it give the arity.
    A kind with a ``dtype`` is *coalescible*: its evaluator is elementwise
    over array arguments and reads every one of them as ``dtype``, so
    requests stack into one argument column per parameter (cast exactly
    as the evaluator would cast each request) and the answer splits back
    per request.
    """

    name: str
    form: str
    evaluate: Callable[..., Any]
    source: str = "table"
    dtype: Any = None
    group: bool = False
    params: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        params = tuple(
            part.strip() for part in self.form.strip("()").split(",") if part.strip()
        )
        object.__setattr__(self, "params", params)

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def coalescible(self) -> bool:
        return self.dtype is not None

    def check_arity(self, args: Tuple[Any, ...]) -> None:
        if len(args) != len(self.params):
            raise ValueError(
                f"{self.name} takes {len(self.params)} positional "
                f"argument(s) {self.form}, got {len(args)}"
            )


_ROWS = (
    # Positions are int64 and quantile levels float64 on every table.
    QueryKind(
        "range_sum", "(a, b)", lambda t, a, b: t.range_sum(a, b), dtype=np.int64
    ),
    QueryKind(
        "range_mean", "(a, b)", lambda t, a, b: t.range_mean(a, b), dtype=np.int64
    ),
    QueryKind("point_mass", "(x,)", lambda t, x: t.point_mass(x), dtype=np.int64),
    QueryKind("cdf", "(x,)", lambda t, x: t.cdf(x), dtype=np.int64),
    QueryKind("quantile", "(q,)", lambda t, q: t.quantile(q), dtype=np.float64),
    QueryKind("top_k", "(m,)", lambda t, m: t.top_k_buckets(int(m))),
    # The partner may live on another shard; the answer's version is the
    # first (routed) entry's snapshot.
    QueryKind(
        "inner_product", "(name_b,)", lambda t, other: t.inner_product(other),
        source="pair",
    ),
    # The live windowed learner answers, so the result reflects samples
    # absorbed since the last refresh too.
    QueryKind(
        "heavy_hitters", "(phi,)",
        lambda store, name, phi: store.heavy_hitters(name, float(phi)),
        source="learner",
    ),
    QueryKind("group_range_sum", "(a, b)", group_tables_range_sum, group=True),
    QueryKind("group_range_mean", "(a, b)", group_tables_range_mean, group=True),
    QueryKind(
        "group_top_k", "(m,)", lambda ts, m: group_tables_top_k(ts, int(m)),
        group=True,
    ),
)

#: Every query kind by name, in table order.
KINDS: Dict[str, QueryKind] = {row.name: row for row in _ROWS}

#: Views of the table: every kind name, and the group kinds' names.
QUERY_KINDS: Tuple[str, ...] = tuple(KINDS)
GROUP_QUERY_KINDS: Tuple[str, ...] = tuple(row.name for row in _ROWS if row.group)


def query_kind(kind: str) -> QueryKind:
    """The row for ``kind``; ValueError naming the supported kinds if none."""
    try:
        return KINDS[kind]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown query kind {kind!r}; supported: {', '.join(KINDS)}"
        ) from None


# --------------------------------------------------------------------- #
# Member specs and entry names
# --------------------------------------------------------------------- #


def resolve_members(
    spec: Any, cohorts: Mapping[str, Sequence[str]]
) -> List[str]:
    """Member names for a group query target.

    A string resolves as a cohort name first, then as a comma-separated
    name list, then as one bare entry name; any non-string iterable is
    taken as the member list itself.
    """
    if isinstance(spec, str):
        members = cohorts.get(spec)
        if members is not None:
            return list(members)
        if MEMBER_SEPARATOR in spec:
            return [
                part.strip() for part in spec.split(MEMBER_SEPARATOR) if part.strip()
            ]
        return [spec]
    return [str(name) for name in spec]


def check_entry_name(name: str) -> None:
    """Reject a name a group spec could not address (it holds the separator)."""
    if MEMBER_SEPARATOR in name:
        raise ValueError(
            f"entry name {name!r} contains {MEMBER_SEPARATOR!r}, which "
            f"separates member names in group query specs"
        )


# --------------------------------------------------------------------- #
# The dispatcher
# --------------------------------------------------------------------- #


def run_query(layer: Any, spec: QueryKind, name: Any, args: Tuple[Any, ...]):
    """Evaluate one query of kind ``spec`` against ``layer``.

    ``layer`` supplies ``table_versioned(name) -> (version, table)`` and
    ``resolve_members(spec)`` (plus ``store`` for learner kinds).  Returns
    ``(value, version)``; for group kinds ``version`` is the per-member
    ``{member: version}`` dict, each member read from its own consistent
    snapshot.
    """
    spec.check_arity(args)
    if spec.group:
        tables = []
        versions: Dict[str, int] = {}
        for member in layer.resolve_members(name):
            version, table = layer.table_versioned(member)
            tables.append(table)
            versions[member] = version
        return spec.evaluate(tables, *args), versions
    if spec.source == "learner":
        value = spec.evaluate(layer.store, name, *args)
        # The learner is always at or ahead of the entry's built version.
        return value, layer.store[name].version
    version, table = layer.table_versioned(name)
    if spec.source == "pair":
        args = (layer.table_versioned(str(args[0]))[1],)
    return spec.evaluate(table, *args), version


class QueryMethods:
    """The per-kind public query surface, written once over ``query``.

    Each layer (engine, router, process router) implements
    ``query(kind, name, *args) -> (value, version)`` and inherits these.
    Single-entry methods return the value; group methods return
    ``(value, {member: version})``.
    """

    def query(self, kind: str, name: Any, *args: Any) -> Tuple[Any, Any]:
        """One query of any kind: ``(value, version)``."""
        raise NotImplementedError

    def range_sum(self, name: str, a, b):
        """Batched ``sum_{i in [a, b]}`` over closed ranges of entry ``name``."""
        return self.query("range_sum", name, a, b)[0]

    def range_mean(self, name: str, a, b):
        """Batched mean over closed ranges ``[a, b]`` of entry ``name``."""
        return self.query("range_mean", name, a, b)[0]

    def point_mass(self, name: str, x):
        """Batched point evaluation of entry ``name``."""
        return self.query("point_mass", name, x)[0]

    def cdf(self, name: str, x):
        """Batched normalized CDF of entry ``name``."""
        return self.query("cdf", name, x)[0]

    def quantile(self, name: str, q):
        """Batched quantile positions of entry ``name``."""
        return self.query("quantile", name, q)[0]

    def top_k_buckets(self, name: str, m: int) -> List[Tuple[int, int, float]]:
        """The ``m`` heaviest pieces of entry ``name``."""
        return self.query("top_k", name, int(m))[0]

    def inner_product(self, name_a: str, name_b: str) -> float:
        """``<f_a, f_b>`` between two stored synopses on the same domain."""
        return self.query("inner_product", name_a, str(name_b))[0]

    def heavy_hitters(self, name: str, phi: float) -> List[Tuple[int, int]]:
        """Sliding-window ``phi``-heavy hitters of entry ``name``.

        Unlike every other query kind this does not go through the prefix
        table: the answer comes from the entry's live windowed learner
        (see :meth:`SynopsisStore.heavy_hitters`), so it reflects samples
        absorbed since the last refresh too.  Raises :exc:`ValueError`
        for entries not backed by a windowed stream.
        """
        return self.query("heavy_hitters", name, float(phi))[0]

    def group_range_sum(self, names: Any, a, b) -> Tuple[Any, Dict[str, int]]:
        """Pooled range sum over a member set; returns (value, versions)."""
        return self.query("group_range_sum", names, a, b)

    def group_range_mean(self, names: Any, a, b) -> Tuple[Any, Dict[str, int]]:
        """Pooled range mean over a member set; returns (value, versions)."""
        return self.query("group_range_mean", names, a, b)

    def group_top_k(
        self, names: Any, m: int
    ) -> Tuple[List[Tuple[int, int, float]], Dict[str, int]]:
        """Heaviest merged-partition pieces of the pooled member set."""
        return self.query("group_top_k", names, int(m))
