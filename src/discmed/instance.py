"""Instance model for median clustering with per-client discounts.

Sites live in a finite explicit metric. Each client carries a discount
(the amount knocked off its connection distance before clamping at zero)
and an optional weight. Facilities are opened subject to one of three
constraint families: a cardinality bound, a matroid, or a knapsack budget.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

TRIANGLE_TOL = 1e-9
TRIANGLE_SLAB = 1 << 18  # float entries (2 MB) per triangle-check temporary
# Non-co-located sites must sit at distance >= 1 (required by discretization).
MIN_SEPARATION = 1.0
_SEP_SLACK = 1e-12


class InstanceError(ValueError):
    """Raised on malformed instances or violated operation preconditions."""


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """Finite metric: ordered site ids plus a dense symmetric distance matrix.

    ``dist`` is a read-only copy of the matrix passed in, so the verdict of
    ``violations`` and the ``min_nonzero`` distance, each computed once per
    object, cannot go stale; the caller's own array stays writable.
    """

    points: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        dist = np.array(self.dist, dtype=float)
        dist.flags.writeable = False
        object.__setattr__(self, "dist", dist)

    @cached_property
    def index(self) -> dict[str, int]:
        return {p: k for k, p in enumerate(self.points)}

    def d(self, p: str, q: str) -> float:
        return float(self.dist[self.index[p], self.index[q]])

    def submatrix(self, rows: Iterable[str], cols: Iterable[str]) -> np.ndarray:
        ri = [self.index[p] for p in rows]
        ci = [self.index[q] for q in cols]
        return self.dist[np.ix_(ri, ci)]

    @staticmethod
    def from_coords(coords: dict[str, tuple[float, float]]) -> "MetricSpace":
        pts = tuple(coords)
        xy = np.array([coords[p] for p in pts], dtype=float)
        diff = xy[:, None, :] - xy[None, :, :]
        return MetricSpace(pts, np.sqrt((diff**2).sum(axis=2)))

    @cached_property
    def min_nonzero(self) -> float | None:
        """The least positive distance; None when there is none."""
        nz = self.dist[self.dist > 0]
        return float(nz.min()) if nz.size else None

    def violations(self) -> list[str]:
        """Every metric-invariant violation, with the offending sites."""
        return list(self._violations)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        n = len(self.points)
        d = self.dist
        if d.shape != (n, n):
            return (f"distance matrix shape {d.shape} != ({n}, {n})",)
        if not np.all(np.isfinite(d)):
            return ("non-finite distances present",)
        out: list[str] = []
        for i in range(n):
            if d[i, i] != 0.0:
                out.append(f"dist({self.points[i]},{self.points[i]}) = {d[i, i]} != 0")
        for i, j in np.argwhere(np.abs(d - d.T) > TRIANGLE_TOL):
            if i < j:
                out.append(f"asymmetry at ({self.points[i]},{self.points[j]})")
        if np.any(d < 0):
            i, j = map(int, np.argwhere(d < 0)[0])
            out.append(f"negative distance at ({self.points[i]},{self.points[j]})")
            return tuple(out)
        # triangle inequality over all triples: d[i,j] <= d[i,k] + d[k,j], a
        # slab of rows i at a time so the temporary stays near TRIANGLE_SLAB
        seen = set()
        step = max(1, TRIANGLE_SLAB // (n * n))
        for lo in range(0, n, step):
            rows = d[lo : lo + step]
            slack = rows[:, :, None] + d[None, :, :] - rows[:, None, :]  # [i - lo, k, j]
            for i, k, j in np.argwhere(slack < -TRIANGLE_TOL):
                i += lo
                key = (min(int(i), int(j)), max(int(i), int(j)), int(k))
                if key not in seen:
                    seen.add(key)
                    out.append(
                        "triangle violation "
                        f"({self.points[i]},{self.points[k]},{self.points[j]}): "
                        f"{d[i, j]:.6g} > {d[i, k]:.6g} + {d[k, j]:.6g}"
                    )
        for i, j in np.argwhere((d > 0) & (d < MIN_SEPARATION - _SEP_SLACK)):
            if i < j:
                out.append(
                    f"normalization violation: dist({self.points[i]},{self.points[j]}) = "
                    f"{d[i, j]:.6g} is neither 0 nor >= {MIN_SEPARATION}"
                )
        return tuple(out)


# ---------------------------------------------------------------------------
# matroids


@dataclass(frozen=True)
class UniformMatroid:
    """Independent sets are all sets of size at most ``rank_bound``."""

    rank_bound: int

    def rank(self, subset: Iterable[str]) -> int:
        return min(len(set(subset)), self.rank_bound)

    def is_independent(self, subset: Iterable[str]) -> bool:
        return len(set(subset)) <= self.rank_bound

    def violations(self, ground: tuple[str, ...]) -> list[str]:
        if self.rank_bound < 1:
            return [f"uniform matroid rank {self.rank_bound} < 1"]
        return []


@dataclass(frozen=True)
class PartitionMatroid:
    """At most ``caps[g]`` elements may be chosen from group ``parts[g]``."""

    parts: tuple[tuple[str, ...], ...]
    caps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(tuple(p) for p in self.parts))
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))

    @cached_property
    def part_of(self) -> dict[str, int]:
        return {e: g for g, part in enumerate(self.parts) for e in part}

    def rank(self, subset: Iterable[str]) -> int:
        counts = [0] * len(self.parts)
        for e in set(subset):
            counts[self.part_of[e]] += 1
        return sum(min(c, cap) for c, cap in zip(counts, self.caps))

    def is_independent(self, subset: Iterable[str]) -> bool:
        subset = set(subset)
        return self.rank(subset) == len(subset)

    def violations(self, ground: tuple[str, ...]) -> list[str]:
        out = []
        if len(self.parts) != len(self.caps):
            out.append("partition matroid: parts/caps length mismatch")
            return out
        seen: set[str] = set()
        for part in self.parts:
            dup = seen & set(part)
            if dup:
                out.append(f"partition matroid: groups overlap on {sorted(dup)}")
            seen |= set(part)
        missing = set(ground) - seen
        extra = seen - set(ground)
        if missing:
            out.append(f"partition matroid: facilities not covered: {sorted(missing)}")
        if extra:
            out.append(f"partition matroid: unknown elements: {sorted(extra)}")
        if any(c < 0 for c in self.caps):
            out.append("partition matroid: negative cap")
        return out


MAX_EXPLICIT_GROUND = 20  # 2^20 rank-table entries


@dataclass(frozen=True, eq=False)
class ExplicitMatroid:
    """Rank table indexed by bitmask over ``elements`` (element k -> bit k)."""

    elements: tuple[str, ...]
    rank_table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(
            self, "rank_table", np.asarray(self.rank_table, dtype=np.int64)
        )
        if len(self.elements) > MAX_EXPLICIT_GROUND:
            raise InstanceError(
                f"explicit matroid over {len(self.elements)} elements "
                f"(limit {MAX_EXPLICIT_GROUND})"
            )

    @cached_property
    def _pos(self) -> dict[str, int]:
        return {e: k for k, e in enumerate(self.elements)}

    def mask_of(self, subset: Iterable[str]) -> int:
        m = 0
        for e in set(subset):
            m |= 1 << self._pos[e]
        return m

    def rank(self, subset: Iterable[str]) -> int:
        return int(self.rank_table[self.mask_of(subset)])

    def is_independent(self, subset: Iterable[str]) -> bool:
        subset = set(subset)
        return self.rank(subset) == len(subset)

    def violations(self, ground: tuple[str, ...]) -> list[str]:
        out = []
        if set(self.elements) != set(ground):
            out.append("explicit matroid: elements differ from the facility set")
        n = len(self.elements)
        r = self.rank_table
        if r.shape != (1 << n,):
            return out + [f"explicit matroid: rank table length {r.shape} != 2^{n}"]
        if r[0] != 0:
            out.append("explicit matroid: rank(empty) != 0")
        masks = np.arange(1 << n, dtype=np.int64)
        sizes = np.array([int(m).bit_count() for m in range(1 << n)], dtype=np.int64)
        if np.any(r > sizes) or np.any(r < 0):
            out.append("explicit matroid: rank outside [0, |S|]")
        for a in range(n):
            grow = r[masks | (1 << a)] - r
            if np.any(grow < 0):
                out.append(f"explicit matroid: rank not monotone in element {a}")
            if np.any(grow > 1):
                out.append(f"explicit matroid: rank jump > 1 on element {a}")
        # local submodular exchange: r(S+a) + r(S+b) >= r(S+a+b) + r(S)
        for a in range(n):
            for b in range(a + 1, n):
                base = masks[(masks & (1 << a) == 0) & (masks & (1 << b) == 0)]
                lhs = r[base | (1 << a)] + r[base | (1 << b)]
                rhs = r[base | (1 << a) | (1 << b)] + r[base]
                if np.any(lhs < rhs):
                    out.append(
                        f"explicit matroid: submodularity fails on elements ({a},{b})"
                    )
        return out

    @staticmethod
    def from_gf2_columns(elements: tuple[str, ...], columns: np.ndarray) -> "ExplicitMatroid":
        """Linear matroid over GF(2); ``columns[:, k]`` represents element k."""
        n = len(elements)
        table = np.zeros(1 << n, dtype=np.int64)
        for mask in range(1, 1 << n):
            cols = [k for k in range(n) if mask >> k & 1]
            table[mask] = _gf2_rank(columns[:, cols])
        return ExplicitMatroid(elements, table)


def _gf2_rank(mat: np.ndarray) -> int:
    rows = [int("".join(str(int(b)) for b in row), 2) for row in mat % 2]
    rank = 0
    for col in range(mat.shape[1] - 1, -1, -1):
        pivot = next((k for k, r in enumerate(rows) if r >> col & 1), None)
        if pivot is None:
            continue
        rank += 1
        piv = rows.pop(pivot)
        rows = [r ^ piv if r >> col & 1 else r for r in rows]
    return rank


MatroidSpec = UniformMatroid | PartitionMatroid | ExplicitMatroid


# ---------------------------------------------------------------------------
# constraint families


@dataclass(frozen=True)
class Cardinality:
    k: int


@dataclass(frozen=True, eq=False)
class Matroid:
    spec: MatroidSpec


@dataclass(frozen=True, eq=False)
class Knapsack:
    weights: dict[str, float]
    budget: float


ConstraintFamily = Cardinality | Matroid | Knapsack


@dataclass(frozen=True, eq=False)
class Instance:
    facilities: tuple[str, ...]
    clients: tuple[str, ...]
    metric: MetricSpace
    discounts: dict[str, float]
    client_weights: dict[str, float]
    constraint: ConstraintFamily
    scale: float = 1.0  # cumulative normalization factor applied to distances

    def __post_init__(self):
        object.__setattr__(self, "facilities", tuple(self.facilities))
        object.__setattr__(self, "clients", tuple(self.clients))

    def with_discounts(self, discounts: dict[str, float]) -> "Instance":
        """``replace(self, discounts=discounts)``, sharing this instance's
        caches that read no discount: ``DISCOUNT_FREE``. The copy is checked
        like any other instance: ``validate`` reads its own discounts."""
        out = replace(self, discounts=discounts)
        for name in DISCOUNT_FREE:
            out.__dict__[name] = getattr(self, name)
        return out

    @cached_property
    def shared(self) -> dict:
        """Caches other modules derive from everything but the discounts,
        each keyed by the type it stores; ``with_discounts`` passes it on."""
        return {}

    @cached_property
    def dist_fc(self) -> np.ndarray:
        """(n_facilities, n_clients) distance matrix, read-only."""
        return _read_only(self.metric.submatrix(self.facilities, self.clients))

    @cached_property
    def dist_cc(self) -> np.ndarray:
        return _read_only(self.metric.submatrix(self.clients, self.clients))

    @cached_property
    def r(self) -> np.ndarray:
        return np.array([self.discounts[j] for j in self.clients], dtype=float)

    @cached_property
    def w(self) -> np.ndarray:
        return _read_only(np.array([self.client_weights[j] for j in self.clients], dtype=float))

    @cached_property
    def contrib(self) -> np.ndarray:
        """(n_facilities, n_clients) weighted discounted distances w_j * (d_ij - r_j)^+."""
        return np.maximum(self.dist_fc - self.r[None, :], 0.0) * self.w[None, :]

    @cached_property
    def fac_pos(self) -> dict[str, int]:
        return {f: k for k, f in enumerate(self.facilities)}

    @cached_property
    def cli_pos(self) -> dict[str, int]:
        return {c: k for k, c in enumerate(self.clients)}


# the Instance caches ``with_discounts`` shares with the copy it makes
DISCOUNT_FREE = ("dist_fc", "dist_cc", "w", "fac_pos", "cli_pos", "shared")


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


# ---------------------------------------------------------------------------
# operations


def validate(inst: Instance) -> list[str]:
    """Every invariant violation found; empty list means the instance is ok."""
    out = inst.metric.violations()
    pts = set(inst.metric.points)
    stray = (set(inst.facilities) | set(inst.clients)) - pts
    if stray:
        out.append(f"sites missing from the metric: {sorted(stray)}")
        return out
    if len(set(inst.facilities)) != len(inst.facilities):
        out.append("duplicate facility ids")
    if len(set(inst.clients)) != len(inst.clients):
        out.append("duplicate client ids")
    shared = set(inst.facilities) & set(inst.clients)
    if shared:
        out.append(f"ids shared by a facility and a client: {sorted(shared)}")
    for j in inst.clients:
        for what, values in (("discount", inst.discounts), ("weight", inst.client_weights)):
            if j not in values:
                out.append(f"missing {what} for client {j}")
            elif not math.isfinite(values[j]):
                out.append(f"non-finite {what} {values[j]} for client {j}")
            elif values[j] < 0:
                out.append(f"negative {what} for client {j}")
    con = inst.constraint
    if isinstance(con, Cardinality):
        if not 1 <= con.k <= len(inst.facilities):
            out.append(f"cardinality bound k={con.k} outside [1, {len(inst.facilities)}]")
    elif isinstance(con, Matroid):
        bad = con.spec.violations(inst.facilities)
        out.extend(bad)
        if not bad and con.spec.rank(inst.facilities) < 1:
            out.append("matroid admits no nonempty independent set")
    elif isinstance(con, Knapsack):
        missing = set(inst.facilities) - set(con.weights)
        bad = [f for f in inst.facilities if f in con.weights and not math.isfinite(con.weights[f])]
        if missing:
            out.append(f"knapsack weights missing for {sorted(missing)}")
        elif bad:
            out.append(f"non-finite knapsack weight for facilities {bad}")
        elif any(con.weights[f] < 0 for f in inst.facilities):
            out.append("negative knapsack weight")
        elif not math.isfinite(con.budget):
            out.append(f"non-finite knapsack budget {con.budget}")
        elif not any(con.weights[f] <= con.budget for f in inst.facilities):
            out.append("knapsack admits no nonempty feasible set")
    else:
        out.append(f"unknown constraint family {type(con).__name__}")
    return out


def discounted_cost(inst: Instance, chosen: Iterable[str], multiplier: float = 1.0) -> float:
    """Weighted sum of (distance-to-nearest-chosen minus multiplier*discount)^+."""
    chosen = sorted(set(chosen))
    if not chosen:
        raise InstanceError("discounted_cost: empty facility set")
    stray = set(chosen) - set(inst.facilities)
    if stray:
        raise InstanceError(f"discounted_cost: unknown facilities {sorted(stray)}")
    rows = [inst.fac_pos[f] for f in chosen]
    nearest = inst.dist_fc[rows, :].min(axis=0)
    return float(np.sum(inst.w * np.maximum(nearest - multiplier * inst.r, 0.0)))


def normalize(inst: Instance) -> Instance:
    """Scale distances and discounts so the minimum nonzero distance is >= 1.

    The objective map S -> cost(S) scales by the same factor, so argmin sets
    are unchanged; ``scale`` records the cumulative factor so reported
    objectives can be expressed in original units.
    """
    m = inst.metric.min_nonzero
    if m is None or m >= MIN_SEPARATION:
        return inst
    s = MIN_SEPARATION / m
    metric = MetricSpace(inst.metric.points, inst.metric.dist * s)
    discounts = {j: v * s for j, v in inst.discounts.items()}
    return replace(inst, metric=metric, discounts=discounts, scale=inst.scale * s)


def checked(inst: Instance) -> Instance:
    """``inst`` normalized; raises InstanceError naming every invariant it breaks.

    Sub-unit separations are repaired by ``normalize``, not rejected, so the
    invariants are checked after it.
    """
    inst = normalize(inst)
    problems = validate(inst)
    if problems:
        raise InstanceError("invalid instance: " + "; ".join(problems))
    return inst


def seeded_rng(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``, with InstanceError for a seed it refuses."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"seed must be a non-negative integer, got {seed!r}") from exc


def generate(
    n_facilities: int,
    n_clients: int,
    kind: str = "cardinality",
    discount_scale: float = 0.5,
    seed: int = 0,
) -> Instance:
    """Random planar instance; deterministic for a fixed seed.

    ``kind`` is one of cardinality, uniform, partition, explicit, knapsack.
    """
    for n in (n_facilities, n_clients):
        check_arg(n, "generate: counts", lambda c: c >= 1, "be >= 1", count=True)
    check_arg(
        discount_scale, "generate: discount scale", lambda s: 0.0 <= s < math.inf,
        "be finite and non-negative",
    )
    rng = seeded_rng(seed)
    fids = tuple(f"f{k:02d}" for k in range(n_facilities))
    cids = tuple(f"c{k:02d}" for k in range(n_clients))
    coords = {p: tuple(rng.uniform(0.0, 10.0, size=2)) for p in fids + cids}
    metric = MetricSpace.from_coords(coords)  # type: ignore[arg-type]

    off = metric.dist[~np.eye(len(metric.points), dtype=bool)]
    med = float(np.median(off))
    discounts = {j: float(rng.uniform(0.0, discount_scale * med)) for j in cids}
    weights = {j: 1.0 for j in cids}

    if kind == "cardinality":
        constraint: ConstraintFamily = Cardinality(int(rng.integers(1, min(4, n_facilities) + 1)))
    elif kind == "uniform":
        constraint = Matroid(UniformMatroid(int(rng.integers(1, min(4, n_facilities) + 1))))
    elif kind == "partition":
        perm = list(rng.permutation(n_facilities))
        n_parts = int(rng.integers(1, min(3, n_facilities) + 1))
        parts: list[list[str]] = [[] for _ in range(n_parts)]
        for k, f in enumerate(perm):
            parts[k % n_parts].append(fids[f])
        caps = tuple(int(rng.integers(1, max(2, len(p)))) for p in parts)
        constraint = Matroid(PartitionMatroid(tuple(map(tuple, parts)), caps))
    elif kind == "explicit":
        dim = max(2, min(4, n_facilities - 1))
        cols = rng.integers(0, 2, size=(dim, n_facilities))
        while np.any(~cols.any(axis=0)):  # avoid loops: every column nonzero
            cols = rng.integers(0, 2, size=(dim, n_facilities))
        constraint = Matroid(ExplicitMatroid.from_gf2_columns(fids, cols))
    elif kind == "knapsack":
        w = {f: float(np.round(rng.uniform(1.0, 5.0), 3)) for f in fids}
        lo, hi = min(w.values()), sum(w.values())
        budget = float(np.round(rng.uniform(lo, max(lo, 0.6 * hi)), 3))  # one facility: lo == hi
        constraint = Knapsack(w, budget)
    else:
        raise InstanceError(f"generate: unknown constraint kind {kind!r}")

    inst = Instance(fids, cids, metric, discounts, weights, constraint)
    return normalize(inst)


# ---------------------------------------------------------------------------
# JSON schema


def to_json(inst: Instance) -> dict:
    fac = []
    for f in inst.facilities:
        entry: dict = {"id": f}
        if isinstance(inst.constraint, Knapsack):
            entry["weight"] = inst.constraint.weights[f]
        fac.append(entry)
    cli = [
        {"id": j, "discount": inst.discounts[j], "weight": inst.client_weights[j]}
        for j in inst.clients
    ]
    order = list(inst.facilities) + list(inst.clients)
    metric = {
        "type": "explicit",
        "matrix": inst.metric.submatrix(order, order).tolist(),
    }
    con = inst.constraint
    if isinstance(con, Cardinality):
        constraint: dict = {"type": "cardinality", "k": con.k}
    elif isinstance(con, Matroid):
        spec = con.spec
        if isinstance(spec, UniformMatroid):
            m = {"type": "uniform", "rank": spec.rank_bound}
        elif isinstance(spec, PartitionMatroid):
            m = {
                "type": "partition",
                "parts": [list(p) for p in spec.parts],
                "caps": list(spec.caps),
            }
        else:
            m = {
                "type": "explicit",
                "elements": list(spec.elements),
                "ranks": spec.rank_table.tolist(),
            }
        constraint = {"type": "matroid", "matroid": m}
    else:
        constraint = {"type": "knapsack", "budget": con.budget}
    return {"facilities": fac, "clients": cli, "metric": metric, "constraint": constraint}


def _count(value, what: str) -> int:
    """``value`` as an int; a bool, a non-number or a fraction is refused."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise InstanceError(f"{what} must be an integer, got {json.dumps(value)}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a float; a bool or a non-number (a numeric string too) is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{what} must be a number, got {json.dumps(value)}")
    return float(value)


def check_arg(value, what: str, ok, must: str, *, count: bool = False) -> None:
    """Refuse a solver or generator argument with InstanceError: a bool or a
    non-number (a numeric string too; with ``count``, a non-integer) as not
    a number, and a value failing ``ok`` as "``what`` must ``must``"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if count else numbers.Real):
        kind = "an integer" if count else "a number"
        raise InstanceError(f"{what} must be {kind}, got {value!r}")
    if not ok(value):
        raise InstanceError(f"{what} must {must}, got {value!r}")


def _ids(entries, what: str) -> tuple[str, ...]:
    """The ``id`` of each entry; an id that is not a string is refused."""
    ids = tuple(e["id"] for e in entries)
    for i in ids:
        if not isinstance(i, str):
            raise InstanceError(f"{what} id {json.dumps(i)} is not a string")
    return ids


def from_json(obj: dict) -> Instance:
    try:
        fids = _ids(obj["facilities"], "facility")
        cids = _ids(obj["clients"], "client")
        discounts = {e["id"]: _real(e["discount"], "discount") for e in obj["clients"]}
        weights = {e["id"]: _real(e.get("weight", 1.0), "client weight") for e in obj["clients"]}
        m = obj["metric"]
        order = fids + cids
        if m["type"] == "explicit":
            rows = [[_real(v, "distance") for v in row] for row in m["matrix"]]
            metric = MetricSpace(order, np.array(rows, dtype=float))
        elif m["type"] == "euclidean":
            metric = MetricSpace.from_coords(
                {p: tuple(_real(v, "coordinate") for v in m["coords"][p]) for p in order}
            )
        else:
            raise InstanceError(f"unknown metric type {m['type']!r}")
        c = obj["constraint"]
        if c["type"] == "cardinality":
            constraint: ConstraintFamily = Cardinality(_count(c["k"], "cardinality k"))
        elif c["type"] == "matroid":
            mm = c["matroid"]
            if mm["type"] == "uniform":
                spec: MatroidSpec = UniformMatroid(_count(mm["rank"], "matroid rank"))
            elif mm["type"] == "partition":
                caps = tuple(_count(cap, "partition cap") for cap in mm["caps"])
                spec = PartitionMatroid(tuple(tuple(p) for p in mm["parts"]), caps)
            elif mm["type"] == "explicit":
                ranks = [_count(r, "matroid rank") for r in mm["ranks"]]
                spec = ExplicitMatroid(tuple(mm["elements"]), np.array(ranks, dtype=np.int64))
            else:
                raise InstanceError(f"unknown matroid type {mm['type']!r}")
            constraint = Matroid(spec)
        elif c["type"] == "knapsack":
            w = {e["id"]: _real(e["weight"], "knapsack weight") for e in obj["facilities"]}
            constraint = Knapsack(w, _real(c["budget"], "knapsack budget"))
        else:
            raise InstanceError(f"unknown constraint type {c['type']!r}")
    except InstanceError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InstanceError(f"malformed instance JSON: {exc}") from exc
    return Instance(fids, cids, metric, discounts, weights, constraint)


def dump(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_json(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")
