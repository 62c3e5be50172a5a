"""Independent checks of every response a run received.

Nothing here calls the program's distance, cosine or metric code: the
equirectangular distance and the cosine are written out below.  What
the checker takes from the program are inputs -- the generated city it
started from, the fitted item vectors and the resolved group profiles --
and it follows the city through the mutations the run sent with its own
copy of the POI table, so it knows every epoch's dataset.

A response that fails any check makes its operation a failed one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Mean Earth radius, km (IUGG).
EARTH_RADIUS_KM = 6371.0088
#: Tolerance of the Eq. 1 ranking and the metric recomputations.
TOL = 1e-9

BUILD_KINDS = ("prime", "cold", "budget", "fresh_seed", "post_mutate")
CACHED_KINDS = ("warm", "open")


def distance_km(lat1, lon1, lat2, lon2):
    """Equirectangular distance: longitude delta scaled by the cosine of
    the mean latitude, then Pythagoras on the sphere's radius."""
    p1, l1, p2, l2 = (np.radians(np.asarray(v, dtype=float))
                      for v in (lat1, lon1, lat2, lon2))
    x = (l2 - l1) * np.cos((p1 + p2) / 2.0)
    y = p2 - p1
    return EARTH_RADIUS_KM * np.sqrt(x * x + y * y)


def max_distance_km(lats: np.ndarray, lons: np.ndarray) -> float:
    best = 0.0
    for start in range(0, len(lats), 256):
        block = distance_km(lats[start:start + 256, None],
                            lons[start:start + 256, None],
                            lats[None, :], lons[None, :])
        best = max(best, float(block.max()))
    return best


def cosines(vectors: np.ndarray, profile: np.ndarray) -> np.ndarray:
    norms = np.sqrt((vectors * vectors).sum(axis=1))
    g = float(np.sqrt((profile * profile).sum()))
    out = np.zeros(len(vectors))
    if g == 0.0:
        return out
    nz = norms > 0.0
    out[nz] = (vectors[nz] @ profile) / (norms[nz] * g)
    return out


class CityTruth:
    """The checker's own POI table of one city, epoch by epoch.

    ``base`` maps id -> (category, lat, lon, cost).  Epoch ``e`` is the
    base with the first ``e`` mutations the run applied.
    """

    def __init__(self, base: dict[int, tuple]) -> None:
        self._states = [dict(base)]
        self._mutations: list[dict] = []
        # Epoch -> the epoch whose POI set and coordinates it shares (a
        # reprice changes neither), so geometry is derived once per set.
        self._geometry = [0]
        self._maxd: dict[int, float] = {}
        self._cats: dict[tuple, tuple] = {}

    @property
    def epoch(self) -> int:
        return len(self._mutations)

    @property
    def mutations(self) -> tuple[dict, ...]:
        return tuple(self._mutations)

    def apply(self, mutation: dict) -> None:
        self._mutations.append(mutation)
        self._geometry.append(self._geometry[-1]
                              if mutation["kind"] == "reprice_poi"
                              else len(self._mutations))

    def at(self, epoch: int) -> dict[int, tuple]:
        while len(self._states) <= epoch:
            state = dict(self._states[-1])
            m = self._mutations[len(self._states) - 1]
            if m["kind"] == "reprice_poi":
                cat, lat, lon, _ = state[m["poi_id"]]
                state[m["poi_id"]] = (cat, lat, lon, float(m["cost"]))
            elif m["kind"] == "close_poi":
                del state[m["poi_id"]]
            else:
                p = m["poi"]
                state[p["id"]] = (p["cat"], p["lat"], p["lon"],
                                  float(p["cost"]))
            self._states.append(state)
        return self._states[epoch]

    def maxd(self, epoch: int) -> float:
        epoch = self._geometry[epoch]
        if epoch not in self._maxd:
            rows = list(self.at(epoch).values())
            lats = np.array([r[1] for r in rows])
            lons = np.array([r[2] for r in rows])
            self._maxd[epoch] = max_distance_km(lats, lons)
        return self._maxd[epoch]

    def category(self, epoch: int, cat: str, vector_of) -> tuple:
        """Ids, coordinates and item vectors of one category's POIs."""
        epoch = self._geometry[epoch]
        key = (epoch, cat)
        if key not in self._cats:
            items = [(pid, r) for pid, r in self.at(epoch).items()
                     if r[0] == cat]
            ids = np.array([pid for pid, _ in items])
            lats = np.array([r[1] for _, r in items])
            lons = np.array([r[2] for _, r in items])
            vecs = np.array([vector_of(pid) for pid in ids])
            self._cats[key] = (ids, lats, lons, vecs)
        return self._cats[key]


@dataclass
class Record:
    """One operation the run sent, and what came back."""

    kind: str
    op: str
    city: str
    epoch: int
    seconds: float
    response: object
    request: dict
    session: int | None = None
    edit: tuple[int, int] | None = None
    error: str | None = None


class Checker:
    """Checks records in the order they were sent.

    Args:
        truths: city -> :class:`CityTruth`.
        vectors: city -> callable(poi id) -> item vector.
        profile: callable(city, group spec dict) -> {category: vector}.
        parse: turns a raw response into a dict.
        beta, gamma: the served Eq. 1 weights.
        k: Composite Items per package.
    """

    def __init__(self, truths, vectors, profile, parse, beta=1.0,
                 gamma=1.0, k=5) -> None:
        self.truths = truths
        self.vectors = vectors
        self.profile = profile
        self.parse = parse
        self.beta = beta
        self.gamma = gamma
        self.k = k
        self._builds: dict[tuple, list] = {}
        self._sessions: dict[int, list] = {}
        self._epochs: dict[str, int] = {}

    def check(self, records: list[Record]) -> None:
        """Set ``error`` on every record that fails a check."""
        for record in records:
            try:
                self._check(record)
            except CheckFailure as exc:
                record.error = str(exc)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                record.error = f"malformed response: {exc!r}"

    # -- per kind ------------------------------------------------------------

    def _check(self, record: Record) -> None:
        response = self.parse(record.response)
        if not isinstance(response, dict) or response.get("error"):
            raise CheckFailure(f"error response: {response}")
        if record.op == "mutate":
            return self._check_mutate(record, response)
        if record.op == "close_session":
            if "interactions" not in response:
                raise CheckFailure("close_session reply has no interactions")
            return None
        truth = self.truths[record.city]
        package = response["package"]
        cis = [[p["id"] for p in ci["pois"]] for ci in package["composite_items"]]
        if record.kind in CACHED_KINDS:
            return self._check_hit(record, response, cis)
        self._check_pois(truth.at(record.epoch), package)
        self._check_metrics(package, response["metrics"])
        if record.kind in BUILD_KINDS:
            self._check_build(record, response, package, cis)
        else:  # an edit, at the session's own or a replayed epoch
            state = self._sessions[record.session]
            ci, poi = record.edit
            expected = [list(ids) for ids in state]
            expected[ci].remove(poi)
            if cis != expected:
                raise CheckFailure(f"edit served {cis}, expected {expected}")
            self._sessions[record.session] = cis
        return None

    @staticmethod
    def _key(record: Record) -> tuple:
        return (record.city, record.epoch,
                json.dumps(record.request, sort_keys=True))

    def _check_build(self, record, response, package, cis) -> None:
        if response["cached"]:
            raise CheckFailure(f"cache hit for a {record.kind} build")
        query = record.request.get("query") or DEFAULT_QUERY
        if len(cis) != self.k:
            raise CheckFailure(f"{len(cis)} CIs, expected {self.k}")
        budget = query.get("budget")
        wanted = {c: n for c, n in query["counts"].items() if n}
        for ci in package["composite_items"]:
            counts: dict[str, int] = {}
            for p in ci["pois"]:
                counts[p["cat"]] = counts.get(p["cat"], 0) + 1
            if counts != wanted:
                raise CheckFailure(f"CI counts {counts}, query {wanted}")
            if budget is not None:
                cost = sum(p["cost"] for p in ci["pois"])
                if cost > budget + TOL:
                    raise CheckFailure(f"CI cost {cost} over budget {budget}")
        if budget is None:
            self._check_ranking(record, package)
        self._builds.setdefault(self._key(record),
                                (package, response["metrics"]))

    def _check_hit(self, record, response, cis) -> None:
        """A cache hit (warm repeat or session open): the package and
        metrics of the checked build it repeats, at the same epoch."""
        if not response["cached"]:
            raise CheckFailure(f"cache miss for a {record.kind} build")
        first = self._builds.get(self._key(record))
        if first is None:
            raise CheckFailure("cache hit with no earlier build to match")
        if (response["package"], response["metrics"]) != first:
            raise CheckFailure("package differs from the build it repeats")
        if record.kind == "open":
            self._sessions[record.session] = cis

    def _check_mutate(self, record, response) -> None:
        epoch = self._epochs.get(record.city, 0) + 1
        self._epochs[record.city] = epoch
        if response.get("epoch") != epoch or record.epoch != epoch:
            raise CheckFailure(f"mutate epoch {response.get('epoch')}, "
                               f"expected {epoch}")
        size = len(self.truths[record.city].at(epoch))
        if response.get("n_pois") != size:
            raise CheckFailure(f"n_pois {response.get('n_pois')}, "
                               f"expected {size}")

    # -- properties ------------------------------------------------------------

    @staticmethod
    def _check_pois(state: dict, package: dict) -> None:
        for ci in package["composite_items"]:
            for p in ci["pois"]:
                row = state.get(p["id"])
                if row is None:
                    raise CheckFailure(f"POI {p['id']} is not in the city "
                                       "at the serving epoch")
                if (p["cat"], p["lat"], p["lon"], float(p["cost"])) != row:
                    raise CheckFailure(f"POI {p['id']} served as "
                                       f"{(p['cat'], p['lat'], p['lon'], p['cost'])}, "
                                       f"dataset has {row}")

    @staticmethod
    def _check_metrics(package: dict, metrics: dict) -> None:
        cents = np.array([ci["centroid"] for ci in package["composite_items"]])
        upper = np.triu_indices(len(cents), k=1)
        rep = float(distance_km(cents[:, None, 0], cents[:, None, 1],
                                cents[None, :, 0], cents[None, :, 1])[upper].sum())
        within = 0.0
        for ci in package["composite_items"]:
            lat = np.array([p["lat"] for p in ci["pois"]])
            lon = np.array([p["lon"] for p in ci["pois"]])
            pairs = np.triu_indices(len(lat), k=1)
            within += float(distance_km(lat[:, None], lon[:, None],
                                        lat[None, :], lon[None, :])[pairs].sum())
        for name, value in (("representativity_km", rep),
                            ("within_ci_km", within)):
            served = metrics[name]
            if abs(served - value) > TOL * max(1.0, abs(value)):
                raise CheckFailure(f"{name} {served}, recomputed {value}")

    def _check_ranking(self, record: Record, package: dict) -> None:
        """Eq. 1's CI term: no unselected POI of a category outscores a
        selected one around the CI's centroid."""
        truth = self.truths[record.city]
        maxd = truth.maxd(record.epoch)
        profile = self.profile(record.city, record.request["group_spec"])
        vector_of = self.vectors[record.city]
        for ci in package["composite_items"]:
            clat, clon = ci["centroid"]
            chosen = {p["id"] for p in ci["pois"]}
            for cat in {p["cat"] for p in ci["pois"]}:
                ids, lats, lons, vecs = truth.category(record.epoch, cat,
                                                       vector_of)
                dist = distance_km(lats, lons, clat, clon)
                closeness = 1.0 - np.clip(dist / maxd, 0.0, 1.0)
                score = (self.beta * closeness
                         + self.gamma * cosines(vecs, profile[cat]))
                picked = np.isin(ids, list(chosen))
                if picked.all():
                    continue
                worst = score[picked].min()
                best_other = score[~picked].max()
                if worst < best_other - TOL:
                    raise CheckFailure(
                        f"{cat}: selected score {worst:.12f} below "
                        f"unselected {best_other:.12f}")


class CheckFailure(Exception):
    """A response that breaks one of the checked properties."""


#: The program's default query on the wire (infinite budget).
DEFAULT_QUERY = {"counts": {"acco": 1, "trans": 1, "rest": 1, "attr": 3},
                 "budget": None}
