"""Span recording around the program's layer functions (traced runs).

The wrappers live here, not in the program: :func:`install` replaces
each layer's public function or method, as its caller looks it up, by a
wrapper that records ``(name, start, end, parent, op)`` in memory.  The
client opens one root span per operation, so every span carries the
operation it served.  :meth:`SpanRecorder.dump` writes the spans out
when the run ends.  Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute path, span name).  Module-level functions are
#: patched in the module that calls them.
LAYERS = (
    ("repro.service.cache", "PackageCache.get", "cache.get"),
    ("repro.service.cache", "PackageCache.put", "cache.put"),
    ("repro.service.registry", "CityRegistry.group_profile",
     "registry.group_profile"),
    ("repro.service.registry", "CityRegistry.mutate", "registry.mutate"),
    ("repro.service.registry", "patch_arrays", "live.patch"),
    ("repro.service.registry", "generate_city", "data.generate"),
    ("repro.core.kfc", "KFCBuilder.build", "kfc.build"),
    ("repro.core.kfc", "KFCBuilder.place_centroids", "kfc.place_centroids"),
    ("repro.core.kfc", "assemble_composite_items", "assembly"),
    ("repro.clustering.fuzzy_cmeans", "FuzzyCMeans.fit", "fcm.fit"),
    ("repro.data.dataset", "max_pairwise_distance", "geo.max_pairwise"),
    ("repro.live.patch", "max_pairwise_distance", "geo.max_pairwise"),
    ("repro.store.assets", "AssetStore.save", "store.save"),
    ("repro.store.assets", "AssetStore.load", "store.load"),
    ("repro.core.arrays", "CityArrays.build", "arrays.build"),
    ("repro.profiles.vectors", "ItemVectorIndex.fit", "lda.fit"),
    ("repro.core.customize", "CustomizationSession.remove", "customize"),
    ("repro.core.customize", "CustomizationSession.add", "customize"),
    ("repro.core.customize", "CustomizationSession.replace", "customize"),
    ("repro.core.customize", "CustomizationSession.generate", "customize"),
    ("repro.core.customize", "CustomizationSession.delete_composite_item",
     "customize"),
    ("repro.core.package", "TravelPackage.representativity",
     "metrics.package"),
    ("repro.core.package", "TravelPackage.raw_cohesiveness_sum",
     "metrics.package"),
    ("repro.core.package", "TravelPackage.personalization",
     "metrics.package"),
    ("repro.core.package", "TravelPackage.is_valid", "metrics.package"),
)

NAME, START, END, PARENT, OP = range(5)


class SpanRecorder:
    """In-memory spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: list[str] = []  # op index -> label
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, label: str) -> int:
        self._op = len(self.ops)
        self.ops.append(label)
        return self._open("op")

    def end_op(self, index: int) -> None:
        self._close(index)
        self._op = -1

    def wrap(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = recorder._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(index)

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def by_op(self) -> dict[int, list[int]]:
        grouped: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            grouped[span[OP]].append(index)
        return grouped

    def dump(self, path: Path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                label = self.ops[span[OP]] if span[OP] >= 0 else "setup"
                out.write(json.dumps({
                    "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "op": span[OP], "kind": label,
                }) + "\n")


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer in :data:`LAYERS` (for the life of the process)."""
    import importlib

    for module_name, path, name in LAYERS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(raw.__func__, name)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(recorder.wrap(raw.__func__, name)))
        else:
            setattr(owner, attr, recorder.wrap(raw, name))
