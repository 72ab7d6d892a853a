"""Spans around calls into rbtrees' public functions, kept in memory.

Instrumentation swaps the public functions (and the ``RandomSource`` class)
of every rbtrees module for timed wrappers at run time and puts the originals
back afterwards; the package source is never edited. A span records its
label, start, end, parent span and job id. Calls made inside process-pool
workers run in other processes, so their spans are not kept: the worker
replays pool jobs serially to time the samplers behind them.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

import rbtrees
from catalogue import HEIGHT_CELLS, SELF_TOTALS, TIMINGS, VALUES
from rbtrees import analytics, cli, experiments, model, samplers

_MODULES = (rbtrees, samplers, model, analytics, experiments, cli)

_CELL_BY_PARAMS = {
    (n, experiments.resolve_theta(spec, n)): cell for cell, (spec, n) in HEIGHT_CELLS.items()
}


def _height_cell(args, kwargs):
    params = args[0]
    return _CELL_BY_PARAMS.get((params.n, params.theta))


def _perm_size(args, kwargs):
    return f"n{len(args[0].values)}"


def _tree_size(args, kwargs):
    return f"n{len(args[0].labels)}"


def _threads(args, kwargs):
    threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    return "serial" if threads <= 1 else "pool"


# (module, attribute, key function or None); a key is appended to the span
# label in brackets so one function can be reported per input size. The
# marker "cold-or-warm" keys enumerate_exact by whether this tracer has seen
# its n before, since the permutation statistics are cached per n.
_TARGETS = (
    (samplers, "sample_height_only", _height_cell),
    (samplers, "sample_record_count", None),
    (samplers, "sample_left_profile_matrix", lambda args, kwargs: f"j{args[2]}"),
    (samplers, "sample_sequential", lambda args, kwargs: f"n{args[0].n}"),
    (samplers, "sample_tree_recursive", None),
    (model, "build_bst", _perm_size),
    (model, "height", _tree_size),
    (model, "left_profile", _tree_size),
    (model, "is_valid_bst", _tree_size),
    (model, "height_via_profile", _tree_size),
    (analytics, "enumerate_exact", "cold-or-warm"),
    (analytics, "beta_product_survival", None),
    (analytics, "chernoff_record_tail", None),
    (analytics, "mu", lambda args, kwargs: f"n{args[0]}"),
    (experiments, "run_height_ratio", _threads),
    (experiments, "run_record_concentration", None),
    (experiments, "run_dominance_check", None),
    (experiments, "chi_square_gof", None),
    (cli, "main", None),
    (cli, "emit", None),
)


class CountingRandomSource(samplers.RandomSource):
    """A RandomSource that counts the variates its caller consumes.

    Pre-drawn buffer entries are not counted until they are handed out, so
    the count is a property of the sampler, not of the buffering.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        super().__init__(seed, stream_index)
        self.drawn = 0

    def random(self) -> float:
        self.drawn += 1
        return super().random()

    def randoms(self, count: int) -> np.ndarray:
        self.drawn += count
        return super().randoms(count)

    def integers_below(self, bounds: np.ndarray) -> np.ndarray:
        self.drawn += int(np.size(bounds))
        return super().integers_below(bounds)


class Tracer:
    """Spans in flat arrays, plus named values recorded beside them."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self._open: list[int] = []
        self.values: dict[str, list[float]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._enumerated: set[int] = set()

    def begin(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        idx = len(self.start)
        self.label_id.append(lid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.job.append(self.job_id)
        self.end.append(-1)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    def record(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))

    def _wrap(self, fn, label, key):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is None:
                full = label
            else:
                suffix = key(args, kwargs)
                full = label if suffix is None else f"{label}[{suffix}]"
            idx = self.begin(full)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def _enumerate_key(self, args, kwargs):
        n = args[0].n
        if n in self._enumerated:
            return "warm"
        self._enumerated.add(n)
        return "cold"

    def _timed_class(self, cls, label):
        tracer = self

        class Timed(cls):
            def __init__(self, *args, **kwargs):
                idx = tracer.begin(label)
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.finish(idx)

        Timed.__name__ = cls.__name__
        Timed.__qualname__ = cls.__qualname__
        return Timed

    def install(self) -> None:
        """Replace every reference the rbtrees modules hold to a target."""
        swaps = [(samplers.RandomSource, self._timed_class(samplers.RandomSource, "samplers.RandomSource"))]
        for module, name, key in _TARGETS:
            fn = getattr(module, name)
            if key == "cold-or-warm":
                key = self._enumerate_key
            label = f"{module.__name__.rpartition('.')[2]}.{name}"
            swaps.append((fn, self._wrap(fn, label, key)))
        for original, replacement in swaps:
            for module in _MODULES:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def durations(self):
        """(label ids, parents, durations, self times) of all spans, in ns.

        Self time is a span's duration minus the durations of its child
        spans; children of one span never overlap, since spans are kept for
        one thread only.
        """
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        label_id = np.frombuffer(self.label_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return label_id, parent, dur, dur - child_time

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of the catalogue, as name -> (value, unit)."""
        label_id, parent, dur, self_time = self.durations()
        has_parent = parent >= 0
        is_cli = np.array([label.startswith("cli.") for label in self.labels], dtype=bool)
        lib_child = has_parent & ~is_cli[label_id]
        lib_child_time = np.bincount(parent[lib_child], weights=dur[lib_child], minlength=len(dur))

        def select(label):
            lid = self._label_ids.get(label)
            if lid is None:
                raise KeyError(f"no span labelled {label}")
            return label_id == lid

        out: dict[str, tuple[float, str]] = {}
        for base, label, unit, ns_per_unit in TIMINGS:
            sel = select(label)
            if base == "cli.main.overhead_ms":
                samples = (dur[sel] - lib_child_time[sel]) / ns_per_unit
            else:
                samples = dur[sel] / ns_per_unit
            p50, p99 = np.percentile(samples, [50, 99])
            out[f"{base}.p50"] = (float(p50), unit)
            out[f"{base}.p99"] = (float(p99), unit)
            out[f"{base}.calls"] = (int(sel.sum()), "count")
        for name, label in SELF_TOTALS:
            sel = select(label)
            out[name] = (float(self_time[sel].sum() / 1e9), "s")
            out[f"{name}.calls"] = (int(sel.sum()), "count")
        cold = select("analytics.enumerate_exact[cold]")
        out["analytics.enumerate_exact.cold_ms"] = (float(np.median(dur[cold]) / 1e6), "ms")
        out["analytics.enumerate_exact.cold_ms.calls"] = (int(cold.sum()), "count")
        for name, unit, _better in VALUES:
            if name in out:
                continue
            samples = self.values.get(name)
            if not samples:
                raise KeyError(f"no value recorded for {name}")
            out[name] = (float(np.mean(samples)), unit)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as arrays, with the label table, to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            label_id=np.frombuffer(self.label_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
        )
