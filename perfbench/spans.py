"""Spans and counters recorded from outside the edgebetti package.

The benchmark never edits the package.  It replaces public functions with
timing wrappers at the names their callers look up at call time, for example
``edgebetti.betti.independent_sets_by_card`` (looked up by the subset sweep)
or ``edgebetti.verify.betti_table`` (looked up by the verify checks).  Each
wrapped call records one span: layer name, start, end and the span that was
open when it started (its parent).  A layer's self time is its span time
minus the time of its child spans.

Call sites are found from the public API: "the module that defines
``edgebetti.betti_table``" rather than a fixed module path, so the trace
keeps working when a function moves between modules.  A boundary whose name
no longer exists is reported as absent; its metrics are left out instead of
reading zero.

Spans are kept in memory and aggregated (or written out) once, after the
pass they belong to.  Aggregated times are in reference seconds: the
wrappers also run the speed probe of speed.py every speed.GAP_S seconds, and
ReferenceClock scales the time between two probes by their speed.
"""

from __future__ import annotations

import functools
import json
import sys
from bisect import bisect_right
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

import speed


def _home(public_name):
    """Site resolver: the module that defines the package's *public_name*."""

    def resolve(eb):
        obj = getattr(eb, public_name, None)
        return sys.modules.get(getattr(obj, "__module__", ""), None)

    return resolve


def _package(eb):
    return eb


# -- counters, called after the wrapped function returned ---------------------


def _count_table(counts, args, kwargs, result):
    counts["betti.subsets"] += (1 << args[0].n) - 1


def _count_single(counts, args, kwargs, result):
    g, i, j = args[:3]
    if i > 0 and j > 0 and i + j <= g.n:
        counts["betti.subsets"] += comb(g.n, i + j)


def _count_indep(counts, args, kwargs, result):
    counts["homology.indep.faces"] += sum(map(len, result))


def _count_dims(counts, args, kwargs, result):
    if any(result.values()):
        counts["homology.dims.nonzero"] += 1


def _note_matrix(counts, rows, nnz, cols):
    counts["linalg.nnz"] += nnz
    if rows > counts["linalg.rows_max"]:
        counts["linalg.rows_max"] = rows
    if cols > counts["linalg.cols_max"]:
        counts["linalg.cols_max"] = cols


def _count_rank_rows(counts, args, kwargs, result):
    rows = args[0]
    cols = max((max(r) + 1 for r in rows if r), default=0)
    _note_matrix(counts, len(rows), sum(map(len, rows)), cols)


def _count_rank_masks(counts, args, kwargs, result):
    masks = args[0]
    _note_matrix(
        counts,
        len(masks),
        sum(m.bit_count() for m in masks),
        max((m.bit_length() for m in masks), default=0),
    )


def _field_of_rank(args, kwargs):
    p = args[1] if len(args) > 1 else kwargs.get("p")
    return ".qq" if p is None else ".gf2" if p == 2 else ".gfp"


# attribute -> span-name suffix, for boundaries whose spans split by argument
_SPAN_SUFFIX = {"matrix_rank": _field_of_rank, "rank_gf2": lambda args, kwargs: ".gf2"}
RANK_SPANS = ("linalg.rank.qq", "linalg.rank.gfp", "linalg.rank.gf2")


def _count_kept_list(counts, args, kwargs, result):
    counts["verify.enum.kept"] += len(result)


def _count_kept_one(counts, args, kwargs, result):
    counts["verify.enum.kept"] += 1


# (layer, site resolver, attribute, counter).  A layer of None marks a
# boundary that records no span: the call is counted under the counter name
# (if any) and may run the speed probe.  The first boundary listed for a name
# is the one installed.
_END_TO_END_SPANS = (
    ("betti.table", _package, "betti_table", _count_table),
    ("betti.table", _home("verify_cert_support"), "betti_table", _count_table),
    ("betti.single", _package, "betti_single", _count_single),
    ("verify.enum", _package, "all_trees", _count_kept_list),
    ("verify.enum", _package, "all_chordal_graphs", _count_kept_list),
    ("verify.enum", _package, "random_chordal", _count_kept_one),
    ("verify.check", _package, "verify_cert_support", None),
    ("verify.check", _package, "verify_reg_eq_indmatch", None),
)

# Calls made every few milliseconds inside long package calls: places to run
# the speed probe during a plain pass, so that a 3-second table is scaled by
# the speed measured during it, not only at its ends.  Between probes each
# costs one clock read, well under a microsecond.
_PROBE_POINTS = (
    (None, _home("betti_table"), "independent_sets_by_card", None),
    (None, _home("all_trees"), "new_graph", None),
)

END_TO_END_BOUNDARIES = _END_TO_END_SPANS + _PROBE_POINTS

LAYER_BOUNDARIES = _END_TO_END_SPANS + (
    ("homology.indep", _home("betti_table"), "independent_sets_by_card", _count_indep),
    ("homology.dims", _home("betti_table"), "homology_dims_from_levels", _count_dims),
    ("linalg.rank", _home("reduced_homology_dims"), "matrix_rank", _count_rank_rows),
    ("linalg.rank", _home("reduced_homology_dims"), "rank_gf2", _count_rank_masks),
    ("bouquets.certified", _home("verify_cert_support"), "certified_positions", None),
    ("analysis.extremal", _package, "extremal_positions", None),
    ("analysis.extremal", _home("verify_cert_support"), "extremal_positions", None),
    ("graphs.is_chordal", _home("verify_cert_support"), "is_chordal", None),
    ("graphs.is_chordal", _home("certified_positions"), "is_chordal", None),
    ("graphs.indmatch", _home("verify_cert_support"), "induced_matching_number", None),
    ("verify.canonical_key", _home("all_chordal_graphs"), "canonical_key", None),
    (None, _home("all_trees"), "new_graph", "verify.enum.candidates"),
)


class ReferenceClock:
    """Measured time to reference seconds, from the probes of one pass.

    Between two probes the core is taken to run at the mean of their speeds;
    probe time itself counts as zero.  Times outside the probed stretch use
    the speed of the nearest segment.
    """

    def __init__(self, probes: list[tuple[float, float]]):
        # segment k runs from the end of probe k to the start of probe k+1
        self.starts, self.ends, self.base, self.scale = [], [], [], []
        ref = 0.0
        for (s0, d0), (s1, d1) in zip(probes, probes[1:]):
            scale = speed.REFERENCE_S * 2 / (d0 + d1)
            self.starts.append(s0 + d0)
            self.ends.append(s1)
            self.base.append(ref)
            self.scale.append(scale)
            ref += (s1 - s0 - d0) * scale

    def at(self, t: float) -> float:
        k = max(bisect_right(self.starts, t) - 1, 0)
        end = self.ends[k] if k < len(self.ends) - 1 else t
        return self.base[k] + (min(t, end) - self.starts[k]) * self.scale[k]

    def between(self, t0: float, t1: float) -> float:
        return self.at(t1) - self.at(t0)


class Tracer:
    """Spans, counters and speed probes of one pass.

    install() before the pass and uninstall() after it; call probe() right
    before and right after the pass.  At every installed boundary the tracer
    also runs the speed probe when speed.GAP_S seconds have passed since the
    last one.  Span times are converted to reference seconds by clock().
    """

    def __init__(self, boundaries):
        self.boundaries = boundaries
        self.probes: list[tuple[float, float]] = []  # (start, duration)
        self._due = [0.0]  # when the next probe is due
        self.spans: list = []
        self.stack: list[int] = []
        self.paused: defaultdict[int, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.present: set[str] = set()
        self.absent: set[str] = set()
        self._restore: list = []

    def install(self, eb) -> "Tracer":
        done = set()
        for layer, site, attr, counter in self.boundaries:
            module = site(eb)
            name = counter if layer is None else layer
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                if name:
                    self.absent.add(name)
                continue
            if name:
                self.present.add(name)
            if (id(module), attr) in done:
                continue
            done.add((id(module), attr))
            if layer is None:
                wrapper = self._count_only(counter, fn)
            else:
                wrapper = self._wrap(layer, fn, counter, _SPAN_SUFFIX.get(attr))
            self._restore.append((module, attr, fn))
            setattr(module, attr, wrapper)
        self.absent -= self.present
        return self

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _count_only(self, key, fn):
        counts, due = self.counts, self._due

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if perf_counter() >= due[0]:
                self.probe()
            if key:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def probe(self) -> None:
        t = perf_counter()
        d = speed.probe()
        self.probes.append((t, d))
        self._due[0] = t + d + speed.GAP_S

    def _wrap(self, layer, fn, counter, suffix):
        spans, stack, paused, counts, due = self.spans, self.stack, self.paused, self.counts, self._due

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if perf_counter() >= due[0]:
                self.probe()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (layer + suffix(args, kwargs) if suffix else layer, t0, t1, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
                if parent >= 0:
                    # counting is benchmark work: keep it out of the parent's self time
                    paused[parent] += perf_counter() - t1
            return result

        return traced

    def clock(self) -> ReferenceClock:
        return ReferenceClock(self.probes)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """layer -> {"calls", "s" (span time), "self_s" (minus child spans)},
        in reference seconds."""
        clock = self.clock()
        ref = [clock.between(t0, t1) for _, t0, t1, _ in self.spans]
        child = [0.0] * len(self.spans)
        for idx, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += ref[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, (name, t0, t1, _) in enumerate(self.spans):
            a = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["s"] += ref[idx]
            paused = self.paused.get(idx, 0.0) * ref[idx] / (t1 - t0) if t1 > t0 else 0.0
            a["self_s"] += ref[idx] - child[idx] - paused
        return out

    def per_root(self, layer: str) -> list[Counter]:
        """Calls per layer below each top-level span of *layer*, in call order."""
        root = [0] * len(self.spans)
        out: list[Counter] = []
        slot: dict[int, Counter] = {}
        for idx, (name, _, _, parent) in enumerate(self.spans):
            root[idx] = idx if parent < 0 else root[parent]
            if parent < 0 and name == layer:
                slot[idx] = Counter()
                out.append(slot[idx])
            elif root[idx] in slot:
                slot[root[idx]][name] += 1
        return out

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["layer", "start_s", "end_s", "parent"],
                    "layers": names,
                    "spans": [
                        [index[n], round(t0 - base, 9), round(t1 - base, 9), p]
                        for n, t0, t1, p in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, name -> (value, unit).

    A layer that is installed but never called on this workload reads 0;
    a layer whose boundary is gone from the package is left out.
    """
    agg = tracer.aggregate()
    counts = tracer.counts
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def layer(name):
        return agg.get(name, zero)

    indep, dims = layer("homology.indep"), layer("homology.dims")
    cert, canon = layer("bouquets.certified"), layer("verify.canonical_key")
    subsets = counts["betti.subsets"]
    table = {
        "betti.table.self_s": ("betti.table", layer("betti.table")["self_s"], "s"),
        "betti.single.self_s": ("betti.single", layer("betti.single")["self_s"], "s"),
        "betti.subsets": ("betti.table", subsets, "count"),
        "betti.noncone": ("homology.indep", indep["calls"], "count"),
        "betti.noncone_frac": ("homology.indep", _ratio(indep["calls"], subsets), "ratio"),
        "homology.indep.calls": ("homology.indep", indep["calls"], "count"),
        "homology.indep.s": ("homology.indep", indep["s"], "s"),
        "homology.indep.faces": ("homology.indep", counts["homology.indep.faces"], "count"),
        "homology.dims.calls": ("homology.dims", dims["calls"], "count"),
        "homology.dims.self_s": ("homology.dims", dims["self_s"], "s"),
        "homology.nonzero_frac": (
            "homology.dims",
            _ratio(counts["homology.dims.nonzero"], dims["calls"]),
            "ratio",
        ),
        "linalg.rank_calls": ("linalg.rank", sum(layer(n)["calls"] for n in RANK_SPANS), "count"),
        "linalg.nnz": ("linalg.rank", counts["linalg.nnz"], "count"),
        "linalg.rows_max": ("linalg.rank", counts["linalg.rows_max"], "count"),
        "linalg.cols_max": ("linalg.rank", counts["linalg.cols_max"], "count"),
        "linalg.rank_s.qq": ("linalg.rank", layer("linalg.rank.qq")["s"], "s"),
        "linalg.rank_s.gfp": ("linalg.rank", layer("linalg.rank.gfp")["s"], "s"),
        "linalg.rank_s.gf2": ("linalg.rank", layer("linalg.rank.gf2")["s"], "s"),
        "bouquets.certified.calls": ("bouquets.certified", cert["calls"], "count"),
        "bouquets.certified.s": ("bouquets.certified", cert["s"], "s"),
        "analysis.extremal.s": ("analysis.extremal", layer("analysis.extremal")["s"], "s"),
        "graphs.is_chordal.s": ("graphs.is_chordal", layer("graphs.is_chordal")["s"], "s"),
        "graphs.indmatch.s": ("graphs.indmatch", layer("graphs.indmatch")["s"], "s"),
        "verify.enum.candidates": ("verify.enum.candidates", counts["verify.enum.candidates"], "count"),
        "verify.enum.kept": ("verify.enum", counts["verify.enum.kept"], "count"),
        "verify.enum.keep_frac": (
            "verify.enum.candidates",
            _ratio(counts["verify.enum.kept"], counts["verify.enum.candidates"]),
            "ratio",
        ),
        "verify.canonical_key.calls": ("verify.canonical_key", canon["calls"], "count"),
        "verify.canonical_key.s": ("verify.canonical_key", canon["s"], "s"),
        "verify.check.self_s": ("verify.check", layer("verify.check")["self_s"], "s"),
    }
    return {
        name: (value, unit)
        for name, (needs, value, unit) in table.items()
        if needs not in tracer.absent
    }
