"""Span tracing of treewalks layers from outside the package.

``Tracer.install()`` wraps each function in ``TARGETS`` in every module
namespace of ``treewalks`` that binds it, and in module-level dicts that
hold it: the modules import by name (``walks.s_table_recurrence``,
``cli.borel_table``, ``cli._METHODS``), so patching the defining module
alone would miss most calls.  Each wrapped call records a span (name,
start, end, parent span, query id) in flat arrays, kept in memory until
``write_spans``.  Self time is a span's duration minus the time its direct
children cover, summed online per name.

``RLSequence.component_spans`` runs hundreds of thousands of times per
``verify`` query, so it is only counted (calls and distinct sequences),
not spanned.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from math import comb

TARGETS = {
    "treewalks._kernel": ("component_histogram", "enumerate_masks"),
    "treewalks.rlseq": (
        "s_table_recurrence", "s_table_enumerated", "enumerate_sequences",
        "components", "delete_component_pair", "insert_component_pair",
    ),
    "treewalks.triangles": (
        "catalan_entry", "borel_entry_transform", "borel_entry_explicit",
        "catalan_table", "borel_table",
    ),
    "treewalks.series": ("sqrt_series", "reciprocal_series", "gf_series", "gf_walk_counts"),
    "treewalks.oracle": ("dp_walk_count", "dp_return_profile"),
    "treewalks.walks": (
        "walks_via_components", "walks_via_catalan", "walks_via_borel", "walks_polynomial",
    ),
    "treewalks.verify": (
        "check_method_agreement", "check_s_table", "check_bijection",
        "check_borel_consistency", "check_central_binomial",
        "check_return_corollaries", "check_fixtures",
    ),
    # the fixture readers are one layer, reported together
    "treewalks.fixtures": (
        "fixture_text", "triangle_rows", "polynomial_coefficients", "k_return_multipliers",
    ),
    "treewalks.cli": ("main",),
}


def label(module: str, func: str) -> str:
    """Metric prefix: module without package or leading underscore, then function."""
    short = module.rsplit(".", 1)[-1].lstrip("_")
    return f"{short}.all" if short == "fixtures" else f"{short}.{func}"


def layer_names() -> list[str]:
    """Every traced span name, in TARGETS order, without duplicates."""
    return list(dict.fromkeys(label(m, f) for m, fs in TARGETS.items() for f in fs))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = layer_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_query = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.query = -1
        self.missing: list[str] = []
        self.paths_visited = 0
        self.polynomial_ns: set[int] = set()
        self.spans_calls = 0
        self.spans_seen: set = set()
        self._open: list[int] = []
        self._child: list[float] = []

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        clock = time.perf_counter
        opened, child = self._open, self._child
        names, parents, queries = self.span_name, self.span_parent, self.span_query
        starts, ends = self.span_start, self.span_end
        hook = None
        if name.startswith("kernel."):
            def hook(args):  # enumerating semi-length m visits Catalan(m) paths
                self.paths_visited += comb(2 * args[0], args[0]) // (args[0] + 1)
        elif name == "walks.walks_polynomial":
            def hook(args):
                self.polynomial_ns.add(args[0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = len(starts)
            names.append(nid)
            parents.append(opened[-1] if opened else -1)
            queries.append(self.query)
            starts.append(0.0)
            ends.append(0.0)
            opened.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[nid] += 1
                raise
            finally:
                t1 = clock()
                opened.pop()
                inner = child.pop()
                starts[idx], ends[idx] = t0, t1
                self.calls[nid] += 1
                self.self_s[nid] += (t1 - t0) - inner
                if child:
                    child[-1] += t1 - t0
        return traced

    def install(self) -> None:
        """Wrap every target in every treewalks namespace that binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "treewalks" or k.startswith("treewalks.")]
        for modname, funcs in TARGETS.items():
            module = importlib.import_module(modname)
            for func in funcs:
                orig = getattr(module, func, None)
                if orig is None:
                    self.missing.append(f"{modname}.{func}")
                    continue
                wrapper = self._wrap(label(modname, func), orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, item in value.items():
                                if item is orig:
                                    value[key] = wrapper
        self._count_component_spans()

    def _count_component_spans(self) -> None:
        cls = getattr(importlib.import_module("treewalks.rlseq"), "RLSequence", None)
        orig = getattr(cls, "component_spans", None)
        if orig is None:
            self.missing.append("treewalks.rlseq.RLSequence.component_spans")
            return
        seen = self.spans_seen

        @functools.wraps(orig)
        def counted(seq):
            self.spans_calls += 1
            seen.add(seq)
            return orig(seq)

        cls.component_spans = counted

    def stats(self) -> dict:
        """Per-name totals and the derived counts, for one pass."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.errors"] = self.errors[i]
        poly_calls = self.calls[self._ids["walks.walks_polynomial"]]
        out["walks.walks_polynomial.distinct_per_call"] = (
            len(self.polynomial_ns) / poly_calls if poly_calls else 0.0)
        out["rlseq.component_spans.calls"] = self.spans_calls
        out["rlseq.component_spans.per_sequence"] = (
            self.spans_calls / len(self.spans_seen) if self.spans_seen else 0.0)
        out["kernel.paths_visited"] = self.paths_visited
        return out

    def write_spans(self, path: str, header: str, origin: float) -> None:
        """Write the spans as gzipped TSV, times in seconds from ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("span\tname\tstart_s\tend_s\tparent\tquery\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i] - origin:.7f}\t"
                    f"{self.span_end[i] - origin:.7f}\t{self.span_parent[i]}\t{self.span_query[i]}\n"
                )
