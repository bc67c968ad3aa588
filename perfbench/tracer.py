"""Span tracing of the levislice layers, from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
``levislice`` module namespace (and class) that refers to it, so calls made
through ``module.func`` and through ``from .module import func`` names are
both seen.  `Tracer.uninstall()` puts the originals back.  Each call records
a span ``[name, start, end, parent, request]``; spans stay in memory until
`write()`.  A function missing from the package (renamed or removed by a
later change) is listed in `absent`; metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# Layers in call order, with the functions wrapped in each.
LAYERS = {
    "catalog": ("load_domain_spec", "parse_domain_file", "DomainSpec.domain"),
    "expr": ("parse", "check_real_valued", "eval_value_grad", "eval_jet_batch",
             "eval_jet", "eval_raw", "compose_with_affine"),
    "levi": ("make_domain", "sample_box_points", "sample_boundary", "classify"),
    "linalg": ("tangent_null_basis", "hermitian_eig_min", "hermitian_eig",
               "gram_solve_2"),
    "slicing": ("witness_slice", "make_slice"),
    "hormander": ("build_quadratic_witness", "verify_quadratic_witness"),
    "cli": ("main", "_forward_slice_sweep"),
}

# Both eigensolver entry points, counted together as linalg.eig.
EIG_FUNCTIONS = ("linalg.hermitian_eig_min", "linalg.hermitian_eig")

NAME, START, END, PARENT, REQUEST = range(5)


def _arg(signature, args, kwargs, name):
    try:
        return signature.bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _count_classify(c, sig, args, kwargs, result):
    if result is not None:
        c["levi.probes"] += len(result.probes)


def _count_box(c, sig, args, kwargs, result):
    if result is not None:
        c["levi.box_points"] += len(result)


def _count_boundary(c, sig, args, kwargs, result):
    requested = _arg(sig, args, kwargs, "count")
    if isinstance(requested, int):
        c["levi.boundary_requested"] += requested
    if result is not None:
        c["levi.boundary_returned"] += len(result)


def _count_jet_batch(c, sig, args, kwargs, result):
    if result is not None:
        c["expr.jet_points"] += len(result)


def _count_verify(c, sig, args, kwargs, result):
    if result is not None:
        c["hormander.containment_points"] += result.samples * (result.halvings + 1)
        c["hormander.halvings"] += result.halvings


def _count_sweep(c, sig, args, kwargs, result):
    if result is not None:
        c["cli.forward_slices"] += result["count"]


COUNTERS = {
    "levi.classify": _count_classify,
    "levi.sample_box_points": _count_box,
    "levi.sample_boundary": _count_boundary,
    "expr.eval_jet_batch": _count_jet_batch,
    "hormander.verify_quadratic_witness": _count_verify,
    "cli._forward_slice_sweep": _count_sweep,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        # number of the request being traced; the client advances it
        self.request: int = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ancestors: list[frozenset] = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "levislice" or name.startswith("levislice.")]
        self.absent = []
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"levislice.{layer}")
            for name in names:
                owner, attr = module, name
                if "." in name:
                    owner_name, attr = name.split(".", 1)
                    owner = getattr(module, owner_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                if owner is not module:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, qualname: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(qualname)
        signature = inspect.signature(fn) if count else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qualname, perf_counter(), 0.0,
                    stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = perf_counter()
                stack.pop()
                if count:
                    count(counters, signature, args, kwargs, result)

        return traced

    # -- analysis -----------------------------------------------------------

    def _ancestor_names(self) -> list[frozenset]:
        """For each span, the set of function names on its parent chain."""
        if len(self._ancestors) != len(self.spans):
            shared: dict = {}
            chains: list[frozenset] = []
            for span in self.spans:
                parent = span[PARENT]
                if parent < 0:
                    chains.append(frozenset())
                    continue
                key = (chains[parent], self.spans[parent][NAME])
                if key not in shared:
                    shared[key] = key[0] | {key[1]}
                chains.append(shared[key])
            self._ancestors = chains
        return self._ancestors

    def total(self, names, under=(), not_under=()) -> tuple[float, int]:
        """Seconds and calls of the outermost spans named in `names`,
        optionally only those below a span in `under` and none in `not_under`."""
        names, under, not_under = set(names), set(under), set(not_under)
        seconds, calls = 0.0, 0
        for span, above in zip(self.spans, self._ancestor_names()):
            if span[NAME] not in names or not names.isdisjoint(above):
                continue
            if under and under.isdisjoint(above):
                continue
            if not not_under.isdisjoint(above):
                continue
            seconds += span[END] - span[START]
            calls += 1
        return seconds, calls

    def self_times(self) -> dict[str, float]:
        """Per function: span durations minus the time their child spans cover."""
        out: Counter = Counter()
        for span in self.spans:
            duration = span[END] - span[START]
            out[span[NAME]] += duration
            if span[PARENT] >= 0:
                out[self.spans[span[PARENT]][NAME]] -= duration
        return dict(out)

    def function_table(self) -> dict[str, dict]:
        """Calls, inclusive seconds and self seconds for every traced function."""
        table: dict[str, dict] = {}
        for span in self.spans:
            row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[END] - span[START]
        for name, value in self.self_times().items():
            table[name]["self_s"] = value
        return table

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, per traced request (yield as a ratio)."""
        per = 1.0 / max(requests, 1)
        selfs = self.self_times()
        c = self.counters
        eig_s, eig_calls = self.total(EIG_FUNCTIONS)
        tangent_s, _ = self.total(["linalg.tangent_null_basis"])
        classify_s, classify_calls = self.total(["levi.classify"])
        box_s, _ = self.total(["levi.sample_box_points"])
        boundary_s, _ = self.total(["levi.sample_boundary"])
        _, newton = self.total(["expr.eval_value_grad"], under=["levi.sample_boundary"])
        sweep_s, _ = self.total(["cli._forward_slice_sweep"])
        compose_s, compose_calls = self.total(["expr.compose_with_affine"])
        real_s, real_calls = self.total(["expr.check_real_valued"])
        value_grad_s, _ = self.total(["expr.eval_value_grad"])
        jet_batch_s, _ = self.total(["expr.eval_jet_batch"])
        _, jet_single = self.total(["expr.eval_jet"])
        parse_s, _ = self.total(["expr.parse"])
        load_s, _ = self.total(["catalog.load_domain_spec", "catalog.domain"])
        verify_s, _ = self.total(["hormander.verify_quadratic_witness"])
        _, build_calls = self.total(["hormander.build_quadratic_witness"])
        raw_s, _ = self.total(["expr.eval_raw"], not_under=["expr.check_real_valued"])
        witness_s, _ = self.total(["slicing.witness_slice"])
        requested = c["levi.boundary_requested"]
        s, n = "s/req", "count/req"
        return {
            "linalg.eig_s": (eig_s * per, s),
            "linalg.eig_calls": (eig_calls * per, n),
            "linalg.tangent_basis_s": (tangent_s * per, s),
            "levi.classify_s": (classify_s * per, s),
            "levi.classify_calls": (classify_calls * per, n),
            "levi.probes": (c["levi.probes"] * per, n),
            "levi.probe_self_s": (selfs.get("levi.classify", 0.0) * per, s),
            "levi.box_sample_s": (box_s * per, s),
            "levi.box_points": (c["levi.box_points"] * per, n),
            "levi.boundary_s": (boundary_s * per, s),
            "levi.newton_iters": (newton * per, n),
            "levi.boundary_yield": (c["levi.boundary_returned"] / requested
                                    if requested else 0.0, "ratio"),
            "cli.forward_sweep_s": (sweep_s * per, s),
            "cli.forward_slices": (c["cli.forward_slices"] * per, n),
            "expr.compose_s": (compose_s * per, s),
            "expr.compose_calls": (compose_calls * per, n),
            "expr.realness_s": (real_s * per, s),
            "expr.realness_calls": (real_calls * per, n),
            "expr.value_grad_s": (value_grad_s * per, s),
            "expr.jet_batch_s": (jet_batch_s * per, s),
            "expr.jet_points": (c["expr.jet_points"] * per, n),
            "expr.jet_single_calls": (jet_single * per, n),
            "expr.parse_s": (parse_s * per, s),
            "catalog.load_s": (load_s * per, s),
            "hormander.verify_s": (verify_s * per, s),
            "hormander.containment_points": (c["hormander.containment_points"] * per, n),
            "hormander.halvings": (c["hormander.halvings"] * per, n),
            "hormander.build_calls": (build_calls * per, n),
            "expr.eval_raw_s": (raw_s * per, s),
            "slicing.witness_slice_s": (witness_s * per, s),
            "cli.self_s": (selfs.get("cli.main", 0.0) * per, s),
        }

    def write(self, path: Path):
        names = sorted({span[NAME] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "span_fields": ["name", "start", "end", "parent", "request"],
            "names": names,
            "absent": self.absent,
            "counters": dict(self.counters),
            "spans": [[index[s[NAME]], s[START], s[END], s[PARENT], s[REQUEST]]
                      for s in self.spans],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
