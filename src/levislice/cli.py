"""Command-line front end.

Subcommands:
    check            classify a domain at sampled boundary points
    slice            classify a two-dimensional affine slice of a domain
    verify-theorem   run the full witness pipeline (or the forward slice sweep)
    catalog          list the built-in model domains

The theorem pipeline lives in `levislice.pipeline`; this module parses
arguments and serializes results.

Exit codes: 0 ok/pseudoconvex, 2 input error, 3 nonpseudoconvex,
4 degenerate, 5 pipeline failure.  An input error is any failure to load or
classify the domain, in every command, including a request too large for
memory; a pipeline failure is a failed stage of verify-theorem after the
classification.  All reports serialize complex numbers as [re, im] pairs;
identical inputs and seeds give byte-identical JSON apart from the timing
block.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from . import expr as ex
from . import hormander as hm
from . import levi
from .catalog import CATALOG, load_domain_spec
from .levi import (VERDICT_DEGENERATE, VERDICT_NONPSEUDOCONVEX,
                   VERDICT_PSEUDOCONVEX, Domain)
from .pipeline import (SLICE_WINDOW, PipelineError, classify_slice,
                       verify_theorem)
from .slicing import make_slice

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONPSEUDOCONVEX = 3
EXIT_DEGENERATE = 4
EXIT_PIPELINE = 5

VERDICT_EXIT = {
    VERDICT_PSEUDOCONVEX: EXIT_OK,
    VERDICT_NONPSEUDOCONVEX: EXIT_NONPSEUDOCONVEX,
    VERDICT_DEGENERATE: EXIT_DEGENERATE,
}


class InputError(ex.Error):
    pass


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _jsonable(x):
    """A result as JSON data: dataclasses become dicts of their fields and
    complex arrays nested [re, im] pairs."""
    if dataclasses.is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return [float(x.real), float(x.imag)]
    return x


def parse_cvector(text: str) -> np.ndarray:
    """Parse 're:im,re:im,...' into a complex vector."""
    entries = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise InputError(f"bad complex entry {part!r}; expected re:im")
        try:
            entries.append(float(pieces[0]) + 1j * float(pieces[1]))
        except ValueError as err:
            raise InputError(f"bad complex entry {part!r}: {err}") from err
    return np.array(entries, complex)


def _start(args, command: str) -> tuple[float, Domain, dict]:
    """Load the domain named by the arguments and open the command's report,
    which holds the resolved sample count and seed."""
    started = time.monotonic()
    spec = load_domain_spec(args.domain)
    samples = args.samples if args.samples is not None else spec.samples
    seed = args.seed if args.seed is not None else spec.seed
    if samples < 1:
        raise InputError(f"--samples must be at least 1, got {samples}")
    if seed < 0:
        raise InputError(f"--seed must be non-negative, got {seed}")
    domain = spec.domain()
    report = {
        "tool": "levislice",
        "version": __version__,
        "command": command,
        "domain": spec.name,
        "n": spec.n,
        "rho": spec.rho,
        "samples": samples,
        "seed": seed,
    }
    return started, domain, report


def _attach_classification(report: dict, result: levi.LeviReport):
    report["verdict"] = result.verdict
    report["probe_count"] = len(result.lambdas)
    report["degenerate_count"] = result.degenerate_count
    report["worst"] = (_jsonable(result.worst_probe)
                       if result.worst is not None else None)


def _emit(report: dict, as_json: bool, started: float):
    report["timing"] = {"seconds": time.monotonic() - started}
    if as_json:
        print(json.dumps(report, indent=2))
        return
    print(f"{report['command']}: domain {report['domain']} (n={report['n']})")
    if "verdict" in report:
        print(f"  verdict: {report['verdict']}")
    worst = report.get("worst")
    if worst:
        print(f"  worst lambda_min: {worst['lambda_min']:.6g} at {worst['point']}")
    if "certificate" in report:
        cert = report["certificate"]
        print(f"  witness slice lambda_slice: {cert['lambda_slice']:.6g} "
              f"(lambda {cert['lambda']:.6g})")
    if "forward_slices" in report:
        fwd = report["forward_slices"]
        print(f"  forward slices: {fwd['count']} checked, "
              f"min lambda {fwd['min_lambda']:.6g}, "
              f"all pseudoconvex: {fwd['all_pseudoconvex']}")
    if "witness_slice_reclassification" in report:
        rec = report["witness_slice_reclassification"]
        print(f"  witness slice verdict: {rec['verdict']} "
              f"(worst lambda {rec['worst_lambda']:.6g})")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    started, domain, report = _start(args, "check")
    result = levi.classify(domain, report["samples"], report["seed"])
    _attach_classification(report, result)
    _emit(report, args.json, started)
    return VERDICT_EXIT[result.verdict]


def cmd_slice(args) -> int:
    if args.grid is not None and args.grid < 1:
        raise InputError(f"--grid must be at least 1, got {args.grid}")
    if not (np.isfinite(args.window) and args.window > 0):
        raise InputError(f"--window must be positive and finite, got {args.window}")
    if not np.isfinite(2.0 * args.window):
        raise InputError(f"--window must have a finite width 2*window, got {args.window}")
    started, domain, report = _start(args, "slice")
    a = parse_cvector(args.a) if args.a else np.zeros(domain.n, complex)
    b, c = parse_cvector(args.b), parse_cvector(args.c)
    for flag, vector in (("a", a), ("b", b), ("c", c)):
        if not np.all(np.isfinite(vector)):
            raise InputError(f"--{flag} must have finite entries, "
                             f"got {getattr(args, flag)}")
    if not (len(a) == len(b) == len(c) == domain.n):
        raise InputError(f"slice vectors must have length {domain.n}")
    s = make_slice(a, b, c)
    result = classify_slice(domain, s, args.window, report["samples"], report["seed"])
    report["slice"] = {"a": _jsonable(a), "b": _jsonable(b), "c": _jsonable(c)}
    _attach_classification(report, result)
    if args.grid is not None:
        path = args.out or "slice_grid.csv"
        _write_grid(domain, a, s.frame, args.grid, args.window, path)
        report["grid_csv"] = path
    _emit(report, args.json, started)
    return VERDICT_EXIT[result.verdict]


def _write_grid(domain: Domain, a, frame, k: int, window: float, path: str):
    """K x K grid of rho_h over the (Re w1, Re w2) window, imaginary parts 0."""
    axis = np.linspace(-window, window, k)
    w1, w2 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([w1.ravel(), w2.ravel()], axis=1).astype(complex)
    values = ex.eval_raw(domain.ast, a + pts @ frame.T).real
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re_w1,im_w1,re_w2,im_w2,rho_h\n")
        for (u, v), val in zip(pts, values):
            fh.write(f"{float(u.real)!r},0.0,{float(v.real)!r},0.0,{float(val)!r}\n")


def cmd_verify_theorem(args) -> int:
    if args.containment_samples < hm.MIN_CONTAINMENT_SAMPLES:
        raise InputError(f"--containment-samples must be at least "
                         f"{hm.MIN_CONTAINMENT_SAMPLES}, got {args.containment_samples}")
    started, domain, report = _start(args, "verify-theorem")
    run = verify_theorem(domain, report["samples"], report["seed"],
                         args.containment_samples)
    _attach_classification(report, run.classification)
    if run.classification.verdict == VERDICT_DEGENERATE:
        _emit(report, args.json, started)
        return EXIT_DEGENERATE
    if run.forward is not None:
        report["forward_slices"] = _jsonable(run.forward)
    else:
        report["hormander"] = _jsonable(run.record)
        cert = _jsonable(run.certificate)
        report["certificate"] = {("lambda" if key == "lam" else key): value
                                 for key, value in cert.items()}
        # a witness slice that reclassifies nonpseudoconvex has a worst probe
        reclass = run.reclassification
        report["witness_slice_reclassification"] = {
            "verdict": reclass.verdict,
            "worst_lambda": float(reclass.lambdas[reclass.worst]),
        }
    report["theorem_consistent"] = True
    _emit(report, args.json, started)
    return EXIT_OK


def cmd_catalog(args) -> int:
    entries = [{"name": spec.name, "n": spec.n, "rho": spec.rho,
                "expected": spec.expected} for spec in CATALOG.values()]
    if args.json:
        print(json.dumps({"tool": "levislice", "version": __version__,
                          "command": "catalog", "entries": entries}, indent=2))
    else:
        for entry in entries:
            print(f"{entry['name']:10s} n={entry['n']}  {entry['expected']:16s} "
                  f"rho = {entry['rho']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="levislice",
        description="Pseudoconvexity analysis of domains in C^n via the Levi "
                    "form, with two-dimensional witness slices.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("domain", help="catalog name or domain-file path")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="classify a domain")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_slice = sub.add_parser("slice", help="classify an affine 2D slice")
    add_common(p_slice)
    p_slice.add_argument("--a", default=None, help="base point, re:im,...")
    p_slice.add_argument("--b", required=True, help="first direction, re:im,...")
    p_slice.add_argument("--c", required=True, help="second direction, re:im,...")
    p_slice.add_argument("--window", type=float, default=SLICE_WINDOW)
    p_slice.add_argument("--grid", type=int, default=None, metavar="K",
                         help="write a KxK CSV grid of rho_h")
    p_slice.add_argument("--out", default=None, help="CSV output path")
    p_slice.set_defaults(func=cmd_slice)

    p_verify = sub.add_parser("verify-theorem",
                              help="run the witness pipeline end to end")
    add_common(p_verify)
    p_verify.add_argument("--containment-samples", type=int,
                          default=hm.CONTAINMENT_SAMPLES,
                          help="random points per radius of the sampling "
                               "fallback, used only when the witness's "
                               "containment cannot be proved")
    p_verify.set_defaults(func=cmd_verify_theorem)

    p_cat = sub.add_parser("catalog", help="list built-in domains")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PIPELINE
    except (ex.Error, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as err:
        print(f"error: out of memory: {str(err) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_INPUT


def console_main():  # pragma: no cover
    sys.exit(main())
