"""Command-line front end.

Subcommands:
    check            classify a domain at sampled boundary points
    slice            classify a two-dimensional affine slice of a domain
    verify-theorem   run the full witness pipeline (or the forward slice sweep)
    catalog          list the built-in model domains

Exit codes: 0 ok/pseudoconvex, 2 input error, 3 nonpseudoconvex,
4 degenerate, 5 pipeline failure.  All reports serialize complex numbers
as [re, im] pairs; identical inputs and seeds give byte-identical JSON
apart from the timing block.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from . import expr as ex
from . import hormander as hm
from . import levi
from . import slicing as sl
from .catalog import CATALOG, DomainFileError, DomainSpec, load_domain_spec
from .levi import (VERDICT_DEGENERATE, VERDICT_NONPSEUDOCONVEX,
                   VERDICT_PSEUDOCONVEX, Domain)

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

SLICE_WINDOW = 2.0          # half-width of the w-plane sampling box
SLICE_PROBES = 50           # boundary probes per slice in the forward sweep
RECLASSIFY_SAMPLES = 200    # boundary probes on a witness slice


class InputError(Exception):
    pass


class PipelineError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _cvec(v) -> list[list[float]]:
    return [_c(z) for z in np.asarray(v, complex)]


def _cmat(m) -> list[list[list[float]]]:
    return [_cvec(row) for row in np.asarray(m, complex)]


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


def _probe_dict(probe: levi.LeviProbe) -> dict:
    return {
        "point": _cvec(probe.point),
        "lambda_min": probe.lambda_min,
        "direction": _cvec(probe.direction),
        "grad_norm": probe.grad_norm,
    }


def _report_base(command: str, spec: DomainSpec, samples: int, seed: int) -> dict:
    return {
        "tool": "levislice",
        "version": __version__,
        "command": command,
        "domain": spec.name,
        "n": spec.n,
        "rho": spec.rho,
        "samples": samples,
        "seed": seed,
    }


def _attach_classification(report: dict, result: levi.LeviReport):
    report["verdict"] = result.verdict
    report["probe_count"] = len(result.lambdas)
    report["degenerate_count"] = result.degenerate_count
    report["worst"] = (_probe_dict(result.worst_probe)
                       if result.worst is not None else None)


def _certificate_dict(cert: sl.WitnessCertificate) -> dict:
    return {
        "M": _cvec(cert.M),
        "Z": _cvec(cert.Z),
        "lambda": cert.lam,
        "p0": _cvec(cert.p0),
        "t": cert.t,
        "slice": {"a": _cvec(cert.slice.a), "b": _cvec(cert.slice.b),
                  "c": _cvec(cert.slice.c)},
        "mu": _cvec(cert.mu),
        "zeta": _cvec(cert.zeta),
        "lambda_slice": cert.lambda_slice,
        "quadratic": {
            "center": _cvec(cert.quadratic.center),
            "lin": _cvec(cert.quadratic.lin),
            "holo2": _cmat(cert.quadratic.holo2),
            "mixed2": _cmat(cert.quadratic.mixed2),
            "eps": cert.quadratic.eps,
            "radius": cert.quadratic.radius,
            "direction": _cvec(cert.quadratic.direction),
        },
    }


def _verification_dict(rec: hm.VerificationRecord) -> dict:
    return {
        "checks": dict(rec.checks),
        "levi_value": rec.levi_value,
        "radius": rec.radius,
        "samples": rec.samples,
        "seed": rec.seed,
        "halvings": rec.halvings,
    }


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

def _classify_slice(domain: Domain, s: sl.Slice, window: float, count: int,
                    seed: int) -> levi.LeviReport:
    return levi.classify_slices(domain, s.a[None], s.frame[None], window, count,
                                [seed])[0]


def cmd_check(args) -> int:
    started = time.monotonic()
    spec = load_domain_spec(args.domain)
    domain = spec.domain()
    samples = args.samples if args.samples is not None else spec.samples
    seed = args.seed if args.seed is not None else spec.seed
    result = levi.classify(domain, samples, seed)
    report = _report_base("check", spec, samples, seed)
    _attach_classification(report, result)
    _emit(report, args.json, started)
    return VERDICT_EXIT[result.verdict]


def cmd_slice(args) -> int:
    started = time.monotonic()
    spec = load_domain_spec(args.domain)
    domain = spec.domain()
    a = parse_cvector(args.a) if args.a else np.zeros(spec.n, complex)
    b = parse_cvector(args.b)
    c = parse_cvector(args.c)
    if not (len(a) == len(b) == len(c) == spec.n):
        raise InputError(f"slice vectors must have length {spec.n}")
    try:
        s = sl.make_slice(a, b, c)
    except sl.SliceError as err:
        raise InputError(str(err)) from err
    samples = args.samples if args.samples is not None else spec.samples
    seed = args.seed if args.seed is not None else spec.seed
    result = _classify_slice(domain, s, args.window, samples, seed)
    report = _report_base("slice", spec, samples, seed)
    report["slice"] = {"a": _cvec(a), "b": _cvec(b), "c": _cvec(c)}
    _attach_classification(report, result)
    if args.grid:
        path = args.out or "slice_grid.csv"
        _write_grid(domain, s, args.grid, args.window, path)
        report["grid_csv"] = path
    _emit(report, args.json, started)
    return VERDICT_EXIT[result.verdict]


def _write_grid(domain: Domain, s: sl.Slice, k: int, window: float, path: str):
    """K x K grid of rho_h over the (Re w1, Re w2) window, imaginary parts 0."""
    axis = np.linspace(-window, window, k)
    w1, w2 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([w1.ravel(), w2.ravel()], axis=1).astype(complex)
    values = ex.eval_raw(domain.ast, s.a + pts @ s.frame.T).real
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re_w1,im_w1,re_w2,im_w2,rho_h\n")
        for (u, v), val in zip(pts, values):
            fh.write(f"{float(u.real)!r},0.0,{float(v.real)!r},0.0,{float(val)!r}\n")


def _sweep_slices(domain: Domain, slices: int, seed: int):
    """Random slices through boundary-adjacent points of the domain.

    Slice k passes through a point just inside the boundary point M_k, with
    random unit directions b, c seeded by (seed, k).  Returns the base points
    (S, n), the frames [b c] (S, n, 2) and the sampling seed of each slice.
    """
    boundary = levi.sample_boundary(domain, max(slices, 20), seed)
    _, grads = ex.eval_value_grad(domain.ast, boundary)
    bases, frames, seeds = [], [], []
    for k in range(slices):
        M = boundary[k % len(boundary)]
        g = grads[k % len(boundary)]
        gn = np.linalg.norm(g)
        if gn < domain.tol.grad_floor:
            continue
        nu = np.conj(g) / gn
        a = M - 0.05 * (1.0 + np.linalg.norm(M)) * nu
        rng = np.random.default_rng((seed, 7919, k))
        while True:
            b = rng.standard_normal(domain.n) + 1j * rng.standard_normal(domain.n)
            c = rng.standard_normal(domain.n) + 1j * rng.standard_normal(domain.n)
            b /= np.linalg.norm(b)
            c /= np.linalg.norm(c)
            try:
                s = sl.make_slice(a, b, c)
                break
            except sl.SliceError:
                continue
        bases.append(s.a)
        frames.append(s.frame)
        seeds.append(k)
    return np.array(bases), np.array(frames), seeds


def _forward_slice_sweep(domain: Domain, spec: DomainSpec, slices: int,
                         seed: int) -> dict:
    """Empirical forward direction: random slices through boundary-adjacent
    points of a pseudoconvex-at-samples domain must classify the same way.
    All slices are classified in one batch."""
    bases, frames, seeds = _sweep_slices(domain, slices, seed)
    if not seeds:
        raise PipelineError("forward-slices", "no usable slices")
    results = levi.classify_slices(domain, bases, frames, SLICE_WINDOW,
                                   SLICE_PROBES, seeds)
    lambdas = [r.worst_probe.lambda_min for r in results if r.worst is not None]
    if not lambdas:
        raise PipelineError("forward-slices",
                            f"none of {len(results)} slices returned a probe")
    all_ok = all(r.verdict == VERDICT_PSEUDOCONVEX for r in results)
    return {"count": len(results), "all_pseudoconvex": all_ok,
            "min_lambda": min(lambdas)}


def cmd_verify_theorem(args) -> int:
    started = time.monotonic()
    spec = load_domain_spec(args.domain)
    samples = args.samples if args.samples is not None else spec.samples
    seed = args.seed if args.seed is not None else spec.seed
    report = _report_base("verify-theorem", spec, samples, seed)
    stage = "load"
    try:
        domain = spec.domain()
        stage = "classify"
        result = levi.classify(domain, samples, seed)
        _attach_classification(report, result)
        if result.verdict == VERDICT_DEGENERATE:
            _emit(report, args.json, started)
            return EXIT_DEGENERATE
        if result.verdict == VERDICT_NONPSEUDOCONVEX:
            probe = result.worst_probe
            stage = "hormander-witness"
            quadratic = hm.build_quadratic_witness(domain, probe)
            record = hm.verify_quadratic_witness(
                domain, quadratic, samples=args.containment_samples, seed=seed)
            report["hormander"] = _verification_dict(record)
            if not record.all_passed:
                raise PipelineError(stage, f"witness checks failed: {record.checks}")
            stage = "witness-slice"
            cert = sl.witness_slice(domain, probe, quadratic)
            report["certificate"] = _certificate_dict(cert)
            stage = "slice-reclassification"
            reclass = _classify_slice(domain, cert.slice, SLICE_WINDOW,
                                      RECLASSIFY_SAMPLES, seed)
            report["witness_slice_reclassification"] = {
                "verdict": reclass.verdict,
                "worst_lambda": (reclass.worst_probe.lambda_min
                                 if reclass.worst is not None else None),
            }
            if reclass.verdict != VERDICT_NONPSEUDOCONVEX:
                raise PipelineError(stage,
                                    f"witness slice classified {reclass.verdict}")
        else:
            stage = "forward-slices"
            forward = _forward_slice_sweep(domain, spec, samples, seed)
            report["forward_slices"] = forward
            if not forward["all_pseudoconvex"]:
                raise PipelineError(stage, "a slice of a pseudoconvex-at-samples "
                                           "domain classified nonpseudoconvex")
        report["theorem_consistent"] = True
        _emit(report, args.json, started)
        return EXIT_OK
    except PipelineError:
        raise
    except (levi.DomainError, levi.BoundaryNotFoundError, levi.ProjectionError,
            sl.SliceError, hm.WitnessPreconditionError, hm.ContainmentError,
            ex.EvalError) as err:
        raise PipelineError(stage, str(err)) from err


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

def build_parser() -> argparse.ArgumentParser:
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
    p_verify.add_argument("--containment-samples", type=int, default=10000)
    p_verify.set_defaults(func=cmd_verify_theorem)

    p_cat = sub.add_parser("catalog", help="list built-in domains")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PIPELINE
    except (InputError, DomainFileError, ex.ExprSyntaxError, levi.DomainError,
            levi.BoundaryNotFoundError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def console_main():  # pragma: no cover
    sys.exit(main())
