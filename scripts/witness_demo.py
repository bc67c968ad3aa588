#!/usr/bin/env python3
"""Walk through the full witness construction on one nonpseudoconvex domain.

Runs the library pipeline (`levislice.pipeline.verify_theorem`) and prints
every part of its result: the worst boundary probe, the quadratic witness
and its checks, the two-dimensional witness slice, and the reclassification
of that slice.

Usage: python scripts/witness_demo.py [domain] [--samples N] [--seed S]
"""

import argparse

import numpy as np

from levislice import levi
from levislice import pipeline
from levislice.catalog import load_domain_spec


def fmt(v):
    return np.array2string(np.asarray(v), precision=6, suppress_small=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("domain", nargs="?", default="saddle2")
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    spec = load_domain_spec(args.domain)
    domain = spec.domain()
    print(f"domain {spec.name}: rho = {spec.rho}  (n = {spec.n})")

    run = pipeline.verify_theorem(domain, args.samples, args.seed)
    result = run.classification
    print(f"verdict at {args.samples} boundary samples: {result.verdict}")
    if result.verdict != levi.VERDICT_NONPSEUDOCONVEX:
        if run.forward is not None:
            print(f"forward sweep: {run.forward.count} slices, all pseudoconvex: "
                  f"{run.forward.all_pseudoconvex}")
        print("no negative Levi probe found; nothing to witness")
        return
    probe = result.worst_probe
    print(f"worst probe M = {fmt(probe.point)}")
    print(f"  lambda_min  = {probe.lambda_min:.6g}")
    print(f"  direction Z = {fmt(probe.direction)}")

    record = run.record
    print("quadratic witness verification:")
    for name, passed in record.checks.items():
        print(f"  {name:18s} {'ok' if passed else 'FAILED'}")
    print(f"  Levi value at Z = {record.levi_value:.6g} "
          f"(= lambda/2 = {probe.lambda_min / 2:.6g})")
    print(f"  containment {record.method} at radius {record.radius:.6g} "
          f"after {record.halvings} halvings")
    if record.method == "proven":
        print(f"  Hessian bound delta = {record.hessian_bound:.6g} "
              f"(< eps), exception radius r0 = {record.exception_radius:.6g}")
    else:
        print(f"  by {record.samples} random samples per radius")

    cert = run.certificate
    print("witness slice h(a, b, c):")
    print(f"  a = p0 = {fmt(cert.p0)}  (inward point, t = {cert.t:.6g})")
    print(f"  b = (M - p0)/|M - p0| = {fmt(cert.slice.b)}")
    print(f"  c = Z = {fmt(cert.slice.c)}")
    print(f"  M at w = mu = {fmt(cert.mu)}")
    print(f"  lambda on the slice at mu = {cert.lambda_slice:.6g}")

    reclass = run.reclassification
    window = pipeline.SLICE_WINDOW * cert.mu[0].real
    print(f"witness slice reclassified at {pipeline.RECLASSIFY_SAMPLES} samples "
          f"of the w-box [-{window:.6g}, {window:.6g}]^4: "
          f"{reclass.verdict} (worst lambda {reclass.worst_probe.lambda_min:.6g})")


if __name__ == "__main__":
    main()
