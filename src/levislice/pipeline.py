"""The theorem pipeline: both directions of the slice theorem, at samples.

A domain that classifies nonpseudoconvex at its samples gets the witness
chain at its worst probe: the quadratic witness and its five checks, the
two-dimensional witness slice, and the reclassification of that slice,
which must come out nonpseudoconvex.  The slice is reclassified over the
w-box of half-width SLICE_WINDOW |M - p0|: its frame is orthonormal, so
the box is the same neighbourhood of p0 along the normal and the tangent.
A domain that classifies pseudoconvex-at-samples gets the forward sweep:
random slices through points just inside its boundary, all of which must
classify pseudoconvex.  The sweep draws its frames from one stream and the
box starts of all its slices from another, both derived from the request
seed.

Errors of loading and classifying the domain propagate unchanged; a failure
in a later stage is a PipelineError that names the stage.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import hormander as hm
from . import levi
from . import linalg as la
from . import slicing as sl
from .levi import (VERDICT_DEGENERATE, VERDICT_NONPSEUDOCONVEX,
                   VERDICT_PSEUDOCONVEX, Domain, LeviReport)

SLICE_WINDOW = 2.0          # half-width of the w-plane sampling box, in
                            # units of |M - p0| on a witness slice
SLICE_PROBES = 50           # boundary probes per slice in the forward sweep
RECLASSIFY_SAMPLES = 200    # boundary probes on a witness slice


class PipelineError(ex.Error):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    """Report a library failure inside the block as a failure of the stage."""
    try:
        yield
    except ex.Error as err:
        raise PipelineError(name, str(err)) from err


def classify_slice(domain: Domain, s: sl.Slice, window: float, count: int,
                   seed: int) -> LeviReport:
    """Classify the slice z = a + b w1 + c w2 over the w-box [-window, window]^4."""
    return levi.classify_slices(domain, s.a[None], s.frame[None], window, count, seed)[0]


def sweep_slices(domain: Domain, points, slices: int, seed: int):
    """Random slices through points just inside the boundary of the domain.

    Slice k passes through the point that `slicing.inward_step` finds below
    M_k = points[k % len(points)], with random unit directions b, c.  All
    frames come from one stream seeded by (seed, 7919): one draw of
    (slices, 4, n) normals, Re b, Im b, Re c, Im c per slice, after which
    each dependent pair is drawn again from the same stream, in slice order.
    The points are a classification's probes, so their gradients clear the
    floor.  Returns the base points (S, n) and the frames [b c] (S, n, 2).
    """
    if slices < 1 or not len(points):
        raise ValueError("need at least one slice and one base point")
    index = np.arange(slices) % len(points)
    _, grads = ex.eval_value_grad(domain.ast, points)
    a, _ = sl.inward_step(domain, points[index], grads[index])
    rng = np.random.default_rng((seed, 7919))
    draws = rng.standard_normal((slices, 4, domain.n))
    while True:
        b = draws[:, 0] + 1j * draws[:, 1]
        c = draws[:, 2] + 1j * draws[:, 3]
        b *= (1.0 / la.row_norms(b))[:, None]
        c *= (1.0 / la.row_norms(c))[:, None]
        redraw = np.flatnonzero(la.dependent_rows(b, c))
        if not redraw.size:
            return a, np.stack([b, c], axis=2)
        draws[redraw] = rng.standard_normal((redraw.size, 4, domain.n))


@dataclass(frozen=True)
class ForwardSweep:
    count: int               # slices classified
    all_pseudoconvex: bool
    min_lambda: float        # smallest worst-probe lambda over the slices


def forward_slice_sweep(domain: Domain, points, slices: int,
                        seed: int) -> ForwardSweep:
    """Empirical forward direction: random slices through boundary-adjacent
    points of a pseudoconvex-at-samples domain must classify the same way.
    The slices pass near the given boundary points, the probes of the
    domain's classification, and are classified in one batch.  Raises
    levi.DomainError when no slice returns a probe."""
    bases, frames = sweep_slices(domain, points, slices, seed)
    # the box starts of all slices: one stream, apart from the frames' stream
    # and from the seed of the domain's classification
    results = levi.classify_slices(domain, bases, frames, SLICE_WINDOW,
                                   SLICE_PROBES, (seed, 7920))
    lambdas = [float(r.lambdas[r.worst]) for r in results if r.worst is not None]
    if not lambdas:
        raise levi.DomainError(f"none of {len(results)} slices returned a probe")
    return ForwardSweep(count=len(results),
                        all_pseudoconvex=all(r.verdict == VERDICT_PSEUDOCONVEX
                                             for r in results),
                        min_lambda=min(lambdas))


@dataclass(frozen=True)
class TheoremRun:
    """One run of the pipeline.  A nonpseudoconvex domain carries the witness
    chain (record, certificate, reclassification), a pseudoconvex-at-samples
    one the forward sweep, and a degenerate one only its classification."""
    classification: LeviReport
    record: hm.VerificationRecord | None = None
    certificate: sl.WitnessCertificate | None = None
    reclassification: LeviReport | None = None
    forward: ForwardSweep | None = None


def verify_theorem(domain: Domain, samples: int, seed: int,
                   containment_samples: int = hm.CONTAINMENT_SAMPLES) -> TheoremRun:
    """Classify the domain at `samples` boundary points, then check the
    direction of the theorem that its verdict calls for.

    Raises PipelineError when a stage after the classification fails: a
    witness check fails, the witness slice does not reclassify
    nonpseudoconvex, or a forward slice classifies otherwise than
    pseudoconvex.
    """
    classification = levi.classify(domain, samples, seed)
    if classification.verdict == VERDICT_DEGENERATE:
        return TheoremRun(classification)
    if classification.verdict == VERDICT_PSEUDOCONVEX:
        with _stage("forward-slices"):
            forward = forward_slice_sweep(domain, classification.points,
                                          samples, seed)
        if not forward.all_pseudoconvex:
            raise PipelineError("forward-slices", "a slice of a pseudoconvex-"
                                "at-samples domain classified nonpseudoconvex")
        return TheoremRun(classification, forward=forward)
    probe = classification.worst_probe
    with _stage("hormander-witness"):
        quadratic = hm.build_quadratic_witness(domain, probe)
        record = hm.verify_quadratic_witness(domain, quadratic,
                                             samples=containment_samples, seed=seed)
    if not record.all_passed:
        raise PipelineError("hormander-witness",
                            f"witness checks failed: {record.checks}")
    with _stage("witness-slice"):
        cert = sl.witness_slice(domain, probe, quadratic)
    with _stage("slice-reclassification"):
        reclass = classify_slice(domain, cert.slice, SLICE_WINDOW * cert.mu[0].real,
                                 RECLASSIFY_SAMPLES, seed)
    if reclass.verdict != VERDICT_NONPSEUDOCONVEX:
        raise PipelineError("slice-reclassification",
                            f"witness slice classified {reclass.verdict}")
    return TheoremRun(classification, record, cert, reclass)
