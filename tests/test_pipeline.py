"""The forward sweep: its slices, built as whole arrays, against the
slice-by-slice construction, its base points inside the domain, its seeded
streams and its reuse of the classification's points."""

from pathlib import Path

import numpy as np
import pytest

from levislice import expr as E
from levislice import levi
from levislice import linalg as la
from levislice import pipeline
from levislice.catalog import CATALOG, load_domain_spec
from oracles import sweep_slices_one_by_one
from rotated import rotated_domain
from test_levi import _eval_sizes

DATA = Path(__file__).parent / "data"


def assert_same_slices(got, want):
    assert len(got) == len(want) == 2
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [1, 8, 29])
def test_sweep_slices_equal_the_one_by_one_construction(n, seed):
    dom = rotated_domain("ellipsoid", n, seed=seed)
    points = levi.classify(dom, 15, seed=seed).points
    # more slices than points, so the base points cycle
    slices = len(points) + 4
    assert_same_slices(pipeline.sweep_slices(dom, points, slices, seed),
                       sweep_slices_one_by_one(dom, points, slices, seed))


def test_sweep_slices_draw_a_dependent_pair_again(monkeypatch):
    # with this floor, any pair with |<b, c>|^2 >= |b|^2 |c|^2 / 2 counts as
    # dependent, so about half of the first draws in C^2 are drawn again
    dom = CATALOG["ball"].domain()
    points = levi.classify(dom, 20, seed=3).points
    first = pipeline.sweep_slices(dom, points, 20, seed=3)
    monkeypatch.setattr(la, "GRAM_DET_FLOOR", 0.5)
    redrawn = pipeline.sweep_slices(dom, points, 20, seed=3)
    assert_same_slices(redrawn, sweep_slices_one_by_one(dom, points, 20, seed=3))
    b, c = redrawn[1][:, :, 0], redrawn[1][:, :, 1]
    assert not la.dependent_rows(b, c).any()
    changed = np.any(redrawn[1] != first[1], axis=(1, 2))
    assert 0 < changed.sum() < 20
    assert la.dependent_rows(first[1][changed, :, 0], first[1][changed, :, 1]).all()


@pytest.mark.parametrize("scale", [100, 400])
def test_sweep_base_points_lie_inside_the_domain(scale):
    # a fixed first step of 0.05 (1 + |M|) crosses the thin z1 direction
    dom = levi.make_domain(f"{scale}*abs2(z1)+abs2(z2)-1",
                           box=levi.square_box(2, 1.5))
    points = levi.classify(dom, 25, seed=3).points
    bases, _ = pipeline.sweep_slices(dom, points, 25, seed=3)
    assert np.all(E.eval_raw(dom.ast, bases).real < -levi.BOUNDARY_EPS)


def test_a_sweep_request_builds_a_fixed_number_of_generators(monkeypatch):
    seeds = []
    default_rng = np.random.default_rng

    def counted(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    dom = CATALOG["ball"].domain()
    monkeypatch.setattr(np.random, "default_rng", counted)
    built = []
    for samples in (5, 40):
        seeds.clear()
        run = pipeline.verify_theorem(dom, samples, seed=6)
        assert run.forward is not None and run.forward.count == samples
        built.append(list(seeds))
    # classify, the frames, the slices' realness check and their box starts
    assert built[0] == built[1]
    assert len(built[0]) == 4
    # the sweep's two streams differ from each other and from classify's
    assert len({repr(s) for s in built[0] if s != E.REALNESS_SEED}) == 3


def test_verify_theorem_projects_the_ambient_boundary_once(monkeypatch):
    framed = []
    newton = levi._newton

    def counted(ast, w0, a=None, frame=None):
        framed.append(frame is not None)
        return newton(ast, w0, a, frame)

    monkeypatch.setattr(levi, "_newton", counted)
    run = pipeline.verify_theorem(CATALOG["ball"].domain(), samples=25, seed=4)
    assert run.forward is not None and run.forward.count == 25
    assert framed == [False, True]


@pytest.mark.parametrize("name", ["saddle2", "saddle3", "holo_saddle3.dom"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_witness_slice_newton_takes_few_iterations(monkeypatch, name, seed):
    # with b = M - p0 over a w-box of half-width 2, the slice Newton took
    # 11 to 50 iterations here: w2 spanned ten times the normal's scale
    dom = load_domain_spec(str(DATA / name) if name.endswith(".dom") else name).domain()
    sizes = _eval_sizes(monkeypatch)
    iterations = []
    classify_slice = pipeline.classify_slice

    def counted(*args):
        before = len(sizes)
        report = classify_slice(*args)
        iterations.append(len(sizes) - before)
        return report

    monkeypatch.setattr(pipeline, "classify_slice", counted)
    run = pipeline.verify_theorem(dom, 200, seed)
    assert run.reclassification.verdict == levi.VERDICT_NONPSEUDOCONVEX
    assert len(iterations) == 1 and 0 < iterations[0] <= 10


def test_sweep_needs_a_slice_and_a_point():
    dom = CATALOG["ball"].domain()
    points = levi.classify(dom, 5, seed=1).points
    with pytest.raises(ValueError):
        pipeline.sweep_slices(dom, points, 0, seed=1)
    with pytest.raises(ValueError):
        pipeline.sweep_slices(dom, points[:0], 3, seed=1)
