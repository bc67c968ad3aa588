"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible with `pytest -s` or in captured output on failure).
"""

import json

import numpy as np
import pytest

from levislice import cli
from levislice import expr as E
from levislice import hormander as hm
from levislice import levi
from levislice import linalg as la
from levislice import pipeline
from levislice import slicing as sl
from levislice.catalog import CATALOG
from fd_oracle import fd_wirtinger_jet
from oracles import compose_with_affine, levi_form_at, phi

FIVE_EXPRESSIONS = [CATALOG[k].rho
                    for k in ("ball", "polyball", "saddle2", "saddle3", "shell")]
FIVE_DOMAINS = ("ball", "polyball", "saddle2", "saddle3", "shell")


def report(number: int, label: str, passed: bool):
    print(f"criterion {number} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({label}) failed"


def test_criterion_1_ad_matches_finite_differences():
    rng = np.random.default_rng(101)
    worst = 0.0
    for text in FIVE_EXPRESSIONS:
        ast = E.parse(text)
        pts = 0.7 * (rng.standard_normal((100, ast.n))
                     + 1j * rng.standard_normal((100, ast.n)))
        for point in pts:
            jet = E.eval_jet(ast, point)
            val, grad, mixed, holo = fd_wirtinger_jet(ast, point)
            scale = 1.0 + max(abs(val), np.max(np.abs(grad)),
                              np.max(np.abs(mixed)), np.max(np.abs(holo)))
            err = max(abs(jet.val - val),
                      np.max(np.abs(jet.dz - grad)),
                      np.max(np.abs(jet.dzzb - mixed)),
                      np.max(np.abs(jet.dzz - holo))) / scale
            worst = max(worst, err)
    report(1, f"AD vs finite differences, worst rel err {worst:.2e}",
           worst <= 1e-6)


def test_criterion_2_model_domain_levi_values():
    ball = CATALOG["ball"].domain()
    pts = levi.sample_boundary(ball, 200, seed=7)
    lams = [levi.restricted_levi_min(ball, p).lambda_min for p in pts]
    ball_ok = max(abs(l - 1.0) for l in lams) <= 1e-8

    probe = levi.restricted_levi_min(CATALOG["saddle2"].domain(), [0, 0])
    saddle_ok = (abs(probe.lambda_min + 1.0) <= 1e-8
                 and abs(abs(probe.direction[0]) - 1.0) <= 1e-8
                 and abs(probe.direction[1]) <= 1e-8)
    report(2, "model-domain Levi values (ball, saddle2)", ball_ok and saddle_ok)


def test_criterion_3_equality_chain_on_witness_certificates():
    ok = True
    for name in ("saddle2", "saddle3"):
        dom = CATALOG[name].domain()
        for probe in levi.classify(dom, 50, seed=11).probes:
            if probe.lambda_min >= -levi.LEVI_EPS:
                continue
            cert = sl.witness_slice(dom, probe)
            transported = levi_form_at(dom, cert.M, cert.Z)
            ok &= (abs(cert.lambda_slice - transported)
                   <= 1e-9 * (1 + abs(transported)))
            grad = E.eval_jet(dom.ast, cert.M, holo=False).dz
            grad_h = levi._pulled_back_grad(grad[None], cert.slice.frame[None])[0]
            ok &= abs(grad_h[1]) <= 1e-10
    report(3, "witness-slice equality chain (saddle2, saddle3)", ok)


def test_criterion_4_two_path_pullback():
    rng = np.random.default_rng(404)
    names = list(FIVE_DOMAINS)
    ok = True
    for k in range(100):
        dom = CATALOG[names[k % len(names)]].domain()
        n = dom.n
        while True:
            a, b, c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                       for _ in range(3))
            try:
                s = sl.make_slice(a, b, c)
                break
            except sl.SliceError:
                continue
        w = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        # the library's route: ambient jet, gradient pulled back, closed-form
        # slice minimum along frame Z_w
        jet1 = E.eval_jet(dom.ast, phi(s, w), holo=False)
        frame = s.frame[None]
        grad1 = levi._pulled_back_grad(jet1.dz[None], frame)
        ok1, lam1, Z1, _ = levi._slice_levi_min(grad1, jet1.dzzb[None], frame)
        # the symbolic route: the jet of rho(a + b w1 + c w2) itself
        jet2 = E.eval_jet(compose_with_affine(dom.ast, a, b, c), w, holo=False)
        ok2, lam2, Z2, _ = levi._levi_min(jet2.dz[None], jet2.dzzb[None])
        scale = 1.0 + max(abs(jet2.val), np.max(np.abs(jet2.dz)),
                          np.max(np.abs(jet2.dzzb)))
        ok &= bool(ok1[0] and ok2[0])
        ok &= abs(jet1.val - jet2.val) <= 1e-9 * scale
        ok &= np.max(np.abs(grad1[0] - jet2.dz)) <= 1e-9 * scale
        levi2 = np.einsum("jk,j,k->", jet2.dzzb, Z1[0], np.conj(Z1[0])).real
        ok &= abs(lam1[0] - levi2) <= 1e-9 * scale
        ok &= abs(lam1[0] - lam2[0]) <= 1e-9 * scale
        ok &= np.max(np.abs(Z1[0] - Z2[0])) <= 1e-9 * scale
    report(4, "two-path pullback, 100 triples", ok)


def test_criterion_5_forward_direction_slices():
    min_lambda = np.inf
    for name in ("ball", "polyball"):
        spec = CATALOG[name]
        domain = spec.domain()
        points = levi.classify(domain, 100, seed=505).points
        sweep = pipeline.forward_slice_sweep(domain, points, slices=100, seed=505)
        assert sweep.count == 100
        min_lambda = min(min_lambda, sweep.min_lambda)
    report(5, f"forward slices of ball/polyball, min lambda {min_lambda:.3e}",
           min_lambda >= -1e-7)


def test_criterion_6_verify_theorem_pipeline(capsys):
    ok = True
    for name in FIVE_DOMAINS:
        code = cli.main(["verify-theorem", name, "--samples", "60", "--json"])
        payload = json.loads(capsys.readouterr().out)
        ok &= code == cli.EXIT_OK
        if name in ("saddle2", "saddle3", "shell"):
            reclass = payload["witness_slice_reclassification"]
            ok &= reclass["verdict"] == "nonpseudoconvex"
            ok &= reclass["worst_lambda"] <= -0.5
    with capsys.disabled():
        report(6, "verify-theorem pipeline on five catalog domains", ok)


def test_criterion_7_hormander_witness():
    ok = True
    for name in ("saddle2", "saddle3"):
        dom = CATALOG[name].domain()
        probe = levi.classify(dom, 60, seed=7).worst_probe
        q = hm.build_quadratic_witness(dom, probe)
        record = hm.verify_quadratic_witness(dom, q)
        ok &= record.all_passed
        # containment is proved: delta < eps and r0 inside the radius
        ok &= record.hessian_bound < q.eps
        ok &= record.exception_radius < record.radius
        ok &= record.radius >= 1e-4
        ok &= abs(record.levi_value - probe.lambda_min / 2) <= 1e-9
    report(7, "quadratic witness checks (saddle2, saddle3)", ok)


def test_criterion_8_eigensolver():
    rng = np.random.default_rng(808)
    worst_recon = 0.0
    worst_2x2 = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 9))
        x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = (x + x.conj().T) / 2
        w, v = la.hermitian_eig(a)
        worst_recon = max(worst_recon,
                          np.max(np.abs(a - v @ np.diag(w) @ v.conj().T)))
        if m == 2:
            tr = a[0, 0].real + a[1, 1].real
            det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
            disc = np.sqrt(tr * tr - 4 * det)
            worst_2x2 = max(worst_2x2, abs(w[0] - (tr - disc) / 2),
                            abs(w[1] - (tr + disc) / 2))
    report(8, f"eigensolver (recon {worst_recon:.1e}, 2x2 {worst_2x2:.1e})",
           worst_recon <= 1e-10 and worst_2x2 <= 1e-12)


def test_criterion_9_deterministic_reports(capsys):
    payloads = []
    for _ in range(2):
        code = cli.main(["verify-theorem", "saddle2", "--samples", "60",
                         "--seed", "7", "--json"])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        payload.pop("timing", None)
        payloads.append(json.dumps(payload, sort_keys=False))
    with capsys.disabled():
        report(9, "byte-identical reports for equal seeds",
               payloads[0] == payloads[1])
