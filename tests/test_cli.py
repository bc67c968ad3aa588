import dataclasses
import importlib
import json
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import levislice
from levislice import catalog, cli
from levislice import expr as E
from levislice import hormander as hm
from levislice import levi
from levislice import pipeline
from levislice import slicing as sl
from levislice.catalog import CATALOG

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_lists_builtin_domains(capsys):
    code, payload = run_json(capsys, "catalog")
    assert code == cli.EXIT_OK
    names = [e["name"] for e in payload["entries"]]
    assert names == ["ball", "ball3", "polyball", "saddle2", "saddle3", "shell"]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_ball(capsys):
    code, payload = run_json(capsys, "check", "ball", "--samples", "60")
    assert code == cli.EXIT_OK
    assert payload["verdict"] == "pseudoconvex-at-samples"
    assert payload["worst"]["lambda_min"] == pytest.approx(1.0, abs=1e-8)


def test_check_saddle2(capsys):
    code, payload = run_json(capsys, "check", "saddle2", "--samples", "60")
    assert code == cli.EXIT_NONPSEUDOCONVEX
    assert payload["verdict"] == "nonpseudoconvex"
    assert payload["worst"]["lambda_min"] < 0


def test_check_domain_file(capsys, tmp_path):
    path = tmp_path / "unitball.dom"
    path.write_text("name = myball\nn = 2\nrho = abs2(z1)+abs2(z2)-1\n"
                    "box = -1.5,1.5,-1.5,1.5\nexpected = pseudoconvex\n"
                    "samples = 40\nseed = 3\n")
    code, payload = run_json(capsys, "check", str(path))
    assert code == cli.EXIT_OK
    assert payload["domain"] == "myball"
    assert payload["samples"] == 40 and payload["seed"] == 3


def test_domain_file_with_a_byte_order_mark(capsys, tmp_path):
    # some editors start a UTF-8 file with U+FEFF; it is not part of the key
    path = tmp_path / "bom.dom"
    path.write_text("n = 2\nrho = abs2(z1)+abs2(z2)-1\nbox = -1.5,1.5,-1.5,1.5\n",
                    encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert catalog.parse_domain_file(path).n == 2
    code, payload = run_json(capsys, "check", str(path), "--samples", "20")
    assert code == cli.EXIT_OK and payload["domain"] == "bom"


def test_check_ball_in_eighteen_variables(capsys, tmp_path):
    # the restricted Levi matrices are 17 x 17
    n = 18
    path = tmp_path / "ball18.dom"
    path.write_text(f"name = ball18\nn = {n}\n"
                    f"rho = {'+'.join(f'abs2(z{j})' for j in range(1, n + 1))}-1\n"
                    f"box = {','.join(['-1.5,1.5'] * n)}\n")
    code, payload = run_json(capsys, "check", str(path), "--samples", "20")
    assert code == cli.EXIT_OK
    assert payload["verdict"] == "pseudoconvex-at-samples"


def test_check_uses_declared_dimension(capsys):
    # rho = abs2(z1)-1 leaves z2 out; the domain is still the cylinder in C^2
    code, payload = run_json(capsys, "check", str(DATA / "cylinder.dom"))
    assert code == cli.EXIT_OK
    assert payload["n"] == 2
    assert payload["verdict"] == "pseudoconvex-at-samples"
    assert payload["worst"]["lambda_min"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("command", ["check", "verify-theorem"])
def test_dimension_one_is_an_input_error(capsys, command):
    # so are a rho that overflows on the box, a rho that is not real-valued
    # and a box that misses the boundary, under every command
    for name, message in [("disc.dom", "n >= 2"),
                          ("overflow.dom", "non-finite value"),
                          ("nonreal.dom", "not real-valued"),
                          ("no_boundary.dom", "reached the boundary")]:
        code, out, err = run(capsys, command, str(DATA / name))
        assert code == cli.EXIT_INPUT, name
        assert message in err and "stage" not in err, name
        assert out == ""


@pytest.mark.parametrize("command", ["check", "verify-theorem"])
def test_overflow_writes_no_warning(capsys, command):
    # steep.dom: before its norms were taken without overflow, Newton also
    # accepted 14 points where rho exceeds 1e165 as boundary points, and at
    # 2000 samples 2 points where 2|grad rho| itself overflows
    for args, message in [
            (["overflow.dom"], "non-finite value in evaluation"),
            (["steep.dom"], "only 1/50 samples reached the boundary; "
                            "the sampling box likely misses it"),
            (["steep.dom", "--samples", "2000", "--seed", "1"],
             "only 118/2000 samples reached the boundary; "
             "the sampling box likely misses it")]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, str(DATA / args[0]), *args[1:])
        assert code == cli.EXIT_INPUT
        assert err == f"error: {message}\n"
        assert out == ""


def test_long_sum_classifies_and_deep_nesting_is_an_input_error(capsys, tmp_path):
    # neither a sum of 900 terms nor 400 nested parentheses may exhaust the
    # Python stack: the first classifies, the second is refused by the parser
    deep = tmp_path / "deep.dom"
    deep.write_text(f"n = 2\nrho = {'(' * 400}abs2(z1){')' * 400}+abs2(z2)-1\n"
                    "box = -1.5,1.5,-1.5,1.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(capsys, "check", str(DATA / "long_sum.dom"))
        assert code == cli.EXIT_OK
        assert payload["verdict"] == "pseudoconvex-at-samples"
        code, out, err = run(capsys, "check", str(deep))
    assert code == cli.EXIT_INPUT and out == ""
    assert err.startswith("error: expression nested deeper than 200 levels")


def test_boundary_below_the_gradient_floor_is_degenerate(capsys):
    # |d rho| = 1e-9 |z| on the whole box: Newton accepts every sample, and
    # the Levi stage finds each below levi.GRAD_FLOOR
    code, payload = run_json(capsys, "check", str(DATA / "tiny_ball.dom"),
                             "--samples", "50", "--seed", "1")
    assert code == cli.EXIT_DEGENERATE
    assert payload["verdict"] == "degenerate"
    assert (payload["probe_count"], payload["degenerate_count"]) == (0, 50)


@pytest.mark.parametrize("rho, box, code", [
    ("1e160*(re(z2)-abs2(z1))", "-1,1,-1,1", cli.EXIT_NONPSEUDOCONVEX),
    ("1e160*(abs2(z1)+abs2(z2)-1)", "-1.5,1.5,-1.5,1.5", cli.EXIT_OK)])
@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_levi_stage_takes_gradient_norms_without_overflow(capsys, tmp_path, rho,
                                                         box, code, seed):
    # |d rho| is about 1e160, so its squares overflow: the saddle's rows were
    # taken as norm inf, got the basis e2..en and passed as pseudoconvex, and
    # the ball's grad_norm read Infinity after a RuntimeWarning
    path = tmp_path / "huge.dom"
    path.write_text(f"n = 2\nrho = {rho}\nbox = {box}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, payload = run_json(capsys, "check", str(path), "--samples", "25",
                                "--seed", seed)
    assert got == code
    assert 1e159 < payload["worst"]["grad_norm"] < 1e161


def test_huge_saddle_file_is_nonpseudoconvex(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(capsys, "check", str(DATA / "huge_saddle.dom"))
    assert code == cli.EXIT_NONPSEUDOCONVEX
    assert payload["worst"]["lambda_min"] < -1e159


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_verify_theorem_takes_witness_norms_without_overflow(capsys, seed):
    # the witness gradient norm, the inward step and the slice's length and
    # tangency squared |d rho| = 1e160 and overflowed: RuntimeWarnings, then
    # "b, c numerically dependent" (exit 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(capsys, "verify-theorem", str(DATA / "huge_saddle.dom"),
                                 "--samples", "25", "--seed", seed)
    assert code == cli.EXIT_OK
    assert all(payload["hormander"]["checks"].values())
    assert payload["witness_slice_reclassification"]["verdict"] == "nonpseudoconvex"


def test_constant_divisor_whose_disc_holds_zero_falls_back_to_sampling(
        capsys, monkeypatch):
    # 0.1 + 0.2 - 0.3 is a nonzero float, but its disc holds 0: every
    # radius's enclosure raises, without tracing the expression again, and
    # containment is sampled at the first radius
    traces = []
    trace = E._trace

    def counted(*args):
        traces.append(args)
        return trace(*args)
    monkeypatch.setattr(E, "_trace", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(capsys, "verify-theorem", str(DATA / "const_div_saddle.dom"),
                                 "--samples", "50", "--seed", "1")
    assert code == cli.EXIT_OK
    assert payload["hormander"]["method"] == "sampled"
    assert payload["hormander"]["halvings"] == 0
    assert [args[1:] for args in traces] == [(2,)]


def test_every_library_exception_derives_from_levislice_error():
    # so that the CLI and the pipeline's stages catch levislice.Error alone;
    # __main__ runs the CLI when imported and defines nothing
    names = [f"levislice.{info.name}" for info in pkgutil.iter_modules(levislice.__path__)
             if info.name != "__main__"]
    classes = [cls for name in names
               for cls in vars(importlib.import_module(name)).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__ == name]
    assert len(classes) >= 12
    assert [c for c in classes if not issubclass(c, levislice.Error)] == []


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.dom")
    assert code == cli.EXIT_INPUT
    assert "error" in err


def test_check_bad_expression(capsys, tmp_path):
    path = tmp_path / "bad.dom"
    path.write_text("name = bad\nn = 2\nrho = sin(z1)\nbox = -1,1,-1,1\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == cli.EXIT_INPUT


# ---------------------------------------------------------------------------
# slice
# ---------------------------------------------------------------------------

def test_slice_identity_of_ball(capsys):
    code, payload = run_json(capsys, "slice", "ball", "--b", "1:0,0:0",
                             "--c", "0:0,1:0", "--samples", "40")
    assert code == cli.EXIT_OK
    assert payload["verdict"] == "pseudoconvex-at-samples"


def test_slice_witness_of_saddle2(capsys):
    code, payload = run_json(capsys, "slice", "saddle2", "--a", "0:0,-0.1:0",
                             "--b", "0:0,0.1:0", "--c", "1:0,0:0",
                             "--samples", "60")
    assert code == cli.EXIT_NONPSEUDOCONVEX
    assert payload["verdict"] == "nonpseudoconvex"


def test_slice_dependent_directions(capsys):
    code, _, err = run(capsys, "slice", "ball", "--b", "1:0,0:0",
                       "--c", "2:0,0:0")
    assert code == cli.EXIT_INPUT


def test_slice_wrong_vector_length(capsys):
    code, _, err = run(capsys, "slice", "ball", "--b", "1:0", "--c", "0:0,1:0")
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize("scale, message", [
    # the squares of the entries overflowed or underflowed, and the
    # orthogonal pair read as dependent; now rho_h itself fails
    ("1e200", "error: non-finite value in evaluation\n"),
    ("1e-200", "error: only 0/200 samples reached the boundary; "
               "the sampling box likely misses it\n")])
def test_slice_frame_of_huge_or_tiny_scale_is_independent(capsys, scale, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "slice", "ball", "--b", f"{scale}:0,0:0",
                             "--c", f"0:0,{scale}:0")
    assert code == cli.EXIT_INPUT and out == ""
    assert err == message


def test_slice_zero_direction_is_dependent(capsys):
    code, out, err = run(capsys, "slice", "ball", "--b", "0:0,0:0", "--c", "0:0,1:0")
    assert code == cli.EXIT_INPUT and out == ""
    assert err == "error: b, c numerically dependent\n"


@pytest.mark.parametrize("flag, value", [
    ("--window", "inf"), ("--window", "1e308"), ("--a", "nan:0,0:0"),
    ("--a", "0:0,0:inf"), ("--b", "inf:0,0:0"), ("--b", "0:-inf,0:0"),
    ("--c", "0:0,nan:0"), ("--c", "0:0,-inf:0")])
def test_slice_nonfinite_input_is_an_input_error(capsys, flag, value):
    # --window 1e308 is finite, but the width 2*window of its box is not
    code, out, err = run(capsys, "slice", "ball", "--b", "1:0,0:0",
                         "--c", "0:0,1:0", flag, value)
    assert code == cli.EXIT_INPUT and out == ""
    if value == "inf":
        assert err == "error: --window must be positive and finite, got inf\n"
    elif value == "1e308":
        assert err == "error: --window must have a finite width 2*window, got 1e+308\n"
    else:
        assert err == f"error: {flag} must have finite entries, got {value}\n"


@pytest.mark.parametrize("window", ["0", "-1", "nan", "inf"])
def test_slice_window_must_be_positive_and_finite(capsys, window):
    code, out, err = run(capsys, "slice", "ball", "--b", "1:0,0:0",
                         "--c", "0:0,1:0", "--window", window)
    assert code == cli.EXIT_INPUT
    assert err == f"error: --window must be positive and finite, got {float(window)}\n"
    assert out == ""
    assert catalog._built_domain.cache_info().misses == 0  # checked before loading


def test_domain_file_box_of_infinite_width_is_an_input_error(capsys, tmp_path):
    # finite bounds whose difference overflows: refused before numpy warns
    path = tmp_path / "wide.dom"
    path.write_text("n = 2\nrho = abs2(z1)+abs2(z2)-1\nbox = -1e308,1e308,-1e308,1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", str(path))
    assert code == cli.EXIT_INPUT
    assert err == (f"error: {path}: box bounds must be finite with lo < hi "
                   "and a finite width hi - lo\n")
    assert out == ""


def test_slice_grid_csv(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code, payload = run_json(capsys, "slice", "ball", "--b", "1:0,0:0",
                             "--c", "0:0,1:0", "--grid", "11",
                             "--window", "1.0", "--out", str(out),
                             "--samples", "40")
    assert code == cli.EXIT_OK
    assert payload["grid_csv"] == str(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re_w1,im_w1,re_w2,im_w2,rho_h"
    assert len(lines) == 11 * 11 + 1
    # real-axis grid of |w1|^2 + |w2|^2 - 1
    for line in lines[1:]:
        u, _, v, _, val = map(float, line.split(","))
        assert val == pytest.approx(u * u + v * v - 1.0, abs=1e-12)


@pytest.mark.parametrize("k", ["0", "-3"])
def test_slice_grid_below_one_is_an_input_error(capsys, tmp_path, k):
    out = tmp_path / "grid.csv"
    code, stdout, err = run(capsys, "slice", "ball", "--b", "1:0,0:0",
                            "--c", "0:0,1:0", "--grid", k, "--out", str(out))
    assert code == cli.EXIT_INPUT
    assert err == f"error: --grid must be at least 1, got {k}\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 1.46 TiB", ""])
def test_out_of_memory_is_an_input_error(capsys, monkeypatch, message):
    # stands in for `check ball --samples 100000000000` without allocating
    def too_large(domain, count, seed):
        raise MemoryError(message) if message else MemoryError

    monkeypatch.setattr(levi, "classify", too_large)
    for command in ("check", "verify-theorem"):
        code, out, err = run(capsys, command, "ball", "--samples", "100000000000")
        assert code == cli.EXIT_INPUT
        assert err == f"error: out of memory: {message or 'allocation failed'}\n"
        assert out == ""


# ---------------------------------------------------------------------------
# verify-theorem
# ---------------------------------------------------------------------------

def test_verify_theorem_saddle2(capsys):
    code, payload = run_json(capsys, "verify-theorem", "saddle2",
                             "--samples", "60", "--containment-samples", "2000")
    assert code == cli.EXIT_OK
    assert payload["theorem_consistent"] is True
    assert payload["hormander"]["checks"] == {
        "q_zero_at_center": True, "gradient_nonzero": True,
        "direction_tangent": True, "negative_levi": True, "containment": True}
    reclass = payload["witness_slice_reclassification"]
    assert reclass["verdict"] == "nonpseudoconvex"
    assert reclass["worst_lambda"] <= -0.5
    cert = payload["certificate"]
    assert cert["lambda_slice"] == pytest.approx(cert["lambda"], rel=1e-9)


@pytest.mark.parametrize("name, samples, seed", [("narrow_saddle", "500", "5"),
                                                ("quartic_saddle", "500", "5"),
                                                ("bump", "2000", "3")])
def test_witness_slice_reclassifies_at_the_scale_of_the_inward_step(capsys, name,
                                                                    samples, seed):
    # each exited 5 at the slice reclassification when the slice had
    # b = M - p0 and was sampled over a w-box of half-width 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(capsys, "verify-theorem", str(DATA / f"{name}.dom"),
                                 "--samples", samples, "--seed", seed)
    assert code == cli.EXIT_OK
    assert payload["witness_slice_reclassification"]["verdict"] == "nonpseudoconvex"


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_witness_tangency_is_relative_to_the_gradient(capsys, seed):
    # scaled_saddle.dom: with |d rho| = 5e7 the rounding of the tangency sum
    # exceeded an absolute 1e-10 at seeds 1 and 3, so the direction_tangent
    # check failed (exit 5) on a correct witness
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(capsys, "verify-theorem", str(DATA / "scaled_saddle.dom"),
                                 "--samples", "50", "--seed", seed)
    assert code == cli.EXIT_OK
    assert all(payload["hormander"]["checks"].values())


@pytest.mark.parametrize("value", ["50", "0", "-1"])
def test_containment_samples_below_100_is_an_input_error(capsys, value):
    code, out, err = run(capsys, "verify-theorem", "saddle2",
                         "--containment-samples", value)
    assert code == cli.EXIT_INPUT
    assert err == f"error: --containment-samples must be at least 100, got {value}\n"
    assert out == ""


@pytest.mark.parametrize("key, value, message", [
    ("samples", "0", "samples must be at least 1, got 0"),
    ("seed", "-1", "seed must be non-negative, got -1")])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_samples_below_one_or_negative_seed_is_an_input_error(capsys, tmp_path, source,
                                                              key, value, message):
    if source == "flag":
        argv, expected = ["ball", f"--{key}", value], f"--{message}"
    else:
        path = tmp_path / "ball.dom"
        path.write_text("n = 2\nrho = abs2(z1)+abs2(z2)-1\nbox = -1.5,1.5,-1.5,1.5\n"
                        f"{key} = {value}\n")
        argv, expected = [str(path)], f"{path}: {message}"
    code, out, err = run(capsys, "check", *argv)
    assert code == cli.EXIT_INPUT
    assert err == f"error: {expected}\n"
    assert out == ""


def test_verify_theorem_ball_forward(capsys):
    code, payload = run_json(capsys, "verify-theorem", "ball", "--samples", "15")
    assert code == cli.EXIT_OK
    fwd = payload["forward_slices"]
    assert fwd["all_pseudoconvex"] is True
    assert fwd["count"] == 15
    assert fwd["min_lambda"] >= -1e-7


def test_verify_theorem_cylinder_forward(capsys):
    code, payload = run_json(capsys, "verify-theorem", str(DATA / "cylinder.dom"),
                             "--samples", "10")
    assert code == cli.EXIT_OK
    assert payload["forward_slices"]["all_pseudoconvex"] is True


def test_verify_theorem_stops_at_a_degenerate_classification(capsys, monkeypatch):
    monkeypatch.setattr(levi, "DEGENERATE_FRACTION", -1.0)
    code, payload = run_json(capsys, "verify-theorem", "ball", "--samples", "20")
    assert code == cli.EXIT_DEGENERATE
    assert payload["verdict"] == "degenerate"
    assert list(payload) == [
        "tool", "version", "command", "domain", "n", "rho", "samples", "seed",
        "verdict", "probe_count", "degenerate_count", "worst", "timing"]


@pytest.mark.parametrize("name", ["saddle2", "ball"])
def test_library_pipeline_returns_what_the_cli_prints(capsys, name):
    spec = CATALOG[name]
    result = pipeline.verify_theorem(spec.domain(), 40, spec.seed,
                                     containment_samples=500)
    code, payload = run_json(capsys, "verify-theorem", name, "--samples", "40",
                             "--containment-samples", "500")
    assert code == cli.EXIT_OK
    assert result.classification.verdict == payload["verdict"]
    worst = result.classification.worst_probe
    assert worst.lambda_min == payload["worst"]["lambda_min"]
    assert worst.point.tolist() == [complex(*z) for z in payload["worst"]["point"]]
    if name == "ball":
        assert result.record is result.certificate is result.reclassification is None
        assert dataclasses.asdict(result.forward) == payload["forward_slices"]
        return
    assert result.forward is None
    assert dataclasses.asdict(result.record) == payload["hormander"]
    cert = result.certificate
    assert cert.lam == payload["certificate"]["lambda"]
    assert cert.lambda_slice == payload["certificate"]["lambda_slice"]
    assert cert.slice.b.tolist() == [complex(*z) for z in
                                     payload["certificate"]["slice"]["b"]]
    reclass = payload["witness_slice_reclassification"]
    assert result.reclassification.verdict == reclass["verdict"]
    assert result.reclassification.worst_probe.lambda_min == reclass["worst_lambda"]


def test_forward_sweep_without_probes_is_a_pipeline_failure(capsys, monkeypatch):
    # every slice classifies degenerate, so no slice has a worst probe
    classify_slices = levi.classify_slices

    def all_degenerate(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(levi, "DEGENERATE_FRACTION", -1.0)
            return classify_slices(*args, **kwargs)

    monkeypatch.setattr(levi, "classify_slices", all_degenerate)
    code, out, err = run(capsys, "verify-theorem", "ball", "--samples", "8")
    assert code == cli.EXIT_PIPELINE
    assert err == "error: stage 'forward-slices': none of 8 slices returned a probe\n"
    assert out == ""


def test_verify_theorem_builds_the_quadratic_witness_once(capsys, monkeypatch):
    calls = []
    build = hm.build_quadratic_witness

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(hm, "build_quadratic_witness", counted)
    monkeypatch.setattr(sl, "build_quadratic_witness", counted)
    code, payload = run_json(capsys, "verify-theorem", "saddle2", "--samples", "40",
                             "--containment-samples", "500")
    assert code == cli.EXIT_OK
    assert len(calls) == 1
    assert list(payload) == [
        "tool", "version", "command", "domain", "n", "rho", "samples", "seed",
        "verdict", "probe_count", "degenerate_count", "worst", "hormander",
        "certificate", "witness_slice_reclassification", "theorem_consistent",
        "timing"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def strip_timing(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("timing", None)
    return payload


@pytest.mark.parametrize("argv", [
    ("check", "saddle2", "--samples", "50"),
    ("verify-theorem", "saddle2", "--samples", "50",
     "--containment-samples", "1000"),
])
def test_reports_byte_identical_for_same_seed(capsys, argv):
    _, p1 = run_json(capsys, *argv)
    _, p2 = run_json(capsys, *argv)
    assert json.dumps(strip_timing(p1)) == json.dumps(strip_timing(p2))


def test_reports_differ_across_seeds(capsys):
    _, p1 = run_json(capsys, "check", "saddle2", "--samples", "50", "--seed", "1")
    _, p2 = run_json(capsys, "check", "saddle2", "--samples", "50", "--seed", "2")
    assert strip_timing(p1) != strip_timing(p2)
