"""Seeded inputs, request orders and output checks for the benchmark workloads.

Every domain file and every request ``--seed`` is derived from the workload
seed, so the same seed always gives the same requests.  Each generated domain
has a verdict known in closed form:

* weighted ellipsoid ``sum_j c_j |(Uz)_j|^2 - 1``: strongly pseudoconvex;
* saddle ``Re((Uz)_n) - sum_{j<n} c_j |(Uz)_j|^2``: nonpseudoconvex, since
  the Levi form is ``-diag(c_1..c_{n-1}, 0)`` in the rotated coordinates and
  its restriction to any complex tangent space has a negative direction.

``U`` is a Haar-random unitary and the ``c_j`` are log-uniform on
``COEFF_RANGE``.  The range is not narrowed to dodge the absolute-threshold
defects of the classifier: a request that hits one counts as failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COEFF_RANGE = (0.25, 4.0)

PSEUDOCONVEX = "pseudoconvex"
NONPSEUDOCONVEX = "nonpseudoconvex"
CLI_VERDICT = {PSEUDOCONVEX: "pseudoconvex-at-samples",
               NONPSEUDOCONVEX: NONPSEUDOCONVEX}
CHECK_EXIT = {PSEUDOCONVEX: 0, NONPSEUDOCONVEX: 3}

# Pass composition.  Request cost grows steeply with n, so the latency
# distribution is a set of separated cost groups; the mixes below put the
# median and the tail percentile (ten samples beyond) inside a group rather
# than at the gap between two, where one request more or less would move them.
# check-generic: generated files per (n, kind); sorted by cost, n = 3 holds
# requests 17..40 of 60 (median) and n = 4 holds 41..54 (tail, 50th).
CHECK_FILES_PER_KIND = {2: 8, 3: 12, 4: 7, 5: 3}
CHECK_SAMPLES = 500
# sweep-pseudoconvex and witness-nonpseudoconvex: each catalog domain gets
# this many request seeds; each generated file gets one request, and a group
# of files covers the coefficient range evenly (see coefficient_table).
# sweep-pseudoconvex: sorted by cost, the catalog holds requests 1..27 of 43
# (median, 22nd) and the n = 2 ellipsoids hold 28..41 (tail, 33rd), so the
# tail is the middle of fourteen files rather than one file's cost.
SWEEP_SAMPLES = 25
SWEEP_SEEDS_PER_DOMAIN = 9
SWEEP_FILES_PER_N = {2: 14, 3: 2}
WITNESS_CONTAINMENT = 100000
WITNESS_SEEDS_PER_DOMAIN = 20
WITNESS_FILES_PER_N = {2: 20, 3: 20}
LAMBDA_SLICE_RTOL = 1e-9

WORKLOADS = {
    "check-generic": (
        "dense restricted Levi matrices of rotated ellipsoids and saddles, "
        "n=2..5, B=500: linalg eigensolver and the per-probe classify loop"),
    "sweep-pseudoconvex": (
        "verify-theorem on pseudoconvex domains: the forward slice sweep, "
        "many small classify batches on 2-D slices"),
    "witness-nonpseudoconvex": (
        "verify-theorem on nonpseudoconvex domains: quadratic witness with "
        "1e5 containment samples, witness slice and slice reclassification"),
}


@dataclass(frozen=True)
class Request:
    label: str              # domain name, unique per generated file
    group: str              # requests of similar cost, e.g. "ellipsoid4"
    argv: tuple[str, ...]
    expected: str           # PSEUDOCONVEX or NONPSEUDOCONVEX

    @property
    def command(self) -> str:
        return self.argv[0]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the phases of R removed."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def coefficient_table(rng: np.random.Generator, files: int, count: int) -> np.ndarray:
    """`files` rows of `count` coefficients, each log-uniform on COEFF_RANGE.

    Latin-hypercube draws: for every coefficient slot the files take one value
    from each of `files` equal strata of the log-range, in random order.  Each
    value is still log-uniform on the whole range, but a group of files covers
    the range evenly, which keeps the group's total cost steady across seeds.
    """
    lo, hi = (math.log(v) for v in COEFF_RANGE)
    strata = np.stack([rng.permutation(files) for _ in range(count)], axis=1)
    u = (strata + rng.random((files, count))) / files
    return np.exp(lo + u * (hi - lo))


def _const(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"({float(z.real)!r}{sign}{float(abs(z.imag))!r}*i)"


def _rotated_coords(u: np.ndarray) -> list[str]:
    """Expressions for (Uz)_j, j = 1..n."""
    n = u.shape[0]
    return ["+".join(f"{_const(u[j, k])}*z{k + 1}" for k in range(n))
            for j in range(n)]


def domain_text(kind: str, n: int, rng: np.random.Generator, name: str,
                coeffs=None) -> str:
    """Domain-file text for a seeded ellipsoid or saddle in C^n.

    `coeffs` gives the c_j (n of them for an ellipsoid, n - 1 for a saddle);
    by default they are drawn from COEFF_RANGE.
    """
    if coeffs is None:
        coeffs = coefficient_table(rng, 1, n if kind == "ellipsoid" else n - 1)[0]
    c = [float(v) for v in coeffs]
    w = _rotated_coords(random_unitary(rng, n))
    if kind == "ellipsoid":
        rho = "+".join(f"{c[j]!r}*abs2({w[j]})" for j in range(n)) + "-1"
        # the ellipsoid lies in the ball of radius 1/sqrt(min c), whatever U is
        half = 1.25 / math.sqrt(min(c))
        expected = PSEUDOCONVEX
    elif kind == "saddle":
        rho = f"re({w[n - 1]})" + "".join(f"-{c[j]!r}*abs2({w[j]})"
                                          for j in range(n - 1))
        # the boundary Re w_n = sum c_j |w_j|^2 crosses the box near the origin
        half = 1.0 / math.sqrt(max(1.0, max(c)))
        expected = NONPSEUDOCONVEX
    else:
        raise ValueError(f"unknown domain kind {kind!r}")
    box = ",".join([f"{-half!r},{half!r}"] * n)
    return (f"name = {name}\nn = {n}\nrho = {rho}\nbox = {box}\n"
            f"expected = {expected}\n")


def _write_group(out_dir: Path, kind: str, n: int, files: int,
                 rng: np.random.Generator) -> list[str]:
    """Write `files` seeded domains of one kind and dimension; return their paths."""
    coeffs = coefficient_table(rng, files, n if kind == "ellipsoid" else n - 1)
    paths = []
    for index in range(files):
        name = f"rot-{kind}{n}-{index}"
        path = out_dir / f"{name}.dom"
        path.write_text(domain_text(kind, n, rng, name, coeffs[index]),
                        encoding="utf-8")
        paths.append(str(path))
    return paths


def _request_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def build_requests(workload: str, seed: int, out_dir: Path) -> list[Request]:
    """Write the workload's domain files under out_dir and return one pass of
    its requests, each cost group spread evenly over the pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    requests = []
    if workload == "check-generic":
        for n, files in CHECK_FILES_PER_KIND.items():
            groups = {kind: _write_group(out_dir, kind, n, files, rng)
                      for kind in ("ellipsoid", "saddle")}
            for index in range(files):
                for kind, expected in (("ellipsoid", PSEUDOCONVEX),
                                       ("saddle", NONPSEUDOCONVEX)):
                    requests.append(Request(
                        f"rot-{kind}{n}-{index}", f"rot-{kind}{n}",
                        ("check", groups[kind][index], "--samples", str(CHECK_SAMPLES),
                         "--seed", _request_seed(rng), "--json"),
                        expected))
        return interleave(requests)

    if workload == "sweep-pseudoconvex":
        kind, catalog = "ellipsoid", ("ball", "polyball", "ball3")
        extra = ("--samples", str(SWEEP_SAMPLES))
        seeds, files = SWEEP_SEEDS_PER_DOMAIN, SWEEP_FILES_PER_N
        expected = PSEUDOCONVEX
    else:
        kind, catalog = "saddle", ("saddle2", "shell", "saddle3")
        extra = ("--containment-samples", str(WITNESS_CONTAINMENT))
        seeds, files = WITNESS_SEEDS_PER_DOMAIN, WITNESS_FILES_PER_N
        expected = NONPSEUDOCONVEX
    domains = [(name, name, name) for name in catalog]
    for n in (2, 3):
        domains += [(f"rot-{kind}{n}-{i}", f"rot-{kind}{n}", path)
                    for i, path in enumerate(_write_group(out_dir, kind, n, files[n], rng))]
    for label, group, domain in domains:
        for _ in range(seeds if label in catalog else 1):
            requests.append(Request(
                label, group,
                ("verify-theorem", domain, *extra, "--seed", _request_seed(rng),
                 "--json"),
                expected))
    return interleave(requests)


def interleave(requests: list[Request]) -> list[Request]:
    """Spread every group evenly over the pass, so that a slow spell of the
    machine does not fall on one cost group alone."""
    position: dict[str, int] = {}
    size: dict[str, int] = {}
    for r in requests:
        size[r.group] = size.get(r.group, 0) + 1
    keyed = []
    for order, r in enumerate(requests):
        i = position.get(r.group, 0)
        position[r.group] = i + 1
        keyed.append(((i + 0.5) / size[r.group], order, r))
    return [r for _, _, r in sorted(keyed, key=lambda t: t[:2])]


def check_output(request: Request, code: int, stdout: str) -> str | None:
    """Return why a request's output is wrong, or None when it is right."""
    if request.command == "check":
        want_code = CHECK_EXIT[request.expected]
    else:
        want_code = 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as err:
        return f"unparseable JSON: {err}"
    if report.get("verdict") != CLI_VERDICT[request.expected]:
        return f"verdict {report.get('verdict')!r}, expected {CLI_VERDICT[request.expected]!r}"
    if request.command == "check":
        return None
    if report.get("theorem_consistent") is not True:
        return "theorem_consistent is not true"
    if request.expected == PSEUDOCONVEX:
        if report.get("forward_slices", {}).get("all_pseudoconvex") is not True:
            return "forward_slices.all_pseudoconvex is not true"
        return None
    checks = report.get("hormander", {}).get("checks", {})
    if not checks or not all(v is True for v in checks.values()):
        return f"hormander checks not all true: {checks}"
    cert = report.get("certificate", {})
    lam, lam_slice = cert.get("lambda"), cert.get("lambda_slice")
    if not (isinstance(lam, float) and isinstance(lam_slice, float)):
        return "certificate lacks lambda or lambda_slice"
    if abs(lam_slice - lam) > LAMBDA_SLICE_RTOL * (1.0 + abs(lam)):
        return f"lambda_slice {lam_slice!r} differs from lambda {lam!r}"
    reclass = report.get("witness_slice_reclassification", {}).get("verdict")
    if reclass != NONPSEUDOCONVEX:
        return f"witness slice reclassified as {reclass!r}"
    return None


def without_timing(stdout: str) -> str:
    """The JSON report re-serialised without its timing block."""
    report = json.loads(stdout)
    report.pop("timing", None)
    return json.dumps(report, indent=2)
