"""Byte-for-byte regression of whole CLI reports.

Each case's JSON report, with the timing block removed, must equal the file
under tests/data/golden/.  The files pin the last bits of floating-point
output, so they hold for one numpy and BLAS build (written with numpy
2.4.6, OpenBLAS, one thread, x86-64).  To regenerate them after an
intended change of output, or on another build from a commit known to be
right, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from levislice import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

CASES = {
    "check_rot_saddle4": ("check", str(DATA / "rot_saddle4.dom"), "--samples", "200"),
    "check_rot_ellipsoid3": ("check", str(DATA / "rot_ellipsoid3.dom"),
                             "--samples", "200"),
    "verify_ball": ("verify-theorem", "ball", "--samples", "25"),
    # fewer than 20 samples: the sweep's base points are the 12 probes
    "verify_ball_samples12": ("verify-theorem", "ball", "--samples", "12"),
    "verify_saddle3": ("verify-theorem", "saddle3", "--containment-samples", "2000"),
    # the one case whose quadratic witness has holo2 != 0
    "verify_holo_saddle3": ("verify-theorem", str(DATA / "holo_saddle3.dom"),
                            "--containment-samples", "20000", "--seed", "3"),
}


def report_text(argv) -> str:
    """The JSON report of one CLI run without its timing block."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([*argv, "--json"])
    report = json.loads(out.getvalue())
    del report["timing"]
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert report_text(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.json").write_text(
            report_text(argv), encoding="utf-8")
        print(f"wrote {case}", file=sys.stderr)
