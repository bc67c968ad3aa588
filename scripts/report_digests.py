#!/usr/bin/env python3
"""Print one sha256 per benchmark workload and seed over all its reports.

Usage: python scripts/report_digests.py [--seeds 1 2]

For each workload of perfbench/workloads.py and each seed, the script
writes that seed's domain files to a temporary directory, runs every
request of one pass through `levislice.cli.main`, and hashes the JSON
reports in request order, each without its timing block.  Two commits
that print the same lines give byte-identical reports on every request.
The benchmark's files are only imported, never changed.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(cli, workloads, name: str, seed: int) -> tuple[int, str]:
    """(request count, sha256 hex) of one pass of the workload at this seed."""
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        requests = workloads.build_requests(name, seed, Path(tmp))
        for request in requests:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(request.argv))
            sha.update(f"{code}\n{workloads.without_timing(out.getvalue())}\n".encode())
    return len(requests), sha.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args()
    # the reports pin floating-point bits; one BLAS thread, as in the benchmark
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from levislice import cli

    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            count, hexdigest = digest(cli, workloads, name, seed)
            print(f"{name} seed {seed} requests {count} sha256 {hexdigest}")


if __name__ == "__main__":
    main()
