"""Built-in model domains and the domain-file format.

Domain files are flat key=value text (UTF-8, with or without a byte-order
mark; '#' comments):

    name = saddle2
    n = 2
    rho = re(z2)-abs2(z1)
    box = -1,1,-1,1
    expected = nonpseudoconvex
    samples = 200
    seed = 7

`box` lists one (lo, hi) pair per complex coordinate (2n numbers); the pair
bounds both the real and imaginary part of that coordinate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .levi import Domain, make_domain


class DomainFileError(Exception):
    pass


DEFAULT_SAMPLES = 200
DEFAULT_SEED = 7
# Domains kept built per process: a bound on their count, not on memory.  A
# domain's bytes grow with n and the length of rho.  The 60 generated
# ellipsoids and saddles of the benchmark's check-generic workload (n = 2..5)
# hold about 50 KB each with their tapes and pruned programs (tracemalloc,
# after one `check` each), so 128 domains of that size hold about 6.5 MB.
DOMAIN_CACHE_SIZE = 128


@dataclass(frozen=True)
class DomainSpec:
    name: str
    n: int
    rho: str
    box_pairs: tuple[tuple[float, float], ...]  # one (lo, hi) per complex coordinate
    expected: str | None = None
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED

    def box(self) -> np.ndarray:
        return _box(self.box_pairs)

    def domain(self) -> Domain:
        """The domain {rho < 0} over the box, built once per process for each
        (rho, box_pairs) and shared by every spec with both equal; its box
        is read-only."""
        return _built_domain(self.rho, self.box_pairs)


def _box(box_pairs) -> np.ndarray:
    rows = []
    for lo, hi in box_pairs:
        rows.append((lo, hi))  # real part
        rows.append((lo, hi))  # imaginary part
    return np.array(rows, float)


@functools.lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def _built_domain(rho: str, box_pairs) -> Domain:
    """Parse, trace and realness-check a domain.  The result depends on
    (rho, box_pairs) alone, as the realness check has a fixed seed and the
    tape is a function of the expression.  A load that raises is not kept."""
    domain = make_domain(rho, box=_box(box_pairs))
    domain.box.flags.writeable = False
    return domain


def _entry(name, n, rho, half, expected) -> DomainSpec:
    return DomainSpec(name=name, n=n, rho=rho,
                      box_pairs=tuple((-half, half) for _ in range(n)),
                      expected=expected)


CATALOG: dict[str, DomainSpec] = {
    spec.name: spec for spec in [
        _entry("ball", 2, "abs2(z1)+abs2(z2)-1", 1.5, "pseudoconvex"),
        _entry("ball3", 3, "abs2(z1)+abs2(z2)+abs2(z3)-1", 1.5, "pseudoconvex"),
        _entry("polyball", 2, "abs2(z1)^2+abs2(z2)-1", 1.5, "pseudoconvex"),
        _entry("saddle2", 2, "re(z2)-abs2(z1)", 1.0, "nonpseudoconvex"),
        _entry("saddle3", 3, "re(z3)-abs2(z1)-abs2(z2)", 1.0, "nonpseudoconvex"),
        _entry("shell", 2, "1-abs2(z1)-abs2(z2)", 1.5, "nonpseudoconvex"),
    ]
}


def parse_domain_file(path) -> DomainSpec:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as err:
        raise DomainFileError(f"cannot read {path}: {err}") from err
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainFileError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        fields[key.strip().lower()] = value.strip()

    for required in ("n", "rho", "box"):
        if required not in fields:
            raise DomainFileError(f"{path}: missing required key {required!r}")
    try:
        n = int(fields["n"])
        numbers = [float(x) for x in fields["box"].split(",")]
    except ValueError as err:
        raise DomainFileError(f"{path}: {err}") from err
    if n < 2:
        raise DomainFileError(
            f"{path}: n = {n}, but pseudoconvexity analysis needs n >= 2")
    if len(numbers) != 2 * n:
        raise DomainFileError(
            f"{path}: box must list {2 * n} numbers (lo,hi per coordinate), "
            f"got {len(numbers)}")
    pairs = tuple((numbers[2 * j], numbers[2 * j + 1]) for j in range(n))
    for lo, hi in pairs:
        if not (np.isfinite(hi - lo) and lo < hi):
            raise DomainFileError(f"{path}: box bounds must be finite with lo < hi "
                                  "and a finite width hi - lo")
    expected = fields.get("expected")
    if expected is not None and expected not in ("pseudoconvex", "nonpseudoconvex"):
        raise DomainFileError(
            f"{path}: expected must be 'pseudoconvex' or 'nonpseudoconvex'")
    try:
        samples = int(fields.get("samples", DEFAULT_SAMPLES))
        seed = int(fields.get("seed", DEFAULT_SEED))
    except ValueError as err:
        raise DomainFileError(f"{path}: {err}") from err
    if samples < 1:
        raise DomainFileError(f"{path}: samples must be at least 1, got {samples}")
    if seed < 0:
        raise DomainFileError(f"{path}: seed must be non-negative, got {seed}")
    return DomainSpec(name=fields.get("name", path.stem), n=n, rho=fields["rho"],
                      box_pairs=pairs, expected=expected, samples=samples,
                      seed=seed)


def load_domain_spec(name_or_path: str) -> DomainSpec:
    """Resolve a catalog name or a domain-file path."""
    if name_or_path in CATALOG:
        return CATALOG[name_or_path]
    return parse_domain_file(name_or_path)
