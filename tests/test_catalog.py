"""The domains of DomainSpec.domain(): built once per process for each
(rho, box), shared, read-only and bounded in number."""

import json
from pathlib import Path

import pytest

from levislice import catalog, cli
from levislice import expr as E
from levislice.catalog import CATALOG, DomainSpec, load_domain_spec

DATA = Path(__file__).parent / "data"


def domain_file(tmp_path, entry: str, name: str | None = None) -> str:
    """A domain file with the rho and box of a catalog entry."""
    spec = CATALOG[entry]
    box = ",".join(f"{lo!r},{hi!r}" for lo, hi in spec.box_pairs)
    path = tmp_path / f"{name or entry}.dom"
    path.write_text(f"name = {name or entry}\nn = {spec.n}\nrho = {spec.rho}\n"
                    f"box = {box}\n", encoding="utf-8")
    return str(path)


def test_equal_rho_and_box_load_one_domain(tmp_path):
    dom = CATALOG["ball"].domain()
    assert load_domain_spec("ball").domain() is dom
    copy = load_domain_spec(domain_file(tmp_path, "ball", name="copy"))
    assert copy.name == "copy" and copy.domain() is dom
    assert CATALOG["saddle2"].domain() is not dom
    assert catalog._built_domain.cache_info().currsize == 2


def test_a_warm_load_neither_parses_traces_nor_checks_realness(monkeypatch, tmp_path):
    calls = []

    def counting(name):
        original = getattr(E, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted
    for name in ("parse", "_trace", "check_real_valued"):
        monkeypatch.setattr(E, name, counting(name))
    path = domain_file(tmp_path, "saddle3")
    CATALOG["saddle3"].domain()
    assert calls == ["parse", "check_real_valued", "_trace"]
    calls.clear()
    CATALOG["saddle3"].domain()
    load_domain_spec(path).domain()
    assert calls == []


def report(capsys, argv) -> tuple[int, str]:
    """Exit code and JSON report without its timing block."""
    code = cli.main([*argv, "--json"])
    payload = json.loads(capsys.readouterr().out)
    del payload["timing"]
    return code, json.dumps(payload, indent=2)


@pytest.mark.parametrize("command, entry, options", [
    ("check", "saddle2", ("--samples", "60")),
    ("slice", "ball", ("--b", "1:0,0:0", "--c", "0:0,1:0", "--samples", "40")),
    ("verify-theorem", "ball", ("--samples", "25")),      # forward sweep
    ("verify-theorem", "saddle2", ("--samples", "60")),   # quadratic witness
])
def test_warm_reports_equal_cold_ones(capsys, tmp_path, command, entry, options):
    path = domain_file(tmp_path, entry)
    by_name = [command, entry, *options]
    by_file = [command, path, *options]
    cold = report(capsys, by_name)
    warm = [report(capsys, by_name), report(capsys, by_file)]
    assert catalog._built_domain.cache_info()[:2] == (2, 1)  # hits, misses
    catalog._built_domain.cache_clear()
    cold_file = report(capsys, by_file)
    assert warm == [cold, cold] and cold_file == cold


def test_a_domain_that_fails_to_load_fails_on_every_request(capsys):
    for _ in range(2):
        code = cli.main(["check", str(DATA / "nonreal.dom")])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INPUT and out == ""
        assert err == "error: defining function is not real-valued on the sampling box\n"
    assert catalog._built_domain.cache_info().currsize == 0


def test_a_shared_box_is_read_only():
    dom = CATALOG["ball"].domain()
    with pytest.raises(ValueError, match="read-only"):
        dom.box[0, 0] = 0.0
    assert CATALOG["ball"].box().flags.writeable


def test_the_cache_holds_at_most_its_size():
    size = catalog.DOMAIN_CACHE_SIZE
    specs = [DomainSpec(name=f"ball{k}", n=2, rho="abs2(z1)+abs2(z2)-1",
                        box_pairs=((-1.5 - k / 1024, 1.5),) * 2)
             for k in range(size + 2)]
    oldest = specs[0].domain()
    for spec in specs[1:]:
        spec.domain()
        assert catalog._built_domain.cache_info().currsize <= size
    assert catalog._built_domain.cache_info().currsize == size
    assert specs[0].domain() is not oldest  # the least recently used went first
