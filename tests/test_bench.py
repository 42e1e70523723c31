"""Every row of ``tools/bench.py`` stays runnable: its command line
parses, its bundled configuration exists, and its written configuration
is accepted.  Nothing is spawned, and no family above N = 64 is built."""

import sys
from pathlib import Path

import pytest

from singular_pi1 import cli, parse_scheme_config, validate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench  # noqa: E402
import families  # noqa: E402  (perfbench's, on the path bench sets)

# every suite, and the two that take --degree-max also above the default
SUITES = [(suite, 5) for suite in bench.SUITES] \
    + [("verify", 7), ("oracle", 7)]


def test_each_suite_has_its_rows():
    assert {suite: len(bench.suite_rows(suite)) for suite in bench.SUITES} \
        == {"calls": 58, "present": 59, "verify": 18, "oracle": 18}


@pytest.mark.parametrize("suite, degree", SUITES)
def test_every_command_line_parses(suite, degree):
    for _, (command, *flags) in bench.suite_rows(suite, degree):
        args = cli.parse_args([command, "config.json", *flags])
        if degree > 5:
            assert args.bound_degree == degree


def configs():
    """Every configuration a suite names, once."""
    return sorted({spec for suite in bench.SUITES
                   for spec, _ in bench.suite_rows(suite)}, key=str)


def test_every_bundled_configuration_exists():
    bundled = [spec for spec in configs() if spec[0] == "corpus"]
    assert len(bundled) == len(bench.CORPUS)
    for spec in bundled:
        assert bench.config_path(None, *spec).is_file()


@pytest.mark.parametrize("family, variant, n", [
    spec for spec in configs() if spec[0] != "corpus"], ids=str)
def test_every_written_configuration_is_accepted(family, variant, n):
    if family == "nodal":
        doc = bench.nodal_config(variant)
    elif n > 64:
        # too large to build here; its smaller members are built
        assert family in families.FAMILIES and variant in families.VARIANTS
        return
    else:
        doc = families.family_config(family, variant, n, bench.SEED)
    assert validate(parse_scheme_config(doc)).ok
