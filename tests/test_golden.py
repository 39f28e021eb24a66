"""Byte-identity of CLI output for the README example configurations.

The digests pin the exact bytes the reports had before the membership code
was folded into one kernel per branch; a refactor of the per-point
arithmetic must not move a single digit.
"""

import hashlib

import pytest
from click.testing import CliRunner

from hexband.cli import cli

BANDS = ["bands", "--a", "1", "--b", "1", "--c", "1", "--alpha", "3", "--kmax", "31.4"]
BANDS_NEGATIVE = ["bands", "--a", "1", "--b", "1", "--c", "1", "--alpha", "-6.5",
                  "--kmax", "10", "--include-negative"]
GAPS = ["gaps", "--a", "2", "--b", "1", "--c", "1", "--alpha", "4",
        "--kmin", "1.2", "--kmax", "1.9"]
# the README's classify geometry, since --centers needs an irrational a/b
GAPS_CENTERS = ["gaps", "--a", "(1+sqrt(5))/2", "--b", "1", "--c", "1", "--alpha", "6",
                "--kmax", "40", "--centers", "3"]

GOLDEN = [
    pytest.param(BANDS, "069d807bb0fb232c0cb3a4caacdca22f8fa6e50d07e14f54cd4ad09e7e8eb218",
                 id="bands-json"),
    pytest.param(BANDS_NEGATIVE, "70e6888465d1d38f1e88f3d23f62f0ad0aea68499f854e48b8a054d2ade5a1f9",
                 id="bands-negative-json"),
    pytest.param(BANDS + ["--format", "csv"],
                 "9dfa31e627edf32042e83fb33f3eb4243d87ac134755848fffdfa631be7b1086",
                 id="bands-csv"),
    pytest.param(BANDS_NEGATIVE + ["--format", "csv"],
                 "311a8dc4a89938e34146a239ce4dfa79f84fbc82e202b7c3408b6e7fed9b82d9",
                 id="bands-negative-csv"),
    pytest.param(GAPS, "d82ba1f63759ad73b52ec8878ef13196131d4e9383c6b193e37ce431e64b42c6",
                 id="gaps-json"),
    pytest.param(GAPS + ["--format", "csv"],
                 "180424ea6cd1b19498941b6140f55ac2592f302b5f0075486d4fbf1ccce6563d",
                 id="gaps-csv"),
    pytest.param(GAPS_CENTERS, "c5bbea9fa489da3bf2a982c6a3188c27d13aaa3a27b4c6d0646c58f7335d483b",
                 id="gaps-centers-json"),
]


@pytest.mark.parametrize("args, digest", GOLDEN)
def test_output_bytes_unchanged(args, digest):
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
