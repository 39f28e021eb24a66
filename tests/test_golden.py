"""Byte-identity of CLI output for the README example configurations.

The digests pin the exact bytes the reports had before the membership code
was folded into one kernel per branch, and before the number theory moved
onto one convergent walk per ratio, before the tolerance and depth knobs
that only ever held their defaults became constants, and before the oracle's
grid extrema moved to partial selection on broadcast axes; a refactor of the
per-point arithmetic, of the convergent search, of the option surface or of
the phase-grid search must not move a single digit.

One correctness fix moved digits on purpose: band edges that sit on a
Dirichlet point m*pi/l used to stop at the end of a flag zone around it, up
to 6e-8 away, and are now refined onto the point, within edge_tol.  The
four JSON digests with such edges (bands-json, bands-negative-json,
gaps-centers-json, gaps-numeric-centers-json) were recorded after that fix;
every other digest, the CSV ones included, held through it.

The sample table was then kept as numpy columns, formatted by a chunked
CSV writer, with the negative-branch rows computed by a column kernel.  The
bands-both-branches-csv digest was recorded before that change, on a scan
with Dirichlet rows of NaNs and negative rows past kappa*l = 700, where
1/sinh is taken as 0; every digest held through it.

The oracle's phase grids then moved onto one shared cos(t1 - t2) table per
grid size, and its zoom learned to follow a valley past its window; every
digest, verify-default-grid-json included, held through both.

verify-bench-grid-json, one run of the benchmark's oracle workload, was
recorded before the oracle's grids were built in place, its candidates
found under a row bound and ordered by (value, flat index), and each minor
of the cofactor expansion evaluated once; every digest held through that,
and through the grids' later evaluation a block of rows at a time, with
only the best strips' cells evaluated again.

A second correctness fix moved digits on purpose: each negative-branch
root is now bisected between the window ends rather than inside the sample
cell where its sign turns, so the intervals no longer depend on the number
of samples.  Only bands-negative-json changed; its band edges moved by
1.4e-9 and 6.0e-10 in E, within edge_tol in kappa.

A third correctness fix moved digits on purpose: the positive scan takes its
edges from the four boundary rows, split at the Dirichlet points and halved
wherever two rows turn in one sample interval, so no band or gap narrower
than the grid is missed.  An edge on a Dirichlet point is now the point
m*pi/l itself, seen from either side, instead of a bisection within edge_tol
of it, and the positive reports lost their may_miss_narrow_features and
warnings metadata.  bands-json, bands-negative-json, gaps-centers-json and
gaps-numeric-centers-json changed, only in those edges (none moved by more
than 4.6e-10 in k) and, for the first two, in the metadata; no interval was
added or lost.  The negative report of bands-negative-json, every CSV and
the classify, flatbands and verify digests held.

Then convergent sides were taken from their index, (-1)^n on exact
expansions, in place of a 40-digit comparison; the float rational
reconstruction came to walk the float expansion's own quotients; sample rows
were labelled from their packed boundary rows; and the CLI wrote its output
with sys.stdout.write instead of click.echo.  Every digest held.

Then the reports stopped reading the sample grid: the positive scan cuts its
window at the Dirichlet points and the window ends alone, so the reports are a
function of geometry, alpha, window and edge_tol, and only the CSV format
builds a sample table.  The positive edges were bisected from those wider
pieces and moved in their last bits, each by less than edge_tol in k; no
interval was added or lost, and the reports lost their n_samples, k_spacing,
kappa_spacing and dirichlet_tol metadata.  Six digests were re-recorded:
bands-json (largest edge move 5.7e-10 in k), bands-negative-json (4.4e-10 on
the positive report; the negative report's window and intervals held bit for
bit, only its metadata changed), gaps-json and gaps-csv (1.0e-10),
gaps-centers-json (5.5e-10) and gaps-numeric-centers-json (5.8e-10), whose
gap attributions and predicted centres held.  Every bands CSV digest and the
classify, flatbands and verify digests held.

A fourth correctness fix moved digits on purpose: every sine and cosine of
an edge angle is now libm's, of the unreduced l*k, in place of a reduction
modulo 2*pi that lost up to 2e-7 relative next to odd multiples of pi.
Eight digests were re-recorded, and only last digits moved.  In the CSVs:
bands-csv 3484 of its 12000 absD, lower and upper cells (largest relative
move 8.6e-13), bands-negative-csv 2620 of 24000 (3.0e-13) and
bands-both-branches-csv 4758 of 18000 (2.9e-12), all in positive rows; the
largest moves are where D or lower nearly cancels or k is next to a
Dirichlet point, and no decision label changed.  The flat-band residuals
moved in their last digit (flatbands-exact-json 2.1558735510086125e-14 to
2.1558735510086122e-14, flatbands-decimal-json 7.44733809234372e-14 to
7.447338092343719e-14), and so did verify's determinant deviation
(verify-json and verify-default-grid-json 6.162715826352451e-14 to
6.004600831639797e-14, verify-bench-grid-json 4.266296733807685e-13 to
4.2585736195591454e-13).  Every JSON bands, gaps and classify digest held.
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
CLASSIFY = ["classify", "--a", "(1+sqrt(5))/2", "--b", "1", "--alpha", "6"]
CLASSIFY_SQRT2 = ["classify", "--a", "sqrt(2)", "--b", "1", "--alpha", "-6", "--centers", "5"]
# a decimal ratio: the centres come from the floating-point expansion
GAPS_NUMERIC_CENTERS = ["gaps", "--a", "1.6180339887", "--b", "1", "--c", "1", "--alpha", "20",
                        "--kmax", "60", "--samples", "1500", "--centers", "3"]
# an exact commensurability witness, and one reconstructed from a decimal length
FLATBANDS_EXACT = ["flatbands", "--a", "1/2", "--b", "3/2", "--c", "1", "--n-max", "3"]
FLATBANDS_DECIMAL = ["flatbands", "--a", "1.25", "--b", "1", "--c", "1"]
# Dirichlet rows of NaNs on the positive branch, and negative rows whose
# kappa*l passes 700, so their upper and lower columns read 0
BANDS_BOTH_BRANCHES = ["bands", "--a", "1/2", "--b", "3/2", "--c", "1", "--alpha", "-3",
                       "--kmin", "3.1", "--kmax", "25.2", "--samples", "3000",
                       "--dirichlet-tol", "1e-3", "--include-negative", "--kappa-max", "1500",
                       "--format", "csv"]
VERIFY = ["verify", "--det-samples", "30", "--envelope-samples", "2", "--trigmin-samples", "4",
          "--grid-n", "64"]
# verify's default 1024 x 1024 grid, where exact ties in the grid order are most common
VERIFY_DEFAULT_GRID = ["verify", "--det-samples", "30", "--envelope-samples", "3",
                       "--trigmin-samples", "3"]
# one run of the benchmark's oracle workload, on its 768 x 768 grid
VERIFY_BENCH_GRID = ["verify", "--seed", "20240901", "--det-samples", "100",
                     "--envelope-samples", "3", "--trigmin-samples", "3", "--grid-n", "768",
                     "--refine-rounds", "2"]

GOLDEN = [
    pytest.param(BANDS, "e284e839fb7317a08b825b2b5fddec099d2c76dbbe57fcf0fd22c938f3bee5b0",
                 id="bands-json"),
    pytest.param(BANDS_NEGATIVE, "c862dec4d8ff4500327ca89a7ebf2743051e5160454111b6e05072e7a6a2e918",
                 id="bands-negative-json"),
    pytest.param(BANDS + ["--format", "csv"],
                 "bf39d3c613d011e1f7b0220bb0f31905d6d1ee41d0f0657584ce684cbe5b96b2",
                 id="bands-csv"),
    pytest.param(BANDS_NEGATIVE + ["--format", "csv"],
                 "434d533c20b740dc56d191077b8d4e192650ae061f6438d5c3a52d003906d7d0",
                 id="bands-negative-csv"),
    pytest.param(BANDS_BOTH_BRANCHES,
                 "000c7616e2c35262841246af9a76f9d8779ccf1957bde3ad5e527aa773e58381",
                 id="bands-both-branches-csv"),
    pytest.param(GAPS, "11d467f698b494dcd806514d1848cc4914def64603b907de208b3b345a9c77f4",
                 id="gaps-json"),
    pytest.param(GAPS + ["--format", "csv"],
                 "ecaf7df1b12c56c72fbf28ae45310da68b968e50c72f735f9fca14ec78bd38ed",
                 id="gaps-csv"),
    pytest.param(GAPS_CENTERS, "010178d20a1698951514b834638215fae963a5ef9dda2e51a06f7f59a7c04887",
                 id="gaps-centers-json"),
    pytest.param(CLASSIFY, "814ba1f29e6784263553d0ee7f54ac6f03569d75bbdb8e387c3ea8e4d3c81066",
                 id="classify-json"),
    pytest.param(CLASSIFY_SQRT2, "e71b162ea991d8d27d8132275826519053fd15ffff17c8e133ac6b2fc281022b",
                 id="classify-sqrt2-centers-json"),
    pytest.param(GAPS_NUMERIC_CENTERS,
                 "5c146dd48861f215cb96cd45c5eec4aae7774cf2633389e63175bbc92f6cd387",
                 id="gaps-numeric-centers-json"),
    pytest.param(FLATBANDS_EXACT,
                 "ab428670e555e5d83b02556f9e65e55962c1cc1e4c3354fa5bdfed9f3d096779",
                 id="flatbands-exact-json"),
    pytest.param(FLATBANDS_DECIMAL,
                 "15e5f8a2e3bed7f005cd1b00ff772ffa600f9a732f15750350f97e26598192cb",
                 id="flatbands-decimal-json"),
    pytest.param(VERIFY, "860f87be4606a2e37791f35375892f5f1da421c36c9e0d6cd142c2fb0d9fb4a6",
                 id="verify-json"),
    pytest.param(VERIFY_DEFAULT_GRID,
                 "00ac87737c035e5c2c715b6cfbe05787d2d0dcdae8ebb7843f4699638ceefaf6",
                 id="verify-default-grid-json"),
    pytest.param(VERIFY_BENCH_GRID,
                 "4ccb502c03a0432eaff6a79f33f8d8f0aeb0d424ef4501eb36721027e06eda1e",
                 id="verify-bench-grid-json"),
]


@pytest.mark.parametrize("args, digest", GOLDEN)
def test_output_bytes_unchanged(args, digest):
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
