"""Band/gap structure of the Laplacian on a dilated honeycomb quantum graph.

The lattice has hexagons with antipodal edge pairs of lengths a, b, c and a
delta coupling of strength alpha at every vertex.  The package evaluates the
closed-form secular condition, decides band membership through the phase
envelope, scans energy windows into bands and gaps (positive and negative
branch), enumerates and verifies flat bands, applies the explicit gap
criteria with their number-theoretic coupling thresholds, and cross-checks
everything against brute-force grid oracles.  The cofactor oracle
``det_numeric(re, im) -> (re, im)`` works on columns: the (4, 4, n) real
and imaginary parts of n cell matrices in, the (n,) parts of their
determinants out.
"""

from .core import (
    DEFAULT_DIRICHLET_TOL,
    DirichletPointError,
    EnergyPoint,
    FloquetPhase,
    HexGeometry,
    MMatrix,
    VertexCoupling,
    assemble_m_matrix,
    det_m_closed_form,
)
from .bands import (
    BandDecision,
    Decision,
    RhsEnvelope,
    band_membership,
    flat_band_energies,
    negative_spectrum_scan,
    rhs_envelope,
    sample_grid,
    scan_spectrum,
    trig_polynomial_min,
    verify_flat_band,
)
from .gaps import (
    GapDiagnostics,
    ThresholdReport,
    gap_diagnostics_bc,
    gc1,
    gc1_tangent_form,
    gc2,
    gc2_equivalent_bc,
    gc_negative,
    thresholds_bc,
)
from .numtheory import (
    CommensurabilityWitness,
    ContinuedFraction,
    Convergent,
    ExactRatio,
    ExplicitCF,
    GapCenter,
    NumericRatio,
    QuadraticSurd,
    RatioClass,
    RatioClassKind,
    RationalRatioError,
    approx_constant,
    cf_expand,
    classify_ratio,
    commensurability_witness,
    convergents,
    predicted_gap_centers,
    ratio_divide,
)
from .oracle import GridSpec, band_membership_grid, det_numeric, rhs_extrema_grid, trig_min_grid
from .report import (
    FlatBand,
    SampleTable,
    SpectrumReport,
    report_from_json,
    report_to_json,
    write_samples_csv,
)

__version__ = "0.1.0"
