"""Exact Betti numbers of moduli spaces of stable bundles on a curve.

The pipeline: closed-form Poincare series of the matrix-divisor ind-variety,
stratified by Harder-Narasimhan type; a recursion peels off the unstable
strata to isolate the semistable locus; for coprime rank and degree, one
factor of (1 - t^2) collapses the series to the Betti polynomial of the
moduli space N(rank, degree).  All arithmetic is exact integer arithmetic.
"""

from ._version import __version__
from .exactalg import ExactPolynomial, InexactDivisionError, TruncatedSeries
from .genfun import (
    div_finite_poly,
    div_stable_series,
    residue_series,
    sym_product_poly,
)
from .hnrec import (
    BettiChecks,
    BettiReport,
    MemoStore,
    ModuliQuery,
    StructuralCheckError,
    TRUNCATION_SLACK,
    betti_poly,
    dim_moduli,
    rank2_oracle,
    ss_series,
    stratum_series,
)
from .render import OutputDocument, parse_json, render, render_csv, render_json, render_latex, render_text
from .strata import HNType, ShatzPolygon, enumerate_types, stratum_codim

__all__ = [
    "__version__",
    "BettiChecks",
    "BettiReport",
    "ExactPolynomial",
    "HNType",
    "InexactDivisionError",
    "MemoStore",
    "ModuliQuery",
    "OutputDocument",
    "ShatzPolygon",
    "StructuralCheckError",
    "TRUNCATION_SLACK",
    "TruncatedSeries",
    "betti_poly",
    "dim_moduli",
    "div_finite_poly",
    "div_stable_series",
    "enumerate_types",
    "parse_json",
    "rank2_oracle",
    "render",
    "render_csv",
    "render_json",
    "render_latex",
    "render_text",
    "residue_series",
    "ss_series",
    "stratum_codim",
    "stratum_series",
    "sym_product_poly",
]
