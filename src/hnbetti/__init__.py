"""Exact Betti numbers of moduli spaces of stable bundles on a curve.

The pipeline: closed-form Poincare series of the matrix-divisor ind-variety,
stratified by Harder-Narasimhan type; a recursion peels off the unstable
strata to isolate the semistable locus; for coprime rank and degree, one
factor of (1 - t^2) collapses the series to the Betti polynomial of the
moduli space N(rank, degree).  All arithmetic is exact integer arithmetic.

Submodules load on first use, so a process loads only the layers it touches;
``hnbetti.render`` is the render module, whose function is ``render.render``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it: the one place that says
# where a name lives.
_HOMES = {
    "exactalg": ("ExactPolynomial", "InexactDivisionError", "TruncatedSeries"),
    "genfun": (
        "div_finite_poly",
        "div_stable_series",
        "residue_series",
        "sym_product_poly",
    ),
    "hnrec": (
        "BettiReport",
        "MemoStore",
        "StructuralCheckError",
        "TRUNCATION_SLACK",
        "betti_poly",
        "dim_moduli",
        "rank2_oracle",
        "ss_series",
        "stratum_series",
    ),
    "render": (
        "OutputDocument",
        "parse_json",
        "render_csv",
        "render_json",
        "render_latex",
        "render_text",
    ),
    "strata": ("stratum_codim", "type_rows"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", "render", *_HOME_OF]


def __getattr__(name: str) -> object:
    if name in _HOMES:
        # Importing a submodule binds it here as a package attribute.
        return import_module(f"{__name__}.{name}")
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Read from the home module at every access and bound nowhere here, so a
    # patch of the home module shows through the package name.
    return getattr(import_module(f"{__name__}.{home}"), name)
