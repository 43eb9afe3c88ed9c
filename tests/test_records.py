"""The immutable value types: construction, equality, hashing, immutability."""

import copy
import json
import pickle

import pytest

from hnbetti import __version__
from hnbetti.exactalg import ExactPolynomial, TruncatedSeries
from hnbetti.genfun import (
    div_finite_poly,
    div_stable_ranks,
    div_stable_series,
    residue_series,
    sym_product_poly,
)
from hnbetti.hnrec import (
    BettiReport,
    MemoStore,
    betti_poly,
    dim_moduli,
    rank2_oracle,
    ss_series,
)
from hnbetti.render import OutputDocument, render_json
from hnbetti.strata import stratum_codim

REPORT = {"polynomial": ExactPolynomial((1, 2, 1)), "moduli_dimension": 1}

# class -> the value of every field, in field order
RECORDS = {
    ExactPolynomial: {"coefficients": (1, 0, 2)},
    TruncatedSeries: {"coefficients": (1, 4, 8), "truncation_order": 2},
    BettiReport: REPORT,
    OutputDocument: {"payload": BettiReport(**REPORT), "genus": 1, "rank": 2, "degree": 1,
                     "version": __version__},
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    values = RECORDS[cls]
    record = cls(*values.values())
    assert record == cls(**values)
    assert tuple(getattr(record, name) for name in values) == tuple(values.values())
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in values.items()) + ")"
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    assert record != tuple(values.values())
    assert hash(record) == hash(cls(**values))
    assert len({record, cls(**values)}) == 1

    first = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(record, first, values[first])
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        cls(**values, extra=1)
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in values.items() if name != first})


def test_record_defaults():
    doc = OutputDocument(ExactPolynomial((1,)))
    assert (doc.genus, doc.rank, doc.degree, doc.version) == (None, None, None, __version__)


def test_unequal_records():
    assert TruncatedSeries((1, 4), 1) != TruncatedSeries((1, 4, 0), 2)
    assert BettiReport(**REPORT) != BettiReport(ExactPolynomial((1, 4, 6, 4, 1)), 2)


def test_unknown_check_name_in_a_cache_file_is_a_miss(tmp_path):
    doc = OutputDocument(BettiReport(**REPORT), genus=2, rank=2, degree=1)
    data = json.loads(render_json(doc))
    data["checks"]["extra"] = True
    (tmp_path / "ss_g2_r2_n1.json").write_text(json.dumps(data), encoding="utf-8")
    memo = MemoStore(tmp_path)
    assert memo.lookup(2, 2, 1, 8) is None
    assert len(memo.warnings) == 1 and "ss_g2_r2_n1.json" in memo.warnings[0]


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("moduli_dimension", 0, "dimension must be an integer >= 1"),
        ("polynomial", ExactPolynomial((1, 2, 1, 1)), "checks degree_matches_2dim, palindromic$"),
        ("polynomial", TruncatedSeries((1, 2, 1), 2), "must be an ExactPolynomial"),
        ("polynomial", ExactPolynomial((1,)), "checks degree_matches_2dim$"),
        ("polynomial", ExactPolynomial((1, 2, 3)), "checks palindromic$"),
        ("polynomial", ExactPolynomial((1, -2, 1)), "checks nonnegative$"),
        ("polynomial", ExactPolynomial.zero(), "checks degree_matches_2dim, palindromic$"),
    ],
    ids=["dimension-0", "degree-above-2dim", "series",
         "degree-below-2dim", "not-palindromic", "negative-coefficient", "zero-polynomial"],
)
def test_betti_report_fields_must_agree(field, value, match):
    # A report whose fields contradict each other would render as if it held,
    # and a report says "checks: all pass": it refuses a polynomial that fails
    # the checks its fields can show.  tail_vanishes is the one check a report
    # cannot re-run, as it needs the series past t^(2*dim).
    with pytest.raises(ValueError, match=match):
        BettiReport(**{**REPORT, field: value})


@pytest.mark.parametrize(
    "build, args",
    [
        (stratum_codim, ((1.9, 2.7, 1, 0), 2)),
        (ExactPolynomial, ((1.5, 2.9),)),
        (ExactPolynomial, ((1, True),)),
        (TruncatedSeries, (("3", 2.2), 1)),
        (TruncatedSeries, ((1, 2), 1.0)),
        (ss_series, (2, 2.0, 1, 4)),
        (ss_series, (2, 2, 1.5, 4)),
        (ss_series, (2, 2, 1, 4.0)),
        (ss_series, (2, 2, True, 4)),
        (betti_poly, (2, 2.0, 1)),
        (betti_poly, (2, 2, 1.5)),
        (betti_poly, (2, 2, True)),
        (dim_moduli, (2, 2.5)),
        (dim_moduli, (2, True)),
        (sym_product_poly, (2, True)),
        (div_stable_series, (2, True, 3)),
        (rank2_oracle, (2, 1.0, 4)),
        (div_stable_ranks, (2, 2, 4.0)),
        (residue_series, (2, 2, 4.0)),
        (rank2_oracle, (2, 1, 4.0)),
        (div_finite_poly, (2, 2, 1, 1.0)),
        (ExactPolynomial.from_terms, ({1.0: 1},)),
        (pow, (ExactPolynomial((1, 1)), True)),
        (TruncatedSeries((1, 2, 3, 4), 3).truncate, (2.0,)),
        (TruncatedSeries((1, 2, 3, 4), 3).times_t_power, (1.0,)),
        (ExactPolynomial((1, 2, 3)).coefficient, (1.0,)),
    ],
    ids=["stratum_codim", "ExactPolynomial", "ExactPolynomial-bool", "TruncatedSeries",
         "TruncatedSeries-order", "ss_series-rank", "ss_series-degree", "ss_series-order",
         "ss_series-bool", "betti_poly-rank", "betti_poly-degree", "betti_poly-bool",
         "dim_moduli-rank", "dim_moduli-bool",
         "sym_product_poly-bool", "div_stable_series-bool", "rank2_oracle-degree",
         "div_stable_ranks-order", "residue_series-order", "rank2_oracle-order",
         "div_finite_poly-twist", "from_terms", "pow-bool", "truncate",
         "times_t_power", "coefficient"],
)
def test_constructors_reject_non_integers(build, args):
    # int() would take 2.7 as 2, "3" as 3 and True as 1 without a word; the
    # library functions answered for 2.5, True and 1.0 or failed in list arithmetic.
    with pytest.raises(ValueError, match="expected an integer"):
        build(*args)
