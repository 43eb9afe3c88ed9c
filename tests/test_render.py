"""Output documents: the four renderings and the JSON round trip."""

import json
import math

import pytest

from hnbetti.exactalg import ExactPolynomial, TruncatedSeries
from hnbetti.hnrec import BettiChecks, BettiReport, ModuliQuery, betti_poly
from hnbetti.render import (
    OutputDocument,
    parse_json,
    render,
    render_csv,
    render_json,
    render_latex,
    render_text,
)
from hnbetti.strata import HNType

BETTI_2_2_1 = BettiReport(
    polynomial=ExactPolynomial((1, 4, 7, 12, 24, 32, 24, 12, 7, 4, 1)),
    moduli_dimension=5,
    truncation_used=20,
    checks=BettiChecks(True, True, True, True),
)


def _docs():
    return [
        OutputDocument("polynomial", ExactPolynomial((1, 4, 1)), genus=2, degree=1),
        OutputDocument("polynomial", ExactPolynomial.zero(), genus=2, degree=0),
        OutputDocument(
            "series", TruncatedSeries((1, 4, 8, 16), 3), genus=2, rank=2, degree=1
        ),
        OutputDocument(
            "type-list",
            (HNType(((1, 1), (1, 0))), HNType(((1, 2), (1, -1)))),
            genus=2,
            rank=2,
            degree=1,
        ),
        OutputDocument("type-list", (), genus=2, rank=1, degree=0),
        OutputDocument("betti-report", BETTI_2_2_1, genus=2, rank=2, degree=1),
        OutputDocument(
            "betti-report",
            BettiReport(ExactPolynomial((1, 2, 1)), 1, 12, None),
            genus=1,
            rank=2,
            degree=1,
        ),
    ]


def test_document_validation():
    with pytest.raises(ValueError):
        OutputDocument("poem", ExactPolynomial((1,)))
    with pytest.raises(ValueError):
        OutputDocument("polynomial", TruncatedSeries((1,), 0))
    with pytest.raises(ValueError):
        OutputDocument("type-list", (HNType(((1, 0),)),))  # no genus


def test_json_roundtrip_every_kind():
    for doc in _docs():
        assert parse_json(render_json(doc)) == doc


def test_json_schema_keys_and_string_coefficients():
    doc = OutputDocument("betti-report", BETTI_2_2_1, genus=2, rank=2, degree=1)
    data = json.loads(render_json(doc))
    assert list(data) == [
        "kind",
        "genus",
        "rank",
        "degree",
        "variable",
        "coefficients",
        "truncation",
        "dimension",
        "checks",
        "version",
    ]
    assert data["variable"] == "t"
    assert data["coefficients"][4] == "24"
    assert all(isinstance(c, str) for c in data["coefficients"])
    assert data["dimension"] == 5
    assert data["checks"]["palindromic"] is True

    poly_doc = OutputDocument("polynomial", ExactPolynomial((1, 4, 1)), genus=2)
    data = json.loads(render_json(poly_doc))
    assert data["truncation"] is None
    assert data["dimension"] is None
    assert data["checks"] is None


def test_json_zero_polynomial_convention():
    data = json.loads(render_json(OutputDocument("polynomial", ExactPolynomial.zero())))
    assert data["coefficients"] == ["0"]
    back = parse_json(json.dumps(data))
    assert back.payload.is_zero()


def test_json_huge_coefficients_survive():
    # The genus-50 Jacobian: (1 + t)^100, middle coefficient 30 digits long.
    report = betti_poly(ModuliQuery(50, 1, 0))
    doc = OutputDocument("betti-report", report, genus=50, rank=1, degree=0)
    data = json.loads(render_json(doc))
    middle = data["coefficients"][50]
    assert middle == str(math.comb(100, 50))
    assert len(middle) == 30
    assert parse_json(render_json(doc)) == doc


def test_text_rendering():
    doc = OutputDocument(
        "betti-report",
        BettiReport(ExactPolynomial((1, 4, 6, 4, 1)), 2, 14, BettiChecks(True, True, True, True)),
        genus=2,
        rank=1,
        degree=0,
    )
    assert render_text(doc) == "1 + 4t + 6t^2 + 4t^3 + t^4  (dim 2, checks: all pass)"

    poly_doc = OutputDocument("polynomial", ExactPolynomial((1, 4, 1)), genus=2, degree=1)
    assert render_text(poly_doc) == "1 + 4t + t^2  (genus 2, deg 1)"

    series_doc = OutputDocument(
        "series", TruncatedSeries((1, 4, 8, 16), 3), genus=2, rank=2
    )
    assert render_text(series_doc) == "1 + 4t + 8t^2 + 16t^3 + O(t^4)  (genus 2, rank 2)"

    skipped = OutputDocument(
        "betti-report",
        BettiReport(ExactPolynomial((1, 2, 1)), 1, 12, None),
        genus=1,
        rank=2,
        degree=1,
    )
    assert render_text(skipped).endswith("(dim 1, checks: skipped)")


def test_failed_checks_are_named_in_field_order():
    checks = BettiChecks(True, False, True, False)
    assert checks.failed() == ["degree_matches_2dim", "nonnegative"]
    doc = OutputDocument(
        "betti-report", BettiReport(ExactPolynomial((1, 2, 1)), 1, 12, checks)
    )
    assert render_text(doc).endswith(
        "(dim 1, checks: FAILED degree_matches_2dim, nonnegative)"
    )
    assert list(json.loads(render_json(doc))["checks"].items()) == [
        ("tail_vanishes", True),
        ("degree_matches_2dim", False),
        ("palindromic", True),
        ("nonnegative", False),
    ]


def test_text_negative_and_zero_terms():
    doc = OutputDocument("polynomial", ExactPolynomial((-1, 0, 2, -3)))
    assert render_text(doc) == "-1 + 2t^2 - 3t^3"
    assert render_text(OutputDocument("polynomial", ExactPolynomial.zero())) == "0"


def test_type_list_text():
    doc = OutputDocument(
        "type-list",
        (HNType(((1, 1), (1, 0))), HNType(((1, 2), (1, -1)))),
        genus=2,
        rank=2,
        degree=1,
    )
    assert render_text(doc) == (
        "codim 2: (1;1)(1;0)\n"
        "codim 4: (1;2)(1;-1)\n"
        "(2 types; genus 2, rank 2, deg 1)"
    )


def test_latex_rendering():
    assert render_latex(OutputDocument("polynomial", ExactPolynomial((1, 0, 1)))) == "1 + t^{2}"
    assert render_latex(
        OutputDocument("series", TruncatedSeries((1, 4), 1), genus=2, rank=1)
    ) == "1 + 4t + O(t^{2})"
    doc = OutputDocument("type-list", (HNType(((1, 1), (1, 0))),), genus=2)
    assert render_latex(doc) == "\\left[(1;1)(1;0)\\right]_{2}"
    assert render_latex(OutputDocument("type-list", (), genus=2)) == "\\varnothing"


def test_csv_rendering():
    assert render_csv(OutputDocument("polynomial", ExactPolynomial((1, 4, 1)))) == (
        "0,1\n1,4\n2,1"
    )
    assert render_csv(OutputDocument("polynomial", ExactPolynomial.zero())) == "0,0"
    assert render_csv(
        OutputDocument("series", TruncatedSeries((1, 0, 0, 16), 3), genus=2)
    ) == "0,1\n1,0\n2,0\n3,16"
    doc = OutputDocument(
        "type-list",
        (HNType(((1, 1), (1, 0))), HNType(((1, 2), (1, -1)))),
        genus=2,
        rank=2,
        degree=1,
    )
    assert render_csv(doc) == "2,(1;1)(1;0)\n4,(1;2)(1;-1)"


def test_render_dispatch():
    doc = OutputDocument("polynomial", ExactPolynomial((1,)))
    assert render(doc, "json") == render_json(doc)
    with pytest.raises(ValueError):
        render(doc, "html")


def test_parse_json_rejects_garbage():
    with pytest.raises(ValueError):
        parse_json("[]")
    with pytest.raises(ValueError):
        parse_json(json.dumps({"kind": "poem", "genus": None, "rank": None,
                               "degree": None, "version": "0.1.0"}))
