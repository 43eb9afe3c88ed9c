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
            ((2, HNType(((1, 1), (1, 0)))), (4, HNType(((1, 2), (1, -1))))),
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
        OutputDocument("series", TruncatedSeries((0, 0, 0, 0), 3), genus=1, rank=2),
    ]


# render(doc, fmt) for each entry of _docs(), in order, byte for byte.
PINNED = {
    "text": [
        "1 + 4t + t^2  (genus 2, deg 1)",
        "0  (genus 2, deg 0)",
        "1 + 4t + 8t^2 + 16t^3 + O(t^4)  (genus 2, rank 2, deg 1)",
        "codim 2: (1;1)(1;0)\ncodim 4: (1;2)(1;-1)\n(2 types; genus 2, rank 2, deg 1)",
        "(0 types; genus 2, rank 1, deg 0)",
        "1 + 4t + 7t^2 + 12t^3 + 24t^4 + 32t^5 + 24t^6 + 12t^7 + 7t^8 + 4t^9 + t^10"
        "  (dim 5, checks: all pass)",
        "1 + 2t + t^2  (dim 1, checks: skipped)",
        "O(t^4)  (genus 1, rank 2)",
    ],
    "latex": [
        "1 + 4t + t^{2}",
        "0",
        "1 + 4t + 8t^{2} + 16t^{3} + O(t^{4})",
        "\\left[(1;1)(1;0)\\right]_{2},\\ \\left[(1;2)(1;-1)\\right]_{4}",
        "\\varnothing",
        "1 + 4t + 7t^{2} + 12t^{3} + 24t^{4} + 32t^{5} + 24t^{6} + 12t^{7} + 7t^{8}"
        " + 4t^{9} + t^{10}",
        "1 + 2t + t^{2}",
        "O(t^{4})",
    ],
    "csv": [
        "0,1\n1,4\n2,1",
        "0,0",
        "0,1\n1,4\n2,8\n3,16",
        "2,(1;1)(1;0)\n4,(1;2)(1;-1)",
        "",
        "0,1\n1,4\n2,7\n3,12\n4,24\n5,32\n6,24\n7,12\n8,7\n9,4\n10,1",
        "0,1\n1,2\n2,1",
        "0,0\n1,0\n2,0\n3,0",
    ],
    "json": [
        '{"kind": "polynomial", "genus": 2, "rank": null, "degree": 1, "variable": "t", '
        '"coefficients": ["1", "4", "1"], "truncation": null, "dimension": null, '
        '"checks": null, "version": "0.1.0"}',
        '{"kind": "polynomial", "genus": 2, "rank": null, "degree": 0, "variable": "t", '
        '"coefficients": ["0"], "truncation": null, "dimension": null, "checks": null, '
        '"version": "0.1.0"}',
        '{"kind": "series", "genus": 2, "rank": 2, "degree": 1, "variable": "t", '
        '"coefficients": ["1", "4", "8", "16"], "truncation": 3, "dimension": null, '
        '"checks": null, "version": "0.1.0"}',
        '{"kind": "type-list", "genus": 2, "rank": 2, "degree": 1, "variable": "t", '
        '"coefficients": null, "truncation": null, "dimension": null, "checks": null, '
        '"version": "0.1.0", "types": [{"codim": 2, "pieces": [[1, 1], [1, 0]]}, '
        '{"codim": 4, "pieces": [[1, 2], [1, -1]]}]}',
        '{"kind": "type-list", "genus": 2, "rank": 1, "degree": 0, "variable": "t", '
        '"coefficients": null, "truncation": null, "dimension": null, "checks": null, '
        '"version": "0.1.0", "types": []}',
        '{"kind": "betti-report", "genus": 2, "rank": 2, "degree": 1, "variable": "t", '
        '"coefficients": ["1", "4", "7", "12", "24", "32", "24", "12", "7", "4", "1"], '
        '"truncation": 20, "dimension": 5, "checks": {"tail_vanishes": true, '
        '"degree_matches_2dim": true, "palindromic": true, "nonnegative": true}, '
        '"version": "0.1.0"}',
        '{"kind": "betti-report", "genus": 1, "rank": 2, "degree": 1, "variable": "t", '
        '"coefficients": ["1", "2", "1"], "truncation": 12, "dimension": 1, '
        '"checks": null, "version": "0.1.0"}',
        '{"kind": "series", "genus": 1, "rank": 2, "degree": null, "variable": "t", '
        '"coefficients": ["0", "0", "0", "0"], "truncation": 3, "dimension": null, '
        '"checks": null, "version": "0.1.0"}',
    ],
}


@pytest.mark.parametrize("fmt", PINNED)
def test_every_kind_in_every_format(fmt):
    assert [render(doc, fmt) for doc in _docs()] == PINNED[fmt]


def test_document_validation():
    with pytest.raises(ValueError):
        OutputDocument("poem", ExactPolynomial((1,)))
    with pytest.raises(ValueError):
        OutputDocument("polynomial", TruncatedSeries((1,), 0))
    with pytest.raises(ValueError):
        OutputDocument("type-list", ((0, HNType(((1, 0),))),))  # no genus
    # Rows are (codim, HNType) pairs, and the metadata is ints or None.
    for rows in ((HNType(((1, 0),)),), ((0.0, HNType(((1, 0),))),), ((True, HNType(((1, 0),))),),
                 ((0, ((1, 0),)),), ((0, HNType(((1, 0),)), 1),)):
        with pytest.raises(ValueError):
            OutputDocument("type-list", rows, genus=2)
    for metadata in ({"genus": "two"}, {"genus": 2.0}, {"rank": 2.5}, {"degree": True}):
        with pytest.raises(ValueError, match="expected an integer"):
            OutputDocument("polynomial", ExactPolynomial((1,)), **metadata)


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
        ((2, HNType(((1, 1), (1, 0)))), (4, HNType(((1, 2), (1, -1))))),
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
    doc = OutputDocument("type-list", ((2, HNType(((1, 1), (1, 0)))),), genus=2)
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
        ((2, HNType(((1, 1), (1, 0)))), (4, HNType(((1, 2), (1, -1))))),
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


@pytest.mark.parametrize(
    "kind, path, value",
    [
        ("polynomial", ("coefficients", 1), 4),
        ("series", ("coefficients", 2), 8.9),
        ("series", ("coefficients", 0), True),
        ("series", ("truncation",), 3.0),
        ("type-list", ("types", 1, "pieces", 0, 1), 2.9),
        ("betti-report", ("dimension",), 5.0),
        ("betti-report", ("truncation",), True),
        ("type-list", ("types", 0, "codim"), 2.0),
        ("betti-report", ("checks", "palindromic"), "no"),
        ("betti-report", ("checks", "palindromic"), 1),
        ("betti-report", ("dimension",), -5),
        ("betti-report", ("truncation",), 3),
        ("betti-report", ("version",), 5),
    ],
)
def test_parse_json_rejects_numbers_of_the_wrong_type(kind, path, value):
    # Coefficients are decimal strings, and the other numbers plain ints: int()
    # would have read 8.9 as 8 and True as 1.
    data = json.loads(render_json(next(d for d in _docs() if d.kind == kind)))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError):
        parse_json(json.dumps(data))


def test_parse_json_rejects_a_wrong_codimension():
    # Rendering writes the codimension it is given, so a wrong one would
    # otherwise be passed on silently: (1;1)(1;0) has codimension 2 at genus 2.
    doc = next(d for d in _docs() if d.kind == "type-list" and d.payload)
    data = json.loads(render_json(doc))
    assert data["types"][0]["codim"] == 2
    data["types"][0]["codim"] = 99
    with pytest.raises(ValueError, match="codimension 2, not 99"):
        parse_json(json.dumps(data))
