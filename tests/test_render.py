"""Output documents: the four renderings and the JSON round trip."""

import json
import math
import re

import pytest

from hnbetti.exactalg import ExactPolynomial, TruncatedSeries
from hnbetti.hnrec import BettiReport, MemoStore, betti_poly
from hnbetti.render import (
    OutputDocument,
    parse_json,
    render,
    render_csv,
    render_json,
    render_latex,
    render_text,
)
from hnbetti.strata import type_rows

BETTI_2_2_1 = BettiReport(
    polynomial=ExactPolynomial((1, 4, 7, 12, 24, 32, 24, 12, 7, 4, 1)),
    moduli_dimension=5,
)


def _docs():
    return [
        OutputDocument(ExactPolynomial((1, 4, 1)), genus=2, degree=1),
        OutputDocument(ExactPolynomial.zero(), genus=2, degree=0),
        OutputDocument(TruncatedSeries((1, 4, 8, 16), 3), genus=2, rank=2, degree=1),
        OutputDocument(((2, 1, 1, 1, 0), (4, 1, 2, 1, -1)), genus=2, rank=2, degree=1),
        OutputDocument((), genus=2, rank=1, degree=0),
        OutputDocument(BETTI_2_2_1, genus=2, rank=2, degree=1),
        OutputDocument(TruncatedSeries((0, 0, 0, 0), 3), genus=1, rank=2),
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
        "O(t^{4})",
    ],
    "csv": [
        "0,1\n1,4\n2,1",
        "0,0",
        "0,1\n1,4\n2,8\n3,16",
        "2,(1;1)(1;0)\n4,(1;2)(1;-1)",
        "",
        "0,1\n1,4\n2,7\n3,12\n4,24\n5,32\n6,24\n7,12\n8,7\n9,4\n10,1",
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
        '{"kind": "series", "genus": 1, "rank": 2, "degree": null, "variable": "t", '
        '"coefficients": ["0", "0", "0", "0"], "truncation": 3, "dimension": null, '
        '"checks": null, "version": "0.1.0"}',
    ],
}


@pytest.mark.parametrize("fmt", PINNED)
def test_every_kind_in_every_format(fmt):
    assert [render(doc, fmt) for doc in _docs()] == PINNED[fmt]


def test_document_validation():
    # The payload's class fixes the kind; no other class is carried.
    for payload, name in (([(2, 1, 1, 1, 0)], "list"), ({}, "dict"), ("poem", "str"),
                          (MemoStore("cache"), "MemoStore")):
        with pytest.raises(ValueError, match=f"^no document kind carries a {name}$"):
            OutputDocument(payload, genus=2)
    with pytest.raises(ValueError, match="type lists need genus metadata"):
        OutputDocument(((2, 1, 1, 1, 0),))
    # Rows are flat int tuples (codim, r1, d1, ..., rk, dk), and the metadata
    # is ints or None.  The message names the first bad row.
    good = (2, 1, 1, 1, 0)
    for bad, after in (((2.0, 1, 1, 1, 0), ()), ((2, 1, 1, 1, True), ()),
                       ((2, 1, 1, "1", 0), ()), ((4, 1, 2, 1, -1, 0), ()), ((2,), ()),
                       ([2, 1, 1, 1, 0], ()), ((0, (1, 0)), ()),
                       ((4, 1), ((2, 1.0, 1),))):
        with pytest.raises(ValueError, match="^type-list rows must be int tuples "
                           rf"\(codim, r1, d1, \.\.\., rk, dk\), got {re.escape(repr(bad))}$"):
            OutputDocument((good, bad, *after), genus=2)
    for metadata in ({"genus": "two"}, {"genus": 2.0}, {"rank": 2.5}, {"degree": True}):
        with pytest.raises(ValueError, match="expected an integer"):
            OutputDocument(ExactPolynomial((1,)), **metadata)
    for version in (1, None, b"0.1.0"):
        with pytest.raises(ValueError, match="version must be a string"):
            OutputDocument(ExactPolynomial((1,)), version=version)


def test_kind_follows_the_payload():
    # kind is derived, read-only and no field: a document's fields are its
    # constructor's parameters.
    assert [doc.kind for doc in _docs()] == [
        "polynomial", "polynomial", "series", "type-list", "type-list", "betti-report",
        "series",
    ]
    doc = _docs()[0]
    with pytest.raises(AttributeError):
        doc.kind = "series"
    assert "kind" not in OutputDocument.__slots__


def test_json_roundtrip_every_kind():
    # A series is the one kind read back; the other three are output only.
    for doc in _docs():
        if doc.kind == "series":
            assert parse_json(render_json(doc)) == doc
        else:
            with pytest.raises(ValueError, match=f"unexpected document kind '{doc.kind}'"):
                parse_json(render_json(doc))


def test_json_schema_keys_and_string_coefficients():
    doc = OutputDocument(BETTI_2_2_1, genus=2, rank=2, degree=1)
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
    assert list(data["checks"].items()) == [
        ("tail_vanishes", True),
        ("degree_matches_2dim", True),
        ("palindromic", True),
        ("nonnegative", True),
    ]

    poly_doc = OutputDocument(ExactPolynomial((1, 4, 1)), genus=2)
    data = json.loads(render_json(poly_doc))
    assert data["truncation"] is None
    assert data["dimension"] is None
    assert data["checks"] is None


def test_json_zero_polynomial_convention():
    data = json.loads(render_json(OutputDocument(ExactPolynomial.zero())))
    assert data["coefficients"] == ["0"]


def test_json_huge_coefficients_survive():
    # The genus-50 Jacobian: (1 + t)^100, middle coefficient 30 digits long.
    report = betti_poly(50, 1, 0)
    doc = OutputDocument(report, genus=50, rank=1, degree=0)
    data = json.loads(render_json(doc))
    middle = data["coefficients"][50]
    assert middle == str(math.comb(100, 50))
    assert len(middle) == 30
    series = OutputDocument(TruncatedSeries(report.polynomial.coefficients, 100),
                            genus=50, rank=1, degree=0)
    assert parse_json(render_json(series)) == series


def test_text_rendering():
    doc = OutputDocument(
        BettiReport(ExactPolynomial((1, 4, 6, 4, 1)), 2), genus=2, rank=1, degree=0
    )
    assert render_text(doc) == "1 + 4t + 6t^2 + 4t^3 + t^4  (dim 2, checks: all pass)"

    poly_doc = OutputDocument(ExactPolynomial((1, 4, 1)), genus=2, degree=1)
    assert render_text(poly_doc) == "1 + 4t + t^2  (genus 2, deg 1)"

    series_doc = OutputDocument(TruncatedSeries((1, 4, 8, 16), 3), genus=2, rank=2)
    assert render_text(series_doc) == "1 + 4t + 8t^2 + 16t^3 + O(t^4)  (genus 2, rank 2)"


def test_text_negative_and_zero_terms():
    doc = OutputDocument(ExactPolynomial((-1, 0, 2, -3)))
    assert render_text(doc) == "-1 + 2t^2 - 3t^3"
    assert render_text(OutputDocument(ExactPolynomial.zero())) == "0"


def test_type_list_text():
    doc = OutputDocument(((2, 1, 1, 1, 0), (4, 1, 2, 1, -1)), genus=2, rank=2, degree=1)
    assert render_text(doc) == (
        "codim 2: (1;1)(1;0)\n"
        "codim 4: (1;2)(1;-1)\n"
        "(2 types; genus 2, rank 2, deg 1)"
    )


def test_latex_rendering():
    assert render_latex(OutputDocument(ExactPolynomial((1, 0, 1)))) == "1 + t^{2}"
    assert render_latex(
        OutputDocument(TruncatedSeries((1, 4), 1), genus=2, rank=1)
    ) == "1 + 4t + O(t^{2})"
    doc = OutputDocument(((2, 1, 1, 1, 0),), genus=2)
    assert render_latex(doc) == "\\left[(1;1)(1;0)\\right]_{2}"
    assert render_latex(OutputDocument((), genus=2)) == "\\varnothing"


def test_csv_rendering():
    assert render_csv(OutputDocument(ExactPolynomial((1, 4, 1)))) == "0,1\n1,4\n2,1"
    assert render_csv(OutputDocument(ExactPolynomial.zero())) == "0,0"
    assert render_csv(
        OutputDocument(TruncatedSeries((1, 0, 0, 16), 3), genus=2)
    ) == "0,1\n1,0\n2,0\n3,16"
    doc = OutputDocument(((2, 1, 1, 1, 0), (4, 1, 2, 1, -1)), genus=2, rank=2, degree=1)
    assert render_csv(doc) == "2,(1;1)(1;0)\n4,(1;2)(1;-1)"


def _pieces_text(pieces):
    return "".join(f"({r};{d})" for r, d in pieces)


def _per_piece_render(rows, fmt, genus, rank, degree):
    """A type list of (codim, ((r1, d1), ..., (rk, dk))) rows, written one piece at a time.

    The renderers as they were before type-list rows became flat: the
    reference that the per-length format strings must match byte for byte.
    """
    if fmt == "text":
        lines = [f"codim {codim}: {_pieces_text(t)}" for codim, t in rows]
        metadata = f"genus {genus}, rank {rank}, deg {degree}"
        return "\n".join(lines + [f"({len(rows)} types; {metadata})"])
    if fmt == "latex":
        texts = [f"\\left[{_pieces_text(t)}\\right]_{{{codim}}}" for codim, t in rows]
        return ",\\ ".join(texts) or "\\varnothing"
    if fmt == "csv":
        return "\n".join(f"{codim},{_pieces_text(t)}" for codim, t in rows)
    obj = {"kind": "type-list", "genus": genus, "rank": rank, "degree": degree,
           "variable": "t", "coefficients": None, "truncation": None, "dimension": None,
           "checks": None, "version": "0.1.0",
           "types": [{"codim": codim, "pieces": t} for codim, t in rows]}
    return json.dumps(obj)


def test_flat_rows_render_as_the_per_piece_renderers_did():
    # One format string per row length writes the same bytes as the renderers
    # that wrote each (rank, degree) pair, the empty list (budget 0) included.
    # Every row of type_rows also passes OutputDocument's row check, which
    # the polygons command does not run on them.
    for genus in (1, 2, 3):
        for rank in range(1, 8):
            for degree in range(-3, 4):
                for budget in (0, 5, 40):
                    rows = tuple(type_rows(rank, degree, genus, budget))
                    doc = OutputDocument(rows, genus=genus, rank=rank, degree=degree)
                    typed = [(row[0], tuple(zip(row[1::2], row[2::2]))) for row in rows]
                    for fmt in ("text", "latex", "csv", "json"):
                        assert render(doc, fmt) == _per_piece_render(
                            typed, fmt, genus, rank, degree
                        ), (genus, rank, degree, budget, fmt)


def test_render_dispatch():
    doc = OutputDocument(ExactPolynomial((1,)))
    assert render(doc, "json") == render_json(doc)
    with pytest.raises(ValueError):
        render(doc, "html")


def test_parse_json_rejects_garbage():
    with pytest.raises(ValueError):
        parse_json("[]")
    with pytest.raises(ValueError):
        parse_json(json.dumps({"kind": "poem", "genus": None, "rank": None,
                               "degree": None, "version": "0.1.0"}))
    # A missing key is a ValueError that names it, wherever it is missing.
    with pytest.raises(ValueError, match="'kind'"):
        parse_json("{}")
    series = json.loads(render_json(next(d for d in _docs() if d.kind == "series")))
    for key in ("version", "truncation"):
        data = dict(series)
        del data[key]
        with pytest.raises(ValueError, match=key):
            parse_json(json.dumps(data))
    # Coefficients are exactly the strings str() writes; int() reads all of these.
    for text in ("1_000", " 7 ", "+3", "007", "-0", "\u0663", "4\n"):
        data = json.loads(json.dumps(series))
        data["coefficients"][1] = text
        with pytest.raises(ValueError, match="coefficients not as render_json writes them"):
            parse_json(json.dumps(data))


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
        ("type-list", ("types", 0, "pieces"), [1, 2]),
        ("betti-report", ("checks",), 5),
        ("type-list", ("types",), 5),
        ("type-list", ("types", 0), 5),
        ("type-list", ("types", 0), [[1, 1], [1, 0]]),
        ("type-list", ("types", 0, "pieces"), 5),
        # A report has passed every check; "checks" holds each name, true.
        ("betti-report", ("checks",), None),
        ("betti-report", ("checks", "tail_vanishes"), False),
        ("betti-report", ("checks", "degree_matches_2dim"), False),
        ("betti-report", ("checks", "palindromic"), False),
        ("betti-report", ("checks", "nonnegative"), False),
        ("betti-report", ("checks",), ["tail_vanishes", "degree_matches_2dim", "palindromic",
                                       "nonnegative"]),
        ("betti-report", ("checks",), "all pass"),
        # A report's series was computed to 2*dim + TRUNCATION_SLACK = 20.
        # With 10, this is byte for byte the document that
        # `betti --genus 2 --rank 2 --deg 1 --truncate 10 --format json` printed
        # when that flag existed, a report whose tail nobody checked.
        ("betti-report", ("truncation",), 10),
        ("betti-report", ("truncation",), 21),
    ],
)
def test_parse_json_rejects_numbers_of_the_wrong_type(kind, path, value):
    # Coefficients are decimal strings, and the other numbers plain ints: int()
    # would have read 8.9 as 8 and True as 1.  Only the series rows reach the
    # series reader; a document of any other kind is refused by its kind,
    # whatever its values.
    data = json.loads(render_json(next(d for d in _docs() if d.kind == kind)))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    refused = None if kind == "series" else f"unexpected document kind '{kind}'"
    with pytest.raises(ValueError, match=refused):
        parse_json(json.dumps(data))
