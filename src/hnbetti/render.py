"""Output documents and their four byte-deterministic renderings.

Every CLI result is wrapped in an OutputDocument, whose kind its payload's
class fixes: ``polynomial``, ``series``, ``type-list`` or ``betti-report``.
Renderers map a document to text, JSON, LaTeX, or CSV.  JSON is the machine
format: integer coefficients are emitted as decimal strings so that
arbitrary-precision values survive any JSON reader, and the zero polynomial
is the single string "0".
The JSON object always carries the same keys, with null for fields that do
not apply to the kind; type lists additionally carry a "types" key.

A Betti report has passed every structural check (hnrec.CHECK_NAMES), so its
text says "checks: all pass" and its JSON "checks" object holds each check's
name, true.  Its series was computed to order 2*dim + hnrec.TRUNCATION_SLACK,
which its JSON "truncation" states.

The program reads back one kind, the series a cache file holds: parse_json
rebuilds a series document from exactly the text render_json writes for it,
and refuses every other kind and every other text.  Polynomials, type lists
and Betti reports are output only.

Each renderer reads a polynomial, series or Betti-report document through one
view, its coefficients and its series order or None.  A type list's payload is
a tuple of flat int rows (codim, r1, d1, ..., rk, dk), as strata.type_rows
returns them: the renderers write the codimensions they are given and compute
none.  All four write their rows through one writer, _rows, which builds one
%-format string per row length in the list; each row then costs one C-level
% call with the format string for its length.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ._base import _Record, _check_int
from . import __version__

# Each kind, by the class name of its payload.  The name, not the class, is
# looked up, so that a document loads no layer: a type list loads neither
# exactalg nor hnrec.
_KINDS = {
    "ExactPolynomial": "polynomial",
    "TruncatedSeries": "series",
    "tuple": "type-list",
    "BettiReport": "betti-report",
}


class OutputDocument(_Record):
    """One renderable result plus the request metadata it answers.

    The payload is an ExactPolynomial, a TruncatedSeries, a tuple of type-list
    rows or a BettiReport, and its class fixes the document's kind; any other
    payload is a ValueError.  genus, rank and degree are ints or None, and
    version is a string.  A type list needs its genus, on which its
    codimensions depend, and its rows are tuples of ints (not bools) of odd
    length >= 3, (codim, r1, d1, ..., rk, dk); the pieces are written as
    given, not checked to form a type.
    """

    __slots__ = ("payload", "genus", "rank", "degree", "version")

    def __init__(
        self,
        payload: object,
        genus: Optional[int] = None,
        rank: Optional[int] = None,
        degree: Optional[int] = None,
        version: str = __version__,
    ) -> None:
        kind = _KINDS.get(type(payload).__name__)
        if kind is None:
            raise ValueError(f"no document kind carries a {type(payload).__name__}")
        if not isinstance(version, str):
            raise ValueError(f"version must be a string, got {version!r}")
        for name, value in (("genus", genus), ("rank", rank), ("degree", degree)):
            if value is not None:
                _check_int(name, value)
        if kind == "type-list":
            if genus is None:
                raise ValueError("type lists need genus metadata for codimensions")
            for row in payload:
                if not (type(row) is tuple and len(row) % 2 and len(row) > 1
                        and all(type(entry) is int for entry in row)):
                    raise ValueError(
                        f"type-list rows must be int tuples (codim, r1, d1, ..., rk, dk), got {row!r}"
                    )
        self._fill(payload, genus, rank, degree, version)

    @property
    def kind(self) -> str:
        """polynomial, series, type-list or betti-report, as the payload's class fixes it."""
        return _KINDS[type(self.payload).__name__]


def _term_string(coeffs: Sequence[int], braces: bool) -> str:
    terms = []
    for exponent, c in enumerate(coeffs):
        if c == 0:
            continue
        if exponent == 0:
            var = ""
        elif exponent == 1:
            var = "t"
        else:
            var = f"t^{{{exponent}}}" if braces else f"t^{exponent}"
        magnitude = "" if abs(c) == 1 and var else abs(c)
        sign = (" - " if c < 0 else " + ") if terms else ("-" if c < 0 else "")
        terms.append(f"{sign}{magnitude}{var}")
    return "".join(terms) or "0"


def _coefficients_and_order(doc: OutputDocument) -> tuple[Sequence[int], Optional[int]]:
    """A polynomial, series or Betti report: its coefficients, and its series order or None."""
    payload = doc.payload
    if doc.kind == "series":
        return payload.coefficients, payload.truncation_order
    if doc.kind == "betti-report":
        payload = payload.polynomial
    return payload.coefficients, None


def _expression(doc: OutputDocument, braces: bool) -> str:
    """The document's polynomial or series, a series ending in its O term."""
    coeffs, order = _coefficients_and_order(doc)
    body = _term_string(coeffs, braces)
    if order is None:
        return body
    exponent = f"{{{order + 1}}}" if braces else order + 1
    tail = f"O(t^{exponent})"
    return tail if body == "0" else f"{body} + {tail}"


def _rows(rows: Sequence[tuple], build: Callable[[int], str]) -> list[str]:
    """Each row filled into build(k), the %-format string for a row of k pieces."""
    formats = {n: build(n // 2) for n in set(map(len, rows))}
    return [formats[len(row)] % row for row in rows]


def render_text(doc: OutputDocument) -> str:
    metadata = ", ".join(
        f"{label} {value}"
        for label, value in (("genus", doc.genus), ("rank", doc.rank), ("deg", doc.degree))
        if value is not None
    )
    if doc.kind == "type-list":
        lines = _rows(doc.payload, lambda k: "codim %d: " + "(%d;%d)" * k)
        return "\n".join(lines + [f"({len(doc.payload)} types; {metadata})"])
    body = _expression(doc, braces=False)
    if doc.kind == "betti-report":
        return f"{body}  (dim {doc.payload.moduli_dimension}, checks: all pass)"
    return f"{body}  ({metadata})" if metadata else body


def render_latex(doc: OutputDocument) -> str:
    if doc.kind != "type-list":
        return _expression(doc, braces=True)
    # The codimension is written last, so each row is rotated to end with it.
    rows = _rows([row[1:] + row[:1] for row in doc.payload],
                 lambda k: "\\left[" + "(%d;%d)" * k + "\\right]_{%d}")
    return ",\\ ".join(rows) or "\\varnothing"


def render_csv(doc: OutputDocument) -> str:
    if doc.kind == "type-list":
        rows = _rows(doc.payload, lambda k: "%d," + "(%d;%d)" * k)
    else:
        coeffs, _ = _coefficients_and_order(doc)
        rows = [f"{i},{c}" for i, c in enumerate(coeffs or (0,))]
    return "\n".join(rows)


def render_json(doc: OutputDocument) -> str:
    import json  # here, not at the top: only render_json and parse_json use it

    obj = {
        "kind": doc.kind,
        "genus": doc.genus,
        "rank": doc.rank,
        "degree": doc.degree,
        "variable": "t",
        "coefficients": None,
        "truncation": None,
        "dimension": None,
        "checks": None,
        "version": doc.version,
    }
    if doc.kind == "type-list":
        # "types" is the last key: each row is written as json.dumps would
        # write {"codim": codim, "pieces": [[r1, d1], ...]}, and the list is
        # spliced in before the closing brace of the other keys.
        types = ", ".join(_rows(
            doc.payload,
            lambda k: '{"codim": %d, "pieces": [' + ", ".join(["[%d, %d]"] * k) + "]}",
        ))
        return f'{json.dumps(obj)[:-1]}, "types": [{types}]}}'
    coeffs, order = _coefficients_and_order(doc)
    obj["coefficients"] = [str(c) for c in coeffs] or ["0"]
    obj["truncation"] = order
    if doc.kind == "betti-report":
        # hnrec is loaded already: it made the payload.
        from .hnrec import CHECK_NAMES, TRUNCATION_SLACK

        dim = doc.payload.moduli_dimension
        obj["truncation"] = 2 * dim + TRUNCATION_SLACK
        obj["dimension"] = dim
        obj["checks"] = dict.fromkeys(CHECK_NAMES, True)
    return json.dumps(obj, check_circular=False)


def parse_json(text: str) -> OutputDocument:
    """Read back a series document, exactly as render_json writes it.

    A series is the one document the program reads back: ssseries and
    divseries print it with --format json, and a cache file holds it.  Every
    other document raises ValueError: another kind, a missing key or a value
    of the wrong shape (which the lookups below meet as a KeyError, TypeError
    or OverflowError, and report as one), any key or value that render_json
    would not write for the series it holds, and JSON nested too deeply for
    the parser's recursion, which raises RecursionError.
    """
    import json
    from .exactalg import TruncatedSeries

    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("malformed document: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("document must be a JSON object")
    try:
        if data["kind"] != "series":
            raise ValueError(f"unexpected document kind {data['kind']!r}")
        # int() also reads 8.9, true, "+3", "007" and "-0", which render_json
        # never writes: the comparison below refuses them.
        coeffs = tuple(int(c) for c in data["coefficients"])
        doc = OutputDocument(
            TruncatedSeries(coeffs, data["truncation"]),
            genus=data["genus"],
            rank=data["rank"],
            degree=data["degree"],
            version=data["version"],
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed document: {exc!r}") from None
    written = json.loads(render_json(doc))
    if written != data:
        keys = sorted(k for k in {**written, **data} if written.get(k, ()) != data.get(k, ()))
        raise ValueError(f"{', '.join(keys)} not as render_json writes them")
    return doc


RENDERERS = {
    "text": render_text,
    "json": render_json,
    "latex": render_latex,
    "csv": render_csv,
}


def render(doc: OutputDocument, fmt: str) -> str:
    try:
        renderer = RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown output format {fmt!r}") from None
    return renderer(doc)
