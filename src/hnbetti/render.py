"""Output documents and their four byte-deterministic renderings.

Every CLI result is wrapped in an OutputDocument of one of four kinds:
``polynomial``, ``series``, ``type-list``, ``betti-report``.  Renderers map a
document to text, JSON, LaTeX, or CSV.  JSON is the machine format: integer
coefficients are emitted as decimal strings so that arbitrary-precision values
survive any JSON reader, the zero polynomial is the single string "0", and
``parse_json(render_json(doc))`` reconstructs the document exactly.  The JSON
object always carries the same keys, with null for fields that do not apply
to the kind; type lists additionally carry a "types" key.

Each renderer reads a polynomial, series or Betti-report document through one
view, its coefficients and its series order or None.  A type list's payload is
a tuple of (codimension, HNType) rows, as strata.enumerate_types returns them:
the renderers write the codimensions they are given and compute none.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional, Sequence

from ._version import __version__
from .exactalg import ExactPolynomial, TruncatedSeries, _Record, _check_int
from .hnrec import BettiChecks, BettiReport
from .strata import HNType, stratum_codim

KINDS = ("polynomial", "series", "type-list", "betti-report")

_PAYLOAD_TYPES = {
    "polynomial": ExactPolynomial,
    "series": TruncatedSeries,
    "type-list": tuple,
    "betti-report": BettiReport,
}


class OutputDocument(_Record):
    """One renderable result plus the request metadata it answers.

    genus, rank and degree are ints or None, and version is a string.  A type
    list needs its genus, which parse_json checks each stated codimension
    against.
    """

    __slots__ = ("kind", "payload", "genus", "rank", "degree", "version")

    def __init__(
        self,
        kind: str,
        payload: object,
        genus: Optional[int] = None,
        rank: Optional[int] = None,
        degree: Optional[int] = None,
        version: str = __version__,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown document kind {kind!r}")
        if not isinstance(payload, _PAYLOAD_TYPES[kind]):
            raise ValueError(f"kind {kind!r} cannot carry a {type(payload).__name__}")
        if not isinstance(version, str):
            raise ValueError(f"version must be a string, got {version!r}")
        for name, value in (("genus", genus), ("rank", rank), ("degree", degree)):
            if value is not None:
                _check_int(name, value)
        if kind == "type-list":
            if genus is None:
                raise ValueError("type lists need genus metadata for codimensions")
            for row in payload:
                if not (
                    type(row) is tuple and len(row) == 2
                    and type(row[0]) is int and type(row[1]) is HNType
                ):
                    raise ValueError(f"type-list rows must be (codim, HNType) pairs, got {row!r}")
        self._fill(kind, payload, genus, rank, degree, version)


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


def _type_rows(doc: OutputDocument) -> Iterator[tuple[int, str]]:
    """Each row of a type list as (codimension, "(r;d)(r;d)..."), in one pass.

    The text of each distinct piece is built once per document.
    """
    words: dict[tuple[int, int], str] = {}
    for codim, t in doc.payload:
        parts = []
        for piece in t.pieces:
            word = words.get(piece)
            if word is None:
                word = words[piece] = f"({piece[0]};{piece[1]})"
            parts.append(word)
        yield codim, "".join(parts)


def _checks_word(checks: Optional[BettiChecks]) -> str:
    if checks is None:
        return "skipped"
    failed = checks.failed()
    return "FAILED " + ", ".join(failed) if failed else "all pass"


def render_text(doc: OutputDocument) -> str:
    metadata = ", ".join(
        f"{label} {value}"
        for label, value in (("genus", doc.genus), ("rank", doc.rank), ("deg", doc.degree))
        if value is not None
    )
    if doc.kind == "type-list":
        lines = [f"codim {codim}: {text}" for codim, text in _type_rows(doc)]
        return "\n".join(lines + [f"({len(doc.payload)} types; {metadata})"])
    body = _expression(doc, braces=False)
    if doc.kind == "betti-report":
        report = doc.payload
        return (
            f"{body}  (dim {report.moduli_dimension}, "
            f"checks: {_checks_word(report.checks)})"
        )
    return f"{body}  ({metadata})" if metadata else body


def render_latex(doc: OutputDocument) -> str:
    if doc.kind != "type-list":
        return _expression(doc, braces=True)
    rows = [f"\\left[{text}\\right]_{{{codim}}}" for codim, text in _type_rows(doc)]
    return ",\\ ".join(rows) or "\\varnothing"


def render_csv(doc: OutputDocument) -> str:
    if doc.kind == "type-list":
        rows = [f"{codim},{text}" for codim, text in _type_rows(doc)]
    else:
        coeffs, _ = _coefficients_and_order(doc)
        rows = [f"{i},{c}" for i, c in enumerate(coeffs or (0,))]
    return "\n".join(rows)


def render_json(doc: OutputDocument) -> str:
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
        # json writes the (rank, degree) tuples as arrays.
        obj["types"] = [{"codim": codim, "pieces": t.pieces} for codim, t in doc.payload]
        return json.dumps(obj, check_circular=False)
    coeffs, order = _coefficients_and_order(doc)
    obj["coefficients"] = [str(c) for c in coeffs] or ["0"]
    obj["truncation"] = order
    if doc.kind == "betti-report":
        report = doc.payload
        obj["truncation"] = report.truncation_used
        obj["dimension"] = report.moduli_dimension
        if report.checks is not None:
            checks = report.checks
            obj["checks"] = {name: getattr(checks, name) for name in checks.__slots__}
    return json.dumps(obj, check_circular=False)


def _coefficients(strings: object) -> tuple[int, ...]:
    # int() would also take a float or a bool, and change the value silently.
    if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
        raise ValueError("coefficients must be a list of decimal strings")
    return tuple(int(s) for s in strings)


def parse_json(text: str) -> OutputDocument:
    """Inverse of render_json: rebuild the document, validating as it goes."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("document must be a JSON object")
    kind = data["kind"]
    if kind == "polynomial":
        payload: object = ExactPolynomial(_coefficients(data["coefficients"]))
    elif kind == "series":
        coeffs = _coefficients(data["coefficients"])
        payload = TruncatedSeries(coeffs, _check_int("truncation", data["truncation"]))
    elif kind == "betti-report":
        checks = data["checks"]
        payload = BettiReport(
            polynomial=ExactPolynomial(_coefficients(data["coefficients"])),
            moduli_dimension=data["dimension"],
            truncation_used=data["truncation"],
            checks=None if checks is None else BettiChecks(**checks),
        )
    elif kind == "type-list":
        rows = []
        for entry in data["types"]:
            hn_type = HNType(entry["pieces"])
            # Rendering writes the codimension it is given, so a wrong one
            # would be passed on without a word.
            codim = stratum_codim(hn_type, data["genus"])
            if _check_int("codim", entry["codim"]) != codim:
                raise ValueError(
                    f"type {hn_type.pieces} has codimension {codim}, not {entry['codim']}"
                )
            rows.append((codim, hn_type))
        payload = tuple(rows)
    else:
        raise ValueError(f"unknown document kind {kind!r}")
    return OutputDocument(
        kind=kind,
        payload=payload,
        genus=data["genus"],
        rank=data["rank"],
        degree=data["degree"],
        version=data["version"],
    )


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
