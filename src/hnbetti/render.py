"""Output documents and their four byte-deterministic renderings.

Every CLI result is wrapped in an OutputDocument of one of four kinds:
``polynomial``, ``series``, ``type-list``, ``betti-report``.  Renderers map a
document to text, JSON, LaTeX, or CSV.  JSON is the machine format: integer
coefficients are emitted as decimal strings so that arbitrary-precision values
survive any JSON reader, the zero polynomial is the single string "0", and
``parse_json(render_json(doc))`` reconstructs the document exactly.  The JSON
object always carries the same keys, with null for fields that do not apply
to the kind; type lists additionally carry a "types" key.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from ._version import __version__
from .exactalg import ExactPolynomial, TruncatedSeries, _Record
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
    """One renderable result plus the request metadata it answers."""

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
        if kind == "type-list":
            if genus is None:
                raise ValueError("type lists need genus metadata for codimensions")
            if not all(isinstance(t, HNType) for t in payload):
                raise ValueError("type-list payload must contain HNType entries")
        self._fill(kind, payload, genus, rank, degree, version)


def _term_string(coeffs: Sequence[int], braces: bool) -> str:
    parts = []
    for exponent, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if exponent == 0:
            body = str(mag)
        else:
            if exponent == 1:
                var = "t"
            elif braces:
                var = f"t^{{{exponent}}}"
            else:
                var = f"t^{exponent}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append((c < 0, body))
    if not parts:
        return "0"
    negative, body = parts[0]
    out = ("-" if negative else "") + body
    for negative, body in parts[1:]:
        out += (" - " if negative else " + ") + body
    return out


def _big_o(order: int, braces: bool) -> str:
    exponent = order + 1
    return f"O(t^{{{exponent}}})" if braces else f"O(t^{exponent})"


def _pieces_string(hn_type: HNType) -> str:
    return "".join(f"({r};{d})" for r, d in hn_type.pieces)


def _metadata_parts(doc: OutputDocument) -> list[str]:
    parts = []
    if doc.genus is not None:
        parts.append(f"genus {doc.genus}")
    if doc.rank is not None:
        parts.append(f"rank {doc.rank}")
    if doc.degree is not None:
        parts.append(f"deg {doc.degree}")
    return parts


def _checks_word(checks: Optional[BettiChecks]) -> str:
    if checks is None:
        return "skipped"
    failed = checks.failed()
    return "FAILED " + ", ".join(failed) if failed else "all pass"


def _with_footer(body: str, parts: list[str]) -> str:
    if not parts:
        return body
    return f"{body}  ({', '.join(parts)})"


def render_text(doc: OutputDocument) -> str:
    if doc.kind == "polynomial":
        body = _term_string(doc.payload.coefficients, braces=False)
        return _with_footer(body, _metadata_parts(doc))
    if doc.kind == "series":
        series = doc.payload
        body = _term_string(series.coefficients, braces=False)
        tail = _big_o(series.truncation_order, braces=False)
        body = tail if body == "0" else f"{body} + {tail}"
        return _with_footer(body, _metadata_parts(doc))
    if doc.kind == "betti-report":
        report = doc.payload
        body = _term_string(report.polynomial.coefficients, braces=False)
        return (
            f"{body}  (dim {report.moduli_dimension}, "
            f"checks: {_checks_word(report.checks)})"
        )
    lines = [
        f"codim {stratum_codim(t, doc.genus)}: {_pieces_string(t)}"
        for t in doc.payload
    ]
    lines.append(f"({len(doc.payload)} types; {', '.join(_metadata_parts(doc))})")
    return "\n".join(lines)


def render_latex(doc: OutputDocument) -> str:
    if doc.kind == "polynomial":
        return _term_string(doc.payload.coefficients, braces=True)
    if doc.kind == "series":
        series = doc.payload
        body = _term_string(series.coefficients, braces=True)
        tail = _big_o(series.truncation_order, braces=True)
        return tail if body == "0" else f"{body} + {tail}"
    if doc.kind == "betti-report":
        return _term_string(doc.payload.polynomial.coefficients, braces=True)
    if not doc.payload:
        return "\\varnothing"
    return ",\\ ".join(
        f"\\left[{_pieces_string(t)}\\right]_{{{stratum_codim(t, doc.genus)}}}"
        for t in doc.payload
    )


def render_csv(doc: OutputDocument) -> str:
    if doc.kind == "type-list":
        return "\n".join(
            f"{stratum_codim(t, doc.genus)},{_pieces_string(t)}" for t in doc.payload
        )
    if doc.kind == "polynomial":
        coeffs = doc.payload.coefficients or (0,)
    elif doc.kind == "series":
        coeffs = doc.payload.coefficients
    else:
        coeffs = doc.payload.polynomial.coefficients or (0,)
    return "\n".join(f"{i},{c}" for i, c in enumerate(coeffs))


def _coefficient_strings(coeffs: Sequence[int]) -> list[str]:
    if not coeffs:
        return ["0"]
    return [str(c) for c in coeffs]


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
    if doc.kind == "polynomial":
        obj["coefficients"] = _coefficient_strings(doc.payload.coefficients)
    elif doc.kind == "series":
        obj["coefficients"] = _coefficient_strings(doc.payload.coefficients)
        obj["truncation"] = doc.payload.truncation_order
    elif doc.kind == "betti-report":
        report = doc.payload
        obj["coefficients"] = _coefficient_strings(report.polynomial.coefficients)
        obj["truncation"] = report.truncation_used
        obj["dimension"] = report.moduli_dimension
        if report.checks is not None:
            checks = report.checks
            obj["checks"] = {name: getattr(checks, name) for name in checks.__slots__}
    else:
        obj["types"] = [
            {
                "codim": stratum_codim(t, doc.genus),
                "pieces": [[r, d] for r, d in t.pieces],
            }
            for t in doc.payload
        ]
    return json.dumps(obj)


def _coefficients(strings: object) -> tuple[int, ...]:
    # int() would also take a float or a bool, and change the value silently.
    if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
        raise ValueError("coefficients must be a list of decimal strings")
    return tuple(int(s) for s in strings)


def _integer(value: object, what: str) -> int:
    if type(value) is not int:  # bool is an int too
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


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
        payload = TruncatedSeries(coeffs, _integer(data["truncation"], "truncation"))
    elif kind == "betti-report":
        checks = data["checks"]
        payload = BettiReport(
            polynomial=ExactPolynomial(_coefficients(data["coefficients"])),
            moduli_dimension=_integer(data["dimension"], "dimension"),
            truncation_used=_integer(data["truncation"], "truncation"),
            checks=None if checks is None else BettiChecks(**checks),
        )
    elif kind == "type-list":
        payload = tuple(
            HNType([[_integer(x, "piece entry") for x in piece] for piece in entry["pieces"]])
            for entry in data["types"]
        )
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
