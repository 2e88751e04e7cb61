"""OpenMetrics text exposition — renderer and strict parser.

The scrape surface for the metrics registry: :func:`render` turns a raw
registry snapshot into the `OpenMetrics text format
<https://prometheus.io/docs/specs/om/open_metrics_spec/>`_ that any
Prometheus-compatible collector understands, and :func:`parse` is the
deliberately *strict* inverse used by tests and the CI serve-smoke
lane to prove the payload is well-formed (not merely "looks like text").

Mapping from registry series to exposition families:

========== ============ ==========================================
registry    OpenMetrics  sample lines
========== ============ ==========================================
counter     counter      ``name_total{labels} value``
gauge       gauge        ``name{labels} value``
histogram   summary      ``name{quantile="0.5"} v`` (p50/p90/p99)
                         + ``name_sum`` / ``name_count``
========== ============ ==========================================

Dotted repro metric names (``comm.bytes_sent``) are sanitised to the
OpenMetrics name charset (``comm_bytes_sent``); label *values* pass
through escaped but otherwise intact, so ``rank``/``backend``/
``exchange_mode`` grouping survives the round trip.

Run as a module to validate a payload::

    python -m repro.obs.openmetrics metrics.txt   # or - for stdin
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from .metrics import percentile

__all__ = [
    "render",
    "parse",
    "sanitize_name",
    "Family",
    "Sample",
    "OpenMetricsError",
]

#: legal exposition metric/label name (OpenMetrics ABNF, sans colon for
#: labels)
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: histogram summary quantiles exposed per series
_QUANTILES = (("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99))


class OpenMetricsError(ValueError):
    """A payload violated the OpenMetrics text format."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class Sample:
    """One exposition line: ``name{labels} value``."""

    name: str
    labels: Dict[str, str]
    value: float


@dataclass
class Family:
    """One ``# TYPE`` family and the samples declared under it."""

    name: str
    type: str
    samples: List[Sample] = field(default_factory=list)

    def value(self, **labels: str) -> float:
        """The sample value with exactly this label set (KeyError if absent)."""
        want = {k: str(v) for k, v in labels.items()}
        for s in self.samples:
            if s.labels == want:
                return s.value
        raise KeyError(f"{self.name}{want!r}")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def sanitize_name(name: str) -> str:
    """Map a dotted repro metric name onto the OpenMetrics charset."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not _NAME_RE.match(out):
        out = "_" + out
    return out


def _escape_label_value(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\"", "\\\"")
        .replace("\n", "\\n")
    )


def _render_labels(labels: Tuple[Tuple[str, Any], ...],
                   extra: Tuple[Tuple[str, Any], ...] = ()) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{sanitize_name(str(k))}="{_escape_label_value(v)}"'
        for k, v in pairs
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    # integral values print without a trailing .0 — easier on the eyes
    # and still a legal OpenMetrics float
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def render(raw: Mapping[str, Mapping]) -> str:
    """Render a raw registry snapshot as OpenMetrics text.

    ``raw`` is :meth:`MetricsRegistry.raw_snapshot` output: keyed
    (name, labels-tuple) -> value/values maps under ``counters``,
    ``gauges`` and ``histograms``.  Families are emitted sorted by
    exposition name; the payload always ends with the mandatory
    ``# EOF`` terminator.
    """
    # group series by sanitised family name, preserving kind
    families: Dict[str, List[Tuple[str, Any, Any]]] = {}
    kinds: Dict[str, str] = {}
    for kind, series in (("counter", raw.get("counters", {})),
                         ("gauge", raw.get("gauges", {})),
                         ("summary", raw.get("histograms", {}))):
        for (name, labels), value in series.items():
            fam = sanitize_name(name)
            prev = kinds.setdefault(fam, kind)
            if prev != kind:
                # same sanitised name used by two metric kinds — keep
                # both by suffixing the later family
                fam = f"{fam}_{kind}"
                kinds.setdefault(fam, kind)
            families.setdefault(fam, []).append((name, labels, value))

    lines: List[str] = []
    for fam in sorted(families):
        kind = kinds[fam]
        lines.append(f"# TYPE {fam} {kind}")
        for _, labels, value in sorted(
                families[fam], key=lambda e: tuple(str(p) for p in e[1])):
            if kind == "counter":
                lines.append(
                    f"{fam}_total{_render_labels(labels)} {_fmt(value)}"
                )
            elif kind == "gauge":
                lines.append(f"{fam}{_render_labels(labels)} {_fmt(value)}")
            else:  # summary over raw histogram observations
                ordered = sorted(value)
                for qlabel, q in _QUANTILES:
                    lines.append(
                        f"{fam}"
                        f"{_render_labels(labels, (('quantile', qlabel),))}"
                        f" {_fmt(percentile(ordered, q))}"
                    )
                lines.append(
                    f"{fam}_sum{_render_labels(labels)} {_fmt(sum(ordered))}"
                )
                lines.append(
                    f"{fam}_count{_render_labels(labels)} {len(ordered)}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

def _unescape_label_value(raw: str, lineno: int) -> str:
    out: List[str] = []
    it = iter(range(len(raw)))
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\":
            if i + 1 >= len(raw):
                raise OpenMetricsError(lineno, "dangling escape in label value")
            nxt = raw[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:
                raise OpenMetricsError(
                    lineno, f"illegal escape \\{nxt} in label value"
                )
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(raw: str, lineno: int) -> Dict[str, str]:
    """Parse the ``k="v",...`` body between braces."""
    labels: Dict[str, str] = {}
    i = 0
    while i < len(raw):
        m = re.match(r"([a-zA-Z_][a-zA-Z0-9_]*)=\"", raw[i:])
        if not m:
            raise OpenMetricsError(lineno, f"malformed label at ...{raw[i:]!r}")
        name = m.group(1)
        if name in labels:
            raise OpenMetricsError(lineno, f"duplicate label {name!r}")
        i += m.end()
        # scan the quoted value honouring escapes
        val: List[str] = []
        while i < len(raw):
            ch = raw[i]
            if ch == "\\":
                if i + 1 >= len(raw):
                    raise OpenMetricsError(lineno, "dangling escape")
                val.append(raw[i:i + 2])
                i += 2
                continue
            if ch == '"':
                break
            val.append(ch)
            i += 1
        else:
            raise OpenMetricsError(lineno, "unterminated label value")
        labels[name] = _unescape_label_value("".join(val), lineno)
        i += 1  # closing quote
        if i < len(raw):
            if raw[i] != ",":
                raise OpenMetricsError(
                    lineno, f"expected ',' between labels, got {raw[i]!r}"
                )
            i += 1
            if i == len(raw):
                raise OpenMetricsError(lineno, "trailing comma in labels")
    return labels


#: sample-name suffixes each family type may expose
_ALLOWED_SUFFIXES = {
    "counter": ("_total", "_created"),
    "gauge": ("",),
    "summary": ("", "_sum", "_count", "_created"),
    "histogram": ("_bucket", "_sum", "_count", "_created"),
    "unknown": ("",),
    "info": ("_info",),
    "stateset": ("",),
}


def parse(text: str) -> Dict[str, Family]:
    """Strictly parse an OpenMetrics payload into families by name.

    Raises :class:`OpenMetricsError` on any violation: missing or
    repeated ``# TYPE`` declarations, samples outside their family,
    counter samples without the ``_total`` suffix, malformed labels,
    non-float values, text after — or a payload without — the final
    ``# EOF`` line.
    """
    families: Dict[str, Family] = {}
    seen_samples: set = set()
    eof_seen = False
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    for lineno, line in enumerate(lines, 1):
        if eof_seen:
            raise OpenMetricsError(lineno, "content after # EOF")
        if line == "# EOF":
            eof_seen = True
            continue
        if not line:
            raise OpenMetricsError(lineno, "blank line")
        if line.startswith("#"):
            m = re.match(r"^# (TYPE|HELP|UNIT) ([^ ]+)(?: (.*))?$", line)
            if not m:
                raise OpenMetricsError(lineno, f"malformed comment {line!r}")
            keyword, name = m.group(1), m.group(2)
            if not _NAME_RE.match(name):
                raise OpenMetricsError(lineno, f"illegal metric name {name!r}")
            if keyword == "TYPE":
                mtype = (m.group(3) or "").strip()
                if mtype not in _ALLOWED_SUFFIXES:
                    raise OpenMetricsError(
                        lineno, f"unknown metric type {mtype!r}"
                    )
                if name in families:
                    raise OpenMetricsError(
                        lineno, f"duplicate # TYPE for {name!r}"
                    )
                families[name] = Family(name=name, type=mtype)
            continue

        # sample line: name[{labels}] value [timestamp]
        m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})? (.+)$", line)
        if not m:
            raise OpenMetricsError(lineno, f"malformed sample {line!r}")
        sample_name, label_body = m.group(1), m.group(3)
        rest = m.group(4).split(" ")
        if len(rest) not in (1, 2):
            raise OpenMetricsError(lineno, "too many fields after value")
        try:
            value = float(rest[0])
        except ValueError:
            raise OpenMetricsError(
                lineno, f"non-float sample value {rest[0]!r}"
            ) from None

        # find the owning family by longest matching declared name
        fam = None
        for name, f in families.items():
            if sample_name == name or sample_name.startswith(name + "_"):
                suffix = sample_name[len(name):]
                if suffix in _ALLOWED_SUFFIXES[f.type]:
                    if fam is None or len(name) > len(fam.name):
                        fam = f
        if fam is None:
            raise OpenMetricsError(
                lineno,
                f"sample {sample_name!r} has no matching # TYPE family "
                "(counters must use the _total suffix)",
            )
        labels = _parse_labels(label_body, lineno) if label_body else {}
        dedup_key = (sample_name, tuple(sorted(labels.items())))
        if dedup_key in seen_samples:
            raise OpenMetricsError(
                lineno, f"duplicate sample {sample_name}{labels!r}"
            )
        seen_samples.add(dedup_key)
        fam.samples.append(Sample(sample_name, labels, value))

    if not eof_seen:
        raise OpenMetricsError(len(lines) + 1, "payload missing # EOF")
    return families


def _main(argv: List[str]) -> int:
    """Validate a payload file (``-`` for stdin); exit 0 iff well-formed."""
    if len(argv) != 1:
        print("usage: python -m repro.obs.openmetrics <file|->",
              file=sys.stderr)
        return 2
    if argv[0] == "-":
        text = sys.stdin.read()
    else:
        with open(argv[0], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        families = parse(text)
    except OpenMetricsError as exc:
        print(f"INVALID OpenMetrics payload: {exc}", file=sys.stderr)
        return 1
    nsamples = sum(len(f.samples) for f in families.values())
    print(f"OK: {len(families)} families, {nsamples} samples")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main(sys.argv[1:]))
