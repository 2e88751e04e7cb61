"""Property test: OpenMetrics ``render -> parse`` is lossless.

:func:`repro.obs.openmetrics.render` writes values with ``repr`` (so
``float(repr(f)) == f`` exactly) and escapes label values; the strict
:func:`~repro.obs.openmetrics.parse` must therefore recover every
counter/gauge series bit-for-bit and every histogram's sum/count —
over random metric names (including dotted ones that get sanitised),
random label sets, and label values exercising the escaping edge cases
(backslash, quote, newline, unicode).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.openmetrics import parse, render, sanitize_name

# raw registry names may be dotted/dashed — sanitisation maps them onto
# the exposition charset
_raw_name = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_.:-]{0,12}",
                          fullmatch=True)
_label_name = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,8}",
                            fullmatch=True)
# any printable-ish text, surrogates excluded; escaping must cope
_label_value = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
_value = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _labelsets(draw, forbid=()):
    names = draw(st.lists(
        _label_name.filter(lambda n: n not in forbid),
        unique=True, max_size=3,
    ))
    return tuple((n, draw(_label_value)) for n in sorted(names))


@st.composite
def _series(draw, value_strategy, forbid_labels=()):
    """Unique (name, labels) -> value map, collision-free *after*
    name sanitisation (two raw names may sanitise to one family)."""
    out = {}
    seen = set()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        name = draw(_raw_name)
        labels = draw(_labelsets(forbid=forbid_labels))
        key = (sanitize_name(name),
               tuple((k, v) for k, v in labels))
        if key in seen:
            continue
        seen.add(key)
        out[(name, labels)] = draw(value_strategy)
    return out


def _find(family, labels):
    want = {k: v for k, v in labels}
    for s in family.samples:
        if s.labels == want:
            return s.value
    raise AssertionError(f"no sample with labels {want!r} in "
                         f"{family.name}")


@settings(max_examples=60)
@given(gauges=_series(_value))
def test_gauge_roundtrip(gauges):
    families = parse(render({"gauges": gauges}))
    for (name, labels), value in gauges.items():
        fam = families[sanitize_name(name)]
        assert fam.type == "gauge"
        assert _find(fam, labels) == float(value)


@settings(max_examples=60)
@given(counters=_series(_value))
def test_counter_roundtrip(counters):
    families = parse(render({"counters": counters}))
    for (name, labels), value in counters.items():
        fam = families[sanitize_name(name)]
        assert fam.type == "counter"
        # counter samples carry the mandatory _total suffix
        want = {k: v for k, v in labels}
        values = [s.value for s in fam.samples
                  if s.name.endswith("_total") and s.labels == want]
        assert values == [float(value)]


@settings(max_examples=40)
@given(histograms=_series(
    st.lists(_value, min_size=1, max_size=5),
    forbid_labels=("quantile",),  # render injects this label itself
))
def test_histogram_sum_count_roundtrip(histograms):
    families = parse(render({"histograms": histograms}))
    for (name, labels), values in histograms.items():
        fam = families[sanitize_name(name)]
        assert fam.type == "summary"
        want = {k: v for k, v in labels}
        by_name = {s.name: s.value for s in fam.samples
                   if s.labels == want}
        base = sanitize_name(name)
        # sum is computed over the *sorted* observations in render, so
        # reproduce the identical float addition order here
        assert by_name[f"{base}_sum"] == sum(sorted(values))
        assert by_name[f"{base}_count"] == len(values)


@pytest.mark.parametrize("evil", [
    'back\\slash', 'quo"te', 'new\nline', 'both\\"and\n',
    'trailing\\', 'unicode-日本語', '',
])
def test_escaping_edge_cases_roundtrip(evil):
    raw = {"gauges": {("g", (("label", evil),)): 1.5}}
    families = parse(render(raw))
    assert families["g"].value(label=evil) == 1.5
