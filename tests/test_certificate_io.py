"""Certificate I/O: the block writer and the chunked reader.

The writer (certify._write_json) must give the bytes of
json.dumps(to_payload()), and the reader (cli._load_payload) must give what
json.loads and _parse_leaf_rows give, or raise what the plain path raises;
both must do it in memory bounded by a small multiple of the file size.
"""

import json
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from starcc import certify, cli
from starcc.certify import (
    Certificate,
    LocalUniquenessCertificate,
    MalformedCertificate,
    RunConfig,
    _parse_leaf_rows,
    certify_inequality,
    certify_local_uniqueness,
)
from starcc.kernel import _BLOCK


def _plain_load(path):
    """The reader before rows were read in chunks: json.load of the whole
    file, the rows left as lists."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedCertificate(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise MalformedCertificate(f"{path}: missing 'kind' discriminator")
    return payload


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # compared by type and message
        return None, (type(exc), str(exc))


def _same_arrays(got, want) -> bool:
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want))


def _check_reader(path, cls):
    """cli._load_payload and then cls.from_payload against the plain path."""
    got, got_err = _outcome(lambda: cli._load_payload(path))
    want, want_err = _outcome(lambda: _plain_load(path))
    assert got_err == want_err
    if want_err is None:
        assert list(got) == list(want)
        for key, value in got.items():
            if type(value) is tuple:  # rows the reader parsed
                assert key in ("leaves", "annulus")
                assert _same_arrays(value, _parse_leaf_rows(want[key]))
            else:
                assert json.dumps(value) == json.dumps(want[key])
    cert, cert_err = _outcome(lambda: cls.from_payload(got))
    ref, ref_err = _outcome(lambda: cls.from_payload(want))
    assert cert_err == ref_err
    if ref_err is None:
        assert json.dumps(cert._payload(None)) == json.dumps(ref._payload(None))
        assert _same_arrays(cert._leaves(), ref._leaves())


# ---------------------------------------------------------------------------
# the reader against json.loads, on mutated real certificates


def _first_rows(cert, n):
    return replace(cert, **{key: getattr(cert, key)[:n] for key in cert._LEAVES})


@pytest.fixture(scope="module")
def texts():
    # the first 300 of J16's 4904 leaves and of the 4276 annulus leaves,
    # to keep each example cheap; the reader never checks a certificate
    j16 = _first_rows(certify_inequality("J16", max_box_width=0.1), 300)
    local = _first_rows(certify_local_uniqueness(), 300)
    return {
        "J5": (certify_inequality("J5", max_box_width=0.05).to_json(), Certificate),
        "J16": (j16.to_json(), Certificate),
        "local": (local.to_json(), LocalUniquenessCertificate),
    }


def _rows_key(doc):
    return "leaves" if "leaves" in doc else "annulus"


def _whitespace(text, draw):
    # after or before structural characters, between tokens (a few sit
    # inside header strings, which changes those strings for both readers)
    spots = [m.start() for m in re.finditer(r"[\[\]{},:]", text)]
    for at in sorted(draw(st.lists(st.sampled_from(spots), min_size=1, max_size=6)),
                     reverse=True):
        at += draw(st.integers(0, 1))
        text = text[:at] + draw(st.text(" \t\n\r", min_size=1, max_size=3)) + text[at:]
    return text


def _second_rows_key(text, draw):
    # the reader keeps the last of two equal keys, as json.loads does
    doc = json.loads(text)
    rows = doc[_rows_key(doc)]
    key = [_rows_key(doc), "leaves", "annulus"][draw(st.integers(0, 2))]
    other = [rows[1:], rows[:1], [], rows[:1] + [["0x1p+0"]]][draw(st.integers(0, 3))]
    extra = f"{json.dumps(key)}: {json.dumps(other)}"
    if draw(st.booleans()):
        return text[:-1] + ", " + extra + "}"
    return "{" + extra + ", " + text[1:]


def _nested_rows(text, draw):
    # rows one level down are not the certificate's rows
    doc = json.loads(text)
    inner = json.dumps(doc[_rows_key(doc)][: draw(st.integers(0, 5))])
    if '"stats": {' in text:
        return text.replace('"stats": {', '"stats": {"leaves": ' + inner + ", ", 1)
    return '{"nested": {"annulus": ' + inner + "}, " + text[1:]


def _escaped_zero(text, draw):
    # the "0" that opens a hex string, as the escape \u0030: the same string
    zeros = [m.start() for m in re.finditer(r'(?<=")0x', text)]
    at = draw(st.sampled_from(zeros))
    return text[:at] + "\\u0030" + text[at + 1:]


def _truncated(text, draw):
    return text[: draw(st.integers(0, len(text) - 1))]


def _trailing(text, draw):
    return text + draw(st.sampled_from([" ", "\n", "x", "}", "]", "{}", ", []", "\x00"]))


def _seventh_entry(text, draw):
    doc = json.loads(text)
    rows = doc[_rows_key(doc)]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    row.append(row[0])
    return json.dumps(doc)


def _stray_character(text, draw):
    # a separator, bracket or quote dropped, doubled or added anywhere
    at = draw(st.integers(0, len(text) - 1))
    if draw(st.booleans()):
        return text[:at] + text[at + 1:]
    return text[:at] + draw(st.sampled_from(list(',:[]{}" \n'))) + text[at:]


# in the order they apply: those that edit the payload, then those that
# edit the text
_MUTATIONS = [_seventh_entry, _second_rows_key, _nested_rows, _escaped_zero,
              _whitespace, _stray_character, _trailing, _truncated]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_chunked_reader_equals_json_loads(texts, tmp_path, data):
    name = data.draw(st.sampled_from(sorted(texts)), label="piece")
    text, cls = texts[name]
    chosen = data.draw(st.sets(st.sampled_from(_MUTATIONS), max_size=3), label="mutations")
    for mutate in _MUTATIONS:
        if mutate in chosen:
            text = mutate(text, data.draw)
    path = tmp_path / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    rows = data.draw(st.integers(1, 4), label="chunk rows")
    with mock.patch.object(cli, "_CHUNK_ROWS", rows):
        _check_reader(path, cls)


def _fixed(mutate, *values):
    """mutate with its draws answered by values, in order."""
    return lambda text: mutate(text, lambda strategy, label=None, it=iter(values): next(it))


def _key_edit(old, new):
    return lambda text: text.replace(old, new, 1)


# each mutation, and edits of the object's own syntax, at fixed places
_EDITS = {
    "whitespace-after": lambda text: re.sub(r"([\[\]{},:])", "\\1 \n\t", text),
    "whitespace-before": lambda text: re.sub(r"([\[\]{},:])", "\r\\1", text),
    "second-rows-key-first": _fixed(_second_rows_key, 0, 0, False),
    "second-rows-key-last": _fixed(_second_rows_key, 0, 0, True),
    "one-row-second-rows-key-last": _fixed(_second_rows_key, 0, 1, True),
    "empty-second-rows-key-last": _fixed(_second_rows_key, 0, 2, True),
    "bad-second-rows-key-first": _fixed(_second_rows_key, 0, 3, False),
    "other-rows-key-first": _fixed(_second_rows_key, 2, 1, False),
    "nested-rows": _fixed(_nested_rows, 3),
    "escaped-zero-in-a-hex-string": lambda text: text.replace('["0x', '["\\u0030x', 2).replace(
        '["\\u0030x', '["0x', 1),
    "truncated-in-the-rows": lambda text: text[: len(text) * 3 // 4],
    "truncated-by-one": lambda text: text[:-1],
    "trailing-text": lambda text: text + " x",
    "seventh-entry-in-row-0": _fixed(_seventh_entry, 0),
    "seventh-entry-in-row-2": _fixed(_seventh_entry, 2),
    "seventh-entry-in-the-last-row": lambda text: (
        text[: text.rindex("]]")] + ', "0x1p+0"' + text[text.rindex("]]"):]),
    "comma-before-the-brace": lambda text: text[:-1] + ", }",
    "no-colon": _key_edit('"kind": ', '"kind" '),
    "control-character-in-a-key": _key_edit('"kind"', '"ki\tnd"'),
    "no-kind": _key_edit('"kind"', '"kin"'),
    "a-list": lambda text: "[" + text + "]",
}


@pytest.mark.parametrize("edit", _EDITS.values(), ids=_EDITS)
@pytest.mark.parametrize("name", ["J5", "J16", "local"])
def test_chunked_reader_equals_json_loads_on_fixed_edits(texts, tmp_path, name, edit):
    text, cls = texts[name]
    path = tmp_path / f"{name}.json"
    path.write_text(edit(text), encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    with mock.patch.object(cli, "_CHUNK_ROWS", 2):
        _check_reader(path, cls)


def test_chunked_reader_cuts_a_real_file_into_chunks(tmp_path):
    # the rows come back as arrays, from several pieces, equal to the
    # plain path's, and the certificate round-trips
    cert = certify_inequality("J16", max_box_width=0.1)
    text, cls = cert.to_json(), Certificate
    path = tmp_path / "J16.json"
    path.write_text(text, encoding="utf-8")
    calls = []
    real = cli._parse_leaf_rows
    with mock.patch.object(cli, "_CHUNK_ROWS", 1000), \
            mock.patch.object(cli, "_parse_leaf_rows",
                              lambda rows: calls.append(len(rows)) or real(rows)):
        payload = cli._load_payload(path)
    assert type(payload["leaves"]) is tuple
    assert sum(calls) == len(json.loads(text)["leaves"]) and len(calls) >= 3, calls
    _check_reader(path, cls)
    assert cls.from_payload(payload).to_json() == text


# ---------------------------------------------------------------------------
# the writer: the bytes of json.dumps(to_payload()) at every block edge


@pytest.fixture(scope="module")
def small_certs():
    return (certify_inequality("J4", max_box_width=0.05), certify_local_uniqueness())


@pytest.mark.parametrize("n", [0, 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("which", [0, 1], ids=["region", "local"])
def test_block_writer_is_json_dumps_at_block_edges(small_certs, n, which):
    cert = small_certs[which]
    leaves = {key: np.resize(getattr(cert, key), n) for key in cert._LEAVES}
    cert = replace(cert, **leaves)
    text = cert.to_json()
    assert text == json.dumps(cert.to_payload())
    assert len(json.loads(text)[cert._ROWS]) == n


# ---------------------------------------------------------------------------
# memory: the width-0.02 J15 piece (59 981 leaves, 7.6 MB), under tracemalloc


@pytest.fixture(scope="module")
def j15_fine():
    return certify_inequality("J15", max_box_width=0.02, truncation=10.0)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_the_fine_j15_piece_peaks_below_1_5_times_its_size(
        j15_fine, tmp_path, monkeypatch):
    # the pool job that writes the piece, with the certificate at hand
    monkeypatch.setattr(certify, "certify_inequality", lambda *a, **k: j15_fine)
    cfg = RunConfig(max_box_width=0.02, truncation=10.0, output_dir=str(tmp_path))
    peak = _traced_peak(lambda: certify._certify_piece("J15", cfg))
    size = (tmp_path / "J15.json").stat().st_size
    assert size > 7_000_000
    assert peak <= 1.5 * size, f"peak {peak / size:.2f} times the file"


def test_reading_the_fine_j15_piece_peaks_below_2_5_times_its_size(
        j15_fine, tmp_path):
    path = tmp_path / "J15.json"
    path.write_text(j15_fine.to_json(), encoding="utf-8")
    size = path.stat().st_size
    got = []
    peak = _traced_peak(
        lambda: got.append(Certificate.from_payload(cli._load_payload(path))))
    assert peak <= 2.5 * size, f"peak {peak / size:.2f} times the file"
    assert _same_arrays(got[0]._leaves(), j15_fine._leaves())
