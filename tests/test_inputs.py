"""Malformed input files: every kind of file a run reads exits with its
documented code and one JSON error line, never with a traceback."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedprompt import inputs
from fedprompt.backends import remote
from fedprompt.backends.base import GENERATION_TAGS
from fedprompt.cli import CATEGORY_BY_CODE, main
from fedprompt.errors import ConfigError
from fedprompt.inputs import BUNDLED, read_jsonl
from fedprompt.templates import default_templates
from tests.conftest import LatencySession, make_counting_rows

_ENDPOINT = "http://127.0.0.1:9/v1"
_DATASET = "".join(json.dumps(row) + "\n" for row in make_counting_rows(12)).encode()
_RUN = ["--rounds", "1", "--local-steps", "1", "--batch-size", "2", "--clients", "2"]
_REPLAY = ["--backend", "remote", "--endpoint", _ENDPOINT, "--cassette-mode"]

#: A byte that is never part of valid UTF-8, wherever it is put.
_NOT_UTF8 = st.sampled_from([*range(0x80, 0xC2), *range(0xF5, 0x100)]).map(lambda b: bytes([b]))

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)
_NOT_OBJECT = _JSON.filter(lambda v: not isinstance(v, dict))
_NOT_STRING = _JSON.filter(lambda v: not isinstance(v, str))
_UNKNOWN_KEYS = st.dictionaries(st.text().map(lambda key: "x-" + key), _JSON, min_size=1)


def _replace_line(data: bytes, index: int, value) -> bytes:
    lines = data.decode().splitlines()
    lines[index % len(lines)] = json.dumps(value)
    return "".join(line + "\n" for line in lines).encode()


_SCRIPT_ENTRY = {"tag": "forward", "user_text": "", "response": "Answer: 5", "match": "prefix"}


def _script() -> bytes:
    responses = {"forward": "Answer: 5", "evaluation": "The response is correct.",
                 "tgd_step": "Count the items. Answer: $VALUE"}
    return json.dumps([
        {**_SCRIPT_ENTRY, "tag": tag, "response": responses.get(tag, "Show each step.")} for tag in GENERATION_TAGS
    ]).encode()


@functools.lru_cache(maxsize=1)
def _cassette() -> bytes:
    """The cassette of the run every example makes, recorded once."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(remote.requests, "Session", LatencySession)
        cassette = Path(tmp) / "cassette.jsonl"
        dataset = Path(tmp) / "counting.jsonl"
        dataset.write_bytes(_DATASET)
        argv = ["run", "--dataset", str(dataset), *_RUN, "--out", str(Path(tmp) / "out"),
                *_REPLAY, "record", "--cassette", str(cassette)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return cassette.read_bytes()


#: kind -> (its exit code, a valid file of it, wrong shapes of its JSON as bytes)
_KINDS = {
    "config": (2, lambda: b'{"seed": 3}\n', st.one_of(
        _NOT_OBJECT, _UNKNOWN_KEYS,
        st.fixed_dictionaries({"rounds": st.none() | st.lists(_JSON) | st.text("abc", min_size=1)}),
    ).map(lambda v: json.dumps(v).encode())),
    "templates": (2, (BUNDLED / "templates.json").read_bytes, st.one_of(
        _NOT_OBJECT.map(json.dumps),
        st.builds(lambda key, value: json.dumps({**asdict(default_templates()), key: value}),
                  st.sampled_from(list(asdict(default_templates()))), _NOT_STRING),
    ).map(str.encode)),
    "script": (2, _script, st.one_of(
        _JSON.filter(lambda v: not isinstance(v, list)),
        st.lists(_NOT_OBJECT, min_size=1, max_size=2),
        st.builds(lambda key, value: [{**_SCRIPT_ENTRY, key: value}],
                  st.sampled_from(["tag", "user_text", "response"]), _NOT_STRING),
        st.text().filter(lambda tag: tag not in GENERATION_TAGS).map(lambda tag: [{**_SCRIPT_ENTRY, "tag": tag}]),
    ).map(lambda v: json.dumps(v).encode())),
    "dataset": (6, lambda: _DATASET, st.builds(
        lambda index, value: _replace_line(_DATASET, index, value),
        st.integers(0, 11),
        st.one_of(_NOT_OBJECT, _UNKNOWN_KEYS, st.just({"question": " ", "answer": "1"})),
    )),
    "cassette": (3, _cassette, st.builds(
        lambda index, value: _replace_line(_cassette(), index, value),
        st.integers(0, 10_000),
        st.one_of(
            _NOT_OBJECT,
            st.fixed_dictionaries({"request_hash": _NOT_STRING, "request": st.just({}), "response": st.just({})}),
            st.fixed_dictionaries({"request_hash": st.text(), "request": _NOT_OBJECT, "response": st.just({})}),
            st.fixed_dictionaries({"request_hash": st.text(), "request": st.just({}), "response": _NOT_OBJECT}),
            st.fixed_dictionaries({"request_hash": st.text(), "request": st.just({"op": "x"}),
                                   "response": st.just({})}),
        ),
    )),
}


@st.composite
def _corrupted(draw, valid: bytes) -> bytes:
    """``valid`` truncated, with one byte flipped, or with a byte that is never UTF-8 put in."""
    at = draw(st.integers(0, len(valid) - 1))
    how = draw(st.sampled_from(["truncate", "flip", "not-utf8"]))
    if how == "truncate":
        return valid[:at]
    if how == "flip":
        return valid[:at] + bytes([valid[at] ^ draw(st.integers(1, 255))]) + valid[at + 1 :]
    return valid[:at] + draw(_NOT_UTF8) + valid[at:]


def _parses(kind: str, data: bytes) -> bool:
    """Whether ``data`` is UTF-8 JSON, or for the JSONL kinds, whether each
    line is; a cassette's last line without a newline is left out."""
    try:
        if kind not in ("dataset", "cassette"):
            json.loads(data.decode("utf-8"))
            return True
        lines = data.split(b"\n")
        if kind == "cassette":
            lines.pop()
        for line in lines:
            if line.strip():
                json.loads(line.decode("utf-8"))
        return True
    except ValueError:
        return False


def _run_with(kind: str, data: bytes) -> tuple[int, list[str], bool]:
    """Exit code, stderr lines and whether the run directory exists, for a
    run that reads ``data`` as its ``kind`` file."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(remote.requests, "Session", LatencySession)
        tmp_path = Path(tmp)
        file, dataset, out = tmp_path / f"{kind}.json", tmp_path / "counting.jsonl", tmp_path / "out"
        dataset.write_bytes(_DATASET)
        file.write_bytes(data)
        flags = {
            "config": ["--config", str(file)],
            "templates": ["--templates", str(file)],
            "script": ["--script", str(file)],
            "dataset": ["--dataset", str(file)],
            "cassette": [*_REPLAY, "replay", "--cassette", str(file)],
        }[kind]
        if kind != "dataset":
            flags += ["--dataset", str(dataset)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", *_RUN, "--out", str(out), *flags])
        return code, err.getvalue().splitlines(), out.exists()


def _assert_one_error_line(code: int, lines: list[str]) -> None:
    (line,) = lines
    payload = json.loads(line)
    assert payload["category"] == CATEGORY_BY_CODE[code]
    assert set(payload) == {"category", "error", "message"}


_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("kind", list(_KINDS))
class TestMalformedInputFiles:
    def test_the_valid_file_runs(self, kind):
        assert _run_with(kind, _KINDS[kind][1]()) == (0, [], True)

    def test_a_file_that_cannot_be_read_exits_config_before_the_run(self, kind, monkeypatch):
        valid, read = _KINDS[kind][1](), Path.open

        def refuse(self, mode="r", *args, **kwargs):
            if self.name == f"{kind}.json" and "r" in mode:
                raise PermissionError(13, "Permission denied", str(self))
            return read(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", refuse)
        exit_code, lines, ran = _run_with(kind, valid)
        assert exit_code == 2
        _assert_one_error_line(2, lines)
        assert not ran
        what = {"templates": "template", "script": "mock script"}.get(kind, kind)
        message = json.loads(lines[0])["message"]
        assert re.fullmatch(rf"{what} file (\S+/{kind}\.json): cannot read: \[Errno 13\] Permission denied: '\1'", message)

    @_SETTINGS
    @given(data=st.data())
    def test_a_wrong_shape_exits_with_the_kinds_code_before_the_run(self, kind, data):
        code, shapes = _KINDS[kind][0], _KINDS[kind][2]
        exit_code, lines, ran = _run_with(kind, data.draw(shapes))
        assert exit_code == code
        _assert_one_error_line(code, lines)
        assert not ran

    @_SETTINGS
    @given(data=st.data())
    def test_a_corrupted_file_exits_with_a_documented_code(self, kind, data):
        """A file that no longer parses exits with its kind's code before the
        run; one that still parses may run, but exits 0 or with one error line."""
        code, valid = _KINDS[kind][0], _KINDS[kind][1]()
        corrupted = data.draw(_corrupted(valid))
        exit_code, lines, ran = _run_with(kind, corrupted)
        if not _parses(kind, corrupted):
            assert exit_code == code
            assert not ran
        if exit_code:
            _assert_one_error_line(exit_code, lines)
        else:
            assert lines == []


class TestReadJsonl:
    def test_the_digest_is_the_sha256_of_every_byte_blank_and_torn_lines_included(self, tmp_path):
        data = b'{"a": 1}\n\n  \n{"b": 2}\n{"c'
        path = tmp_path / "lines.jsonl"
        path.write_bytes(data)
        digests: dict[str, str] = {}
        lines = list(read_jsonl(path, ConfigError, "test", digests, skip_torn_tail=True))
        assert lines == [(1, {"a": 1}), (4, {"b": 2})]
        assert digests == {str(path): hashlib.sha256(data).hexdigest()}

    def test_a_read_without_digests_hashes_nothing(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("hashed a file no digest was asked of")

        monkeypatch.setattr(inputs.hashlib, "sha256", refuse)
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": 2}\n')
        assert list(read_jsonl(path, ConfigError, "test")) == [(1, {"a": 1}), (2, {"b": 2})]
