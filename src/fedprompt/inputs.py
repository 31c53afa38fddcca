"""Input files: each is found, read once, decoded and parsed here. A path that is not a file, or a file that
cannot be read, is a :class:`ConfigError` for every kind; contents that are not UTF-8 or not JSON raise the
caller's class."""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
from importlib import resources
from pathlib import Path
from typing import IO, Any, Callable, Iterator

from fedprompt.errors import ConfigError, FedPromptError

Error = type[FedPromptError]

#: The directory of the data files bundled with the package.
BUNDLED = resources.files("fedprompt") / "data"


def fault(error: Error, what: str, path: Any, problem: str, line: int | None = None) -> FedPromptError:
    """``error`` with the message ``{what} file PATH[ line N]: {problem}``; shape checks raise it too."""
    return error(f"{what} file {path}{f' line {line}' if line else ''}: {problem}")


@contextlib.contextmanager
def _open(path: str | Path, what: str) -> Iterator[IO[bytes]]:
    file = Path(path) if isinstance(path, str) else path  # a bundled file may sit in a zip archive
    if not file.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        with file.open("rb") as fh:
            yield fh
    except OSError as exc:
        raise fault(ConfigError, what, path, f"cannot read: {exc}") from exc


def _decode(data: bytes, error: Error, what: str, path: Any, line: int | None = None, parse: Callable = json.loads):
    """``data`` (JSONL line ``line``, or else the whole file) as UTF-8 text, passed through ``parse``."""
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise fault(error, what, path, f"not UTF-8 text: {exc}", (line or 1) + data.count(b"\n", 0, exc.start)) from exc
    except ValueError as exc:
        raise fault(error, what, path, f"not valid JSON: {exc}", line) from exc


def _parses(data: bytes) -> bool:
    try:
        json.loads(data.decode("utf-8"))
    except ValueError:
        return False
    return True


def read_text(path: str | Path, error: Error, what: str) -> str:
    """The UTF-8 text of the file at ``path``, with ``"\\r\\n"`` and ``"\\r"`` read as ``"\\n"``."""
    return read_json(path, error, what, parse=lambda text: text.replace("\r\n", "\n").replace("\r", "\n"))


def read_json(
    path: str | Path, error: Error, what: str, digests: dict[str, str] | None = None, parse: Callable = json.loads
) -> Any:
    """The JSON value (or what ``parse`` makes of the text) of the file at ``path``; with ``digests``, its sha256
    is stored under ``str(path)``."""
    with _open(path, what) as fh:
        data = fh.read()
    if digests is not None:
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    return _decode(data, error, what, path, parse=parse)


def read_jsonl(
    path: str | Path, error: Error, what: str, digests: dict[str, str] | None = None, skip_torn_tail: bool = False
) -> Iterator[tuple[int, Any]]:
    """``(line number, JSON value)`` of each line that is not blank, read one at a time and ended by ``"\\n"``
    only (JSON text may hold U+2028). ``digests`` is as for :func:`read_json`; ``skip_torn_tail`` drops a last
    line that has no ``"\\n"`` and does not parse, as a killed writer leaves."""
    sha256 = None if digests is None else hashlib.sha256()
    with _open(path, what) as fh:
        for n, raw in enumerate(fh, start=1):
            if sha256 is not None:
                sha256.update(raw)
            if raw.strip() and (raw.endswith(b"\n") or not skip_torn_tail or _parses(raw)):
                yield n, _decode(raw, error, what, path, n)
    if sha256 is not None:
        digests[str(path)] = sha256.hexdigest()


def end_torn_tail(path: Path) -> None:
    """Make the JSONL file at ``path``, if there is one, end with ``"\\n"`` before lines are appended: a last line
    without one gets it if it parses and is cut off if it does not."""
    with contextlib.suppress(FileNotFoundError), path.open("r+b") as fh:
        if fh.seek(0, 2):  # an empty file cannot be mapped
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:  # rfind pages in the last line only
                start = data.rfind(b"\n") + 1
                whole = _parses(data[start:])
            if whole:
                fh.write(b"\n")
            else:
                fh.truncate(start)
