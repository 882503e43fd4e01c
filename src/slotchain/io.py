"""Every JSON/JSONL read, bundled-resource lookup and output write.

A bad byte or broken JSON is a FormatError naming the file (and line);
an interrupted write leaves the old file, never a truncated one.
"""

from __future__ import annotations

import json
import os
import secrets
from importlib import resources
from pathlib import Path
from typing import Iterator

from .errors import FormatError


def _parse(text: str, where: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax or an over-long integer; RecursionError: deep nesting.
        raise FormatError(f"{where}: not valid JSON: {exc}") from exc


def read_json(source: str | Path, expect: type | None = None):
    """The parsed content of a UTF-8 JSON file. ``expect`` (list or
    dict) is the type the top-level value must have."""
    if isinstance(source, str):
        source = Path(source)
    try:
        text = source.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{source}: not UTF-8: {exc}") from exc
    data = _parse(text, str(source))
    if expect is not None and not isinstance(data, expect):
        kind = "array" if expect is list else "object"
        raise FormatError(f"{source}: expected a JSON {kind}")
    return data


def read_jsonl(path: str | Path) -> Iterator[tuple[int, str, object]]:
    """(line number, "<path>: line <n>", parsed value) for each
    non-blank line of a UTF-8 JSON Lines file."""
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            where = f"{path}: line {line_number}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{where}: not UTF-8: {exc}") from exc
            if line.strip():
                yield line_number, where, _parse(line, where)


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 so that readers see the old file or the
    whole new one, never a part: a temporary file in the same directory
    is renamed over ``path``. An existing path that is not a regular
    file (a terminal, a pipe, /dev/stdout) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    # Through a symlink, replace the file it points at, not the link.
    target = os.path.realpath(path)
    temp_name = os.path.join(os.path.dirname(target), f".tmp-{secrets.token_hex(8)}")
    try:
        # Created as open() would create it: mode 0o666 less the umask.
        fd = os.open(temp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the file asked for, not the temporary one
        raise
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_name, target)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise


def file_or_bundled(value: str, folder: str) -> Path | None:
    """``value`` itself when it names a file; else, when ``value`` is a
    bare name, the bundled ``data/<folder>/<value>.json`` if it exists;
    else None."""
    if Path(value).is_file():
        return Path(value)
    return bundled(f"{folder}/{value}.json") if value.replace("_", "").isalnum() else None


def bundled(name: str) -> Path | None:
    """The package's data file ``data/<name>``, or None when there is none."""
    resource = resources.files("slotchain").joinpath(f"data/{name}")
    return resource if resource.is_file() else None
