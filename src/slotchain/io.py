"""Every JSON/JSONL read, bundled-resource lookup, output write and HTTP
request, and the codec between dataclass records and JSON objects.

A bad byte, broken JSON, a \\u escape that makes a lone surrogate or a
record field that does not fit its annotation is a FormatError naming
the file (and line, and field or JSON path).
Output is UTF-8 whatever the locale, on standard output as in a file; an
interrupted write leaves the old file, never a truncated one.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import re
import secrets
import stat
import sys
import types
import typing
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import FormatError, ValidationError

if TYPE_CHECKING:
    from http.client import HTTPMessage


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")  # RFC 8259 has no NaN or Infinity


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):  # a literal too large for a float, such as 1e999
        raise ValueError(f"non-finite number {text}")
    return value


_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)


_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # also the halves of a valid pair


def _lone_surrogate(data) -> str | None:
    """The JSON path of the first string of ``data``, key or value, that
    holds a lone surrogate, or None."""
    pending = [("$", data)]
    while pending:
        path, value = pending.pop()
        if type(value) is str:
            if _SURROGATE.search(value):
                return path
        elif type(value) is dict:
            members = []
            for key, entry in value.items():
                # json.dumps escapes a key that holds a surrogate, which is no identifier
                step = f"{path}.{key}" if key.isidentifier() else f"{path}[{json.dumps(key)}]"
                members += ((step, key), (step, entry))
            pending += reversed(members)
        elif type(value) is list:
            pending += reversed([(f"{path}[{i}]", entry) for i, entry in enumerate(value)])
    return None


def parse_json(text: str, where: str):
    """The value of the JSON text ``text``. Bad syntax, a BOM, NaN or an
    infinity, or a \\u escape that makes a lone surrogate is a FormatError
    naming ``where`` (and the JSON path of the surrogate)."""
    try:
        if text.startswith("\ufeff"):  # as json.loads words it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax or an over-long integer; RecursionError: deep nesting.
        raise FormatError(f"{where}: not valid JSON: {exc}") from exc
    # UTF-8 text holds no surrogate, but a \u escape can make one that no
    # output can write. Most lines hold no backslash, which is quick to see.
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        path = _lone_surrogate(data)
        if path:
            raise FormatError(f"{where}: {path}: a \\u escape makes a lone surrogate, "
                              "which is not a character")
    return data


def read_json(source: str | Path, expect: type):
    """The parsed content of a UTF-8 JSON file. ``expect`` (list or
    dict) is the type the top-level value must have."""
    if isinstance(source, str):
        source = Path(source)
    try:
        text = source.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{source}: not UTF-8: {exc}") from exc
    data = parse_json(text, str(source))
    if not isinstance(data, expect):
        kind = "array" if expect is list else "object"
        raise FormatError(f"{source}: expected a JSON {kind}")
    return data


def read_lines(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """(line number, raw bytes) for each line of a file, read as they
    are consumed."""
    with open(path, "rb") as handle:
        yield from enumerate(handle, start=1)


def parse_jsonl(
    path: str | Path, lines: Iterable[tuple[int, bytes]]
) -> Iterator[tuple[int, str, object]]:
    """(line number, "<path>: line <n>", parsed value) for each
    non-blank line of ``lines``, numbered raw lines of the UTF-8 JSON
    Lines file ``path`` as read_lines gives them."""
    for line_number, raw in lines:
        where = f"{path}: line {line_number}"
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{where}: not UTF-8: {exc}") from exc
        if line.strip():
            yield line_number, where, parse_json(line, where)


def read_jsonl(path: str | Path) -> Iterator[tuple[int, str, object]]:
    """parse_jsonl over every line of the JSON Lines file ``path``."""
    return parse_jsonl(path, read_lines(path))


def write_lines(path: str | Path | None, lines: str | Iterable[str]) -> None:
    """Write ``lines`` (one string, or strings as they are produced) as
    UTF-8, in order, as they come: to standard output when ``path`` is
    None; in place to an existing path that is not a regular file (a
    terminal, a pipe, /dev/stdout); else to a temporary file in the same
    directory, ``.<name>.<16 hex digits>.tmp`` with the name cut to 50
    characters, renamed over ``path`` with the old file's permission bits
    once ``lines`` is used up, so readers never see a part. If ``lines``
    raises, the temporary file is removed and the old file stays."""
    if isinstance(lines, str):
        lines = (lines,)
    data = (line.encode("utf-8") for line in lines)
    if not path:  # None, or an --out of ""
        sys.stdout.flush()  # text already written to standard output comes first
        sys.stdout.buffer.writelines(data)
        sys.stdout.buffer.flush()
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as handle:
            handle.writelines(data)
        return
    # Through a symlink, replace the file it points at, not the link.
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    # Named after its target so that a leftover can be traced; at most 50
    # characters of the name keep it within a file system's 255 bytes.
    temp_name = os.path.join(directory, f".{name[:50]}.{secrets.token_hex(8)}.tmp")
    try:
        # Created as open() would create it: mode 0o666 less the umask.
        fd = os.open(temp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the file asked for, not the temporary one
        raise
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(data)
        if os.path.isfile(target):
            os.chmod(temp_name, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(temp_name, target)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise


def http_post(
    url: str, body: bytes, headers: dict[str, str], timeout: float
) -> tuple[int, HTTPMessage, bytes]:
    """(status, headers, body) of the reply to a POST of ``body`` to an
    http:// or https:// ``url``, whatever its status, sent on a new
    connection. No redirect is followed, so ``headers`` never reach
    another host. Proxies come from ``http(s)_proxy`` and ``no_proxy``;
    TLS is verified against the system trust store, or ``SSL_CERT_FILE``.
    A connection that fails, times out or cuts the reply short raises
    OSError; a URL of another scheme raises ValueError."""
    import http.client  # here, not at the top: most runs never make a request
    import urllib.parse
    import urllib.request

    if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
        raise ValueError(f"{url!r} is not an http:// or https:// URL")
    # Without redirect or error handlers, the opener returns every reply.
    opener = urllib.request.OpenerDirector()
    for handler in (
        urllib.request.ProxyHandler(),
        urllib.request.HTTPHandler(),
        urllib.request.HTTPSHandler(),
    ):
        opener.add_handler(handler)
    request = urllib.request.Request(url, body, headers, method="POST")
    try:
        with opener.open(request, timeout=timeout) as response:
            return response.status, response.headers, response.read()
    except http.client.HTTPException as exc:  # a malformed or truncated reply
        raise ConnectionError(f"bad reply: {exc!r}") from exc


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


# ---------------------------------------------------------------------------
# record codec
#
# Each class is planned once (_plan, then _decoder and _encoder). A
# planned decoder keeps a field value of exactly the field's scalar type
# as it is and hands any other value to the field's loader (_loader),
# which returns the decoded value, or _WRONG when its shape does not fit;
# the record words that as "field 'x' must be ...". A fault inside a
# nested record or object raises _Fault, whose message each enclosing
# level prefixes with its own segment, and decode adds the location it
# was given. encode gives a record's JSON object, for indented output
# (json_text); builder.example_line writes the one JSON Lines record.

_SCALARS = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}
_WRONG = object()  # what a loader returns for a value that does not fit
_INDENTED = json.JSONEncoder(ensure_ascii=False, indent=2)


class _Fault(Exception):
    """A fault inside a record; its one argument is the message from just
    after the record's location, e.g. ": turns[1]: unknown fields: [...]"."""


@functools.cache
def _plan(cls: type) -> tuple[dict, list[str]]:
    """(attribute, form) for each field by its JSON key, in field order,
    and the JSON keys of the fields without a default. A field's key is
    its name unless ``field(metadata={"json_key": ...})`` gives another.
    Cached: resolving annotations costs more than a decode."""
    hints = typing.get_type_hints(cls)
    fields = {f.metadata.get("json_key", f.name): f for f in dataclasses.fields(cls)}
    missing = dataclasses.MISSING
    required = [key for key, f in fields.items() if f.default is f.default_factory is missing]
    return {key: (f.name, _form(hints[f.name])) for key, f in fields.items()}, required


def _form(annotation):
    """A field annotation as the codec reads it: a JSON scalar type, a
    record class, ("null", form) for ``X | None``, (dict, str) for
    ``dict[str, str]``, or (tuple or frozenset, item form, length or
    None) for an array."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if annotation in _SCALARS or dataclasses.is_dataclass(annotation):
        return annotation
    if origin is types.UnionType and len(args) == 2 and type(None) in args:
        return "null", _form(args[1] if args[0] is type(None) else args[0])
    if annotation == dict[str, str]:
        return dict, str
    if origin is frozenset and args == (str,) or origin is tuple and args[1:] == (Ellipsis,):
        return origin, _form(args[0]), None
    if origin is tuple and args and len(set(args)) == 1:
        return tuple, _form(args[0]), len(args)
    raise TypeError(f"the record codec cannot handle the annotation {annotation!r}")


def _describe(form) -> str:
    if not isinstance(form, tuple):
        return _SCALARS.get(form, "an object")
    if form[0] == "null":
        return f"{_describe(form[1])} or null"
    items = re.sub(r"^an? (\w+)", r"\1s", _describe(form[1]))  # "a string" -> "strings"
    if form[0] is dict:
        return f"an object of {items}"
    return f"an array of {items}" if form[2] is None else f"an array of {form[2]} {items}"


def _loader(form):
    """The function from a parsed JSON value to its decoded value as a
    ``form`` field, or _WRONG when its shape does not fit."""
    if form in _SCALARS:
        fits = (int, float) if form is float else (form,)  # a boolean is no number
        return lambda value: value if type(value) in fits else _WRONG
    if not isinstance(form, tuple):
        return _decoder(form)
    if form[0] is dict:

        def load_object(value):
            if type(value) is not dict:
                return _WRONG
            for key, entry in value.items():
                if type(entry) is not str:
                    # an entry is checked like a record field named by its key
                    raise _Fault(f": field {key!r} must be a string")
            return value
        return load_object
    kind, item = form[0], _loader(form[1])
    if kind == "null":
        return lambda value: None if value is None else item(value)
    length = form[2]

    def load_array(value):
        if type(value) is not list or length is not None and len(value) != length:
            return _WRONG
        decoded, misfit = [], False
        for entry in value:
            try:
                entry = item(entry)
            except _Fault as fault:
                fault.args = (f"[{len(decoded)}]{fault.args[0]}",)
                raise
            if entry is _WRONG:
                misfit = True  # a later entry's fault is still named first
            decoded.append(entry)
        return _WRONG if misfit else kind(decoded)
    return load_array


@functools.cache
def _decoder(cls: type):
    """The planned decoder of ``cls``: a function from a parsed JSON
    value to the record, or _WRONG when the value is not an object. A
    fault in the object (a field that does not fit, an unknown or missing
    field, a ValidationError) raises _Fault."""
    fields, required = _plan(cls)
    steps = {}
    for key, (name, form) in fields.items():
        exact = form[1] if isinstance(form, tuple) and form[0] == "null" else form
        steps[key] = name, exact if exact in _SCALARS else None, _loader(form)
    n_fields = len(fields)

    def decode_planned(data):
        if type(data) is not dict:
            return _WRONG
        kwargs = {}
        for key, value in data.items():
            step = steps.get(key)
            if step is None:
                raise _Fault(f": unknown fields: {sorted(data.keys() - fields.keys())}")
            name, exact, load = step
            if type(value) is not exact:
                try:
                    value = load(value)
                except _Fault as fault:
                    fault.args = (f": {key}{fault.args[0]}",)
                    raise
                if value is _WRONG:
                    raise _Fault(f": field {key!r} must be {_describe(fields[key][1])}")
            kwargs[name] = value
        if len(kwargs) < n_fields:
            missing = [key for key in required if key not in data]
            if missing:
                raise _Fault(f": missing fields: {missing}")
        try:
            return cls(**kwargs)
        except ValidationError as exc:
            raise _Fault(f": {exc}") from exc
    return decode_planned


def decode(cls: type, data: object, where: str | Path):
    """The ``cls`` record the JSON object ``data`` describes. Each field
    must fit its annotation (an integer fits a float, a boolean no
    number), and none may be unknown or missing. A fault, or a
    ValidationError from the constructor, is a FormatError naming
    ``where`` (the file, and line for JSONL) and the field's JSON key
    path."""
    try:
        record = _decoder(cls)(data)
    except _Fault as fault:
        raise FormatError(f"{where}{fault.args[0]}") from fault.__cause__
    if record is _WRONG:
        raise FormatError(f"{where}: expected a JSON object")
    return record


def _dumper(form):
    """The function from a field value of ``form`` to its JSON value, or
    None when the value is its own JSON value."""
    if form in _SCALARS:
        return None
    if not isinstance(form, tuple):
        return _encoder(form)
    kind, item = form[0], _dumper(form[1])
    if kind == "null":
        return None if item is None else lambda value: None if value is None else item(value)
    if kind is dict:
        return lambda value: {key: value[key] for key in sorted(value)}
    if kind is frozenset:
        return sorted  # the codec's frozensets hold strings
    return list if item is None else lambda value: [item(entry) for entry in value]


@functools.cache
def _encoder(cls: type):
    """The planned encoder of ``cls``: a function from a record to its
    JSON object."""
    fields, _ = _plan(cls)
    steps = [(key, name, _dumper(form)) for key, (name, form) in fields.items()]

    def encode_planned(record) -> dict:
        data = {}
        for key, name, dump in steps:
            value = getattr(record, name)
            data[key] = value if dump is None else dump(value)
        return data
    return encode_planned


def encode(record) -> dict:
    """The JSON object for a dataclass record: one key per field, in
    field order. Tuples become arrays, frozensets sorted arrays, dicts
    objects with sorted keys, and nested records objects."""
    return _encoder(type(record))(record)


def json_text(value) -> str:
    """A JSON value as the text of a file: indented by two spaces,
    non-ASCII characters kept, and a final newline."""
    return _INDENTED.encode(value) + "\n"
