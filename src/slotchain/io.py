"""Every JSON/JSONL read, bundled-resource lookup, output write and HTTP
request, and the codec between dataclass records and JSON objects.

A bad byte, broken JSON or a record field that does not fit its
annotation is a FormatError naming the file (and line, and field); an
interrupted write leaves the old file, never a truncated one.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import re
import secrets
import types
import typing
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import FormatError, ValidationError

if TYPE_CHECKING:
    from http.client import HTTPMessage


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
    """Write ``text`` as UTF-8 through ``write_lines``."""
    write_lines(path, (text,))


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each string of ``lines`` as UTF-8, in order, as it comes, so
    that readers see the old file or the whole new one, never a part: a
    temporary file in the same directory is renamed over ``path`` once
    ``lines`` is used up. If ``lines`` raises, the temporary file is
    removed and the old file stays. An existing path that is not a
    regular file (a terminal, a pipe, /dev/stdout) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
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
            handle.writelines(lines)
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
# Each class is planned once (_plan, then _decoder and _encoder). A planned
# decoder checks each field by its exact type and hands nested records,
# arrays of records or of scalars and objects of scalars to planned
# loaders; arrays of arrays, and anything that does not fit, go to the
# walk (_walk, _field, _load), which is the one place that words a fault.

_SCALARS = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}
_WRONG = object()  # what _load and the planned decoders return for a value that does not fit
_JSON = json.JSONEncoder(ensure_ascii=False)  # what json.dumps(..., ensure_ascii=False) builds


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
    """A field annotation as _load reads it: a JSON scalar type, a record
    class, ("null", form) for ``X | None``, (dict, value form) for an
    object keyed by strings, or (tuple or frozenset, item form, length or
    None) for an array."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if annotation in _SCALARS or dataclasses.is_dataclass(annotation):
        return annotation
    if origin is types.UnionType and len(args) == 2 and type(None) in args:
        return "null", _form(args[1] if args[0] is type(None) else args[0])
    if origin is dict and args[0] is str:
        return dict, _form(args[1])
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


def _field(form, value, where: str | Path, name: str):
    """``value`` decoded as the field ``name`` of the object at ``where``."""
    if type(value) is form:  # a value of exactly the field's type fits as it is
        return value
    value = _load(form, value, where, name)
    if value is _WRONG:
        raise FormatError(f"{where}: field {name!r} must be {_describe(form)}")
    return value


def _load(form, value, where: str | Path, name: str):
    """``value`` decoded by ``form``, or _WRONG; ``where`` and ``name``
    locate the field for the errors of an object nested in it."""
    if form in _SCALARS:
        # Python's bool is an int, but JSON's true and false are not numbers.
        fits = isinstance(value, (int, float) if form is float else form)
        return value if fits and (form is bool or not isinstance(value, bool)) else _WRONG
    if not isinstance(form, tuple):
        return decode(form, value, f"{where}: {name}") if isinstance(value, dict) else _WRONG
    if form[0] == "null":
        return None if value is None else _load(form[1], value, where, name)
    if form[0] is dict:
        if not isinstance(value, dict):
            return _WRONG
        # A value is checked like a record field named by its key.
        return {key: _field(form[1], item, f"{where}: {name}", key) for key, item in value.items()}
    if not isinstance(value, list) or form[2] not in (None, len(value)):
        return _WRONG
    items = [_load(form[1], item, where, f"{name}[{i}]") for i, item in enumerate(value)]
    return _WRONG if any(item is _WRONG for item in items) else form[0](items)


def _walk(cls: type, data: object, where: str | Path):
    """``decode`` field by field through _field, raising the FormatError
    that names the first fault."""
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected a JSON object")
    fields, required = _plan(cls)
    kwargs = {}
    for key, value in data.items():
        planned = fields.get(key)
        if planned is None:
            raise FormatError(f"{where}: unknown fields: {sorted(data.keys() - fields.keys())}")
        name, form = planned
        kwargs[name] = _field(form, value, where, key)
    if len(kwargs) < len(fields):
        missing = [key for key in required if key not in data]
        if missing:
            raise FormatError(f"{where}: missing fields: {missing}")
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _whole_number(value):
    """An integer in a float field: it fits as it is."""
    return value if type(value) is int else _WRONG


def _quick(form):
    """The planned loader for the values of a ``form`` field that are
    not of its exact scalar type: a function to the decoded value or
    _WRONG. None leaves every such value to the walk; so do arrays of
    arrays, whose faults the walk words by the whole array."""
    if form is float:
        return _whole_number
    if not isinstance(form, tuple):
        return None if form in _SCALARS else _decoder(form)
    kind, item = form[0], form[1]
    if kind == "null":
        inner = _quick(item)
        if inner is None:
            return lambda value: None if value is None else _WRONG
        return lambda value: None if value is None else inner(value)
    if item in _SCALARS:
        if kind is dict:
            def scalar_object(value):
                if type(value) is not dict:
                    return _WRONG
                for entry in value.values():
                    if type(entry) is not item:
                        return _WRONG
                return value
            return scalar_object
        length = form[2]

        def scalar_array(value):
            if type(value) is not list or length not in (None, len(value)):
                return _WRONG
            for entry in value:
                if type(entry) is not item:
                    return _WRONG
            return kind(value)
        return scalar_array
    if kind is tuple and form[2] is None and dataclasses.is_dataclass(item):
        decode_item = _decoder(item)

        def records(value):
            if type(value) is not list:
                return _WRONG
            decoded = []
            for entry in value:
                record = decode_item(entry)
                if record is _WRONG:
                    return _WRONG
                decoded.append(record)
            return tuple(decoded)
        return records
    return None


@functools.cache
def _decoder(cls: type):
    """The planned decoder of ``cls``: a function from a parsed JSON
    value to the record, or _WRONG when anything in it does not fit (a
    type, an unknown or missing field, a ValidationError)."""
    fields, required = _plan(cls)
    steps = {}
    for key, (name, form) in fields.items():
        exact = form[1] if isinstance(form, tuple) and form[0] == "null" else form
        steps[key] = name, exact if exact in _SCALARS else None, _quick(form)
    n_fields = len(fields)

    def decode_planned(data):
        if type(data) is not dict:
            return _WRONG
        kwargs = {}
        for key, value in data.items():
            step = steps.get(key)
            if step is None:
                return _WRONG
            name, exact, load = step
            if type(value) is not exact and (load is None or (value := load(value)) is _WRONG):
                return _WRONG
            kwargs[name] = value
        if len(kwargs) < n_fields and any(key not in data for key in required):
            return _WRONG
        try:
            return cls(**kwargs)
        except ValidationError:
            return _WRONG
    return decode_planned


def decode(cls: type, data: object, where: str | Path):
    """The ``cls`` record the JSON object ``data`` describes. Each field
    must fit its annotation (an integer fits a float, a boolean no
    number), and none may be unknown or missing. A fault, or a
    ValidationError from the constructor, is a FormatError naming
    ``where`` (the file, and line for JSONL) and the field's JSON key
    path."""
    record = _decoder(cls)(data)
    return _walk(cls, data, where) if record is _WRONG else record


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
        if item is None:
            return lambda value: {key: value[key] for key in sorted(value)}
        return lambda value: {key: item(value[key]) for key in sorted(value)}
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


def json_line(record) -> str:
    """A record as one JSON Lines line, non-ASCII characters kept."""
    return _JSON.encode(encode(record)) + "\n"
