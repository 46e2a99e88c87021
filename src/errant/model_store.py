"""Versioned text persistence for fitted model bundles.

Files are JSON with a canonical layout: top-level keys in a fixed order,
models sorted by profile key, one point per line, and floats written as
``repr`` writes them, so that save -> load -> save reproduces the file byte for byte.
A block of points whose every value lies in [1e-4, 1e12) and is the double nearest its own
thousandths is written as an integer part plus a fraction from a table of ".0" to ".999":
``repr``'s text, without its search for the shortest digits. Any other block is written with
``repr``.
A save writes a block of points at a time; a refused key or a failed write leaves the old file.
A load reads save's layout a model at a time and decodes only the models it is asked for, so
it holds one model's text at a time; any other layout is decoded from its whole text. Points in
save's three-decimal lines are read as integer thousandths, a block of lines at a time, and any
other text of a model through JSON.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Dict, Iterator, Optional, Tuple, Union

import numpy as np

from .errors import CorruptModelError, FitError, FormatError, ModelFileError, VersionError
from .kde import KdeModel
from .profiles import ProfileKey

FORMAT_VERSION = 1

# the canonical text up to the created value, and what follows that value
_HEAD = f'{{\n  "format_version": {FORMAT_VERSION},\n  "created": '
_AFTER_CREATED = ',\n  "models": {'
_POINT = "        [%r, %r, %r]"  # repr of a builtin float round-trips and is JSON
# When t = rint(x * 1000) gives t / 1000 == x, x is the double nearest the decimal t / 1000.
# For 1e-4 <= x < 1e12, repr writes fixed notation and doubles lie at most 2**-13 apart, well
# under half of 0.001, so t / 1000 is the only decimal of three or fewer places that reads back
# as x and repr writes it at its fewest decimals: t // 1000, then _FRACTIONS[t % 1000].
_SHORT_POINT = "        [%d%s, %d%s, %d%s]"
_FRACTIONS = np.array([".0"] + [f".{i:03d}".rstrip("0") for i in range(1, 1000)], dtype=object)
_BLOCK = 2048  # points rendered at a time, so a save holds one block's text, not one model's
_DECODE_BYTES = 1 << 16  # about the bytes of point lines load decodes at a time
_POINTS = b'\n      "points": [\n'  # the line that opens a model's points
_CLOSE = b"\n      ]\n    }"  # the lines after a model's points
_LINE = b"        [, , ],\n"  # a point line without the digits and "." of its values
# of the 16 bytes from 12 before a value's "." to 3 after it, the place values in thousandths,
# and in row 4 * i + f, 15 at the digits of an integer part of i digits and a fraction of f
# (built in Python, as numpy's power and product loops would add to the peak memory of a run)
_WEIGHTS = np.array([10.0 ** (2 - c if c < 0 else 3 - c) if c else 0.0 for c in range(-12, 4)])
_KEEP = np.array([[15 * (-i <= c <= f) for c in range(-12, 4)] for i in range(13)
                  for f in range(4)], np.uint8)


@dataclass
class ModelBundle:
    """A set of fitted models keyed by profile."""

    models: Dict[ProfileKey, KdeModel] = field(default_factory=dict)
    created: str = ""


def _key_line(key: ProfileKey) -> str:
    return f"    {json.dumps(key)}: {{"


def _pieces(bundle: ModelBundle) -> Iterator[str]:
    """The canonical text in pieces of at most a block of points; refuses a bad key first."""
    keys = sorted(bundle.models)
    for key in keys:
        if ProfileKey(key) != key:  # so every saved key reads back as written
            raise FormatError(f"profile key {key!r} would read back as {ProfileKey(key)!r}")
    yield _HEAD + json.dumps(bundle.created) + _AFTER_CREATED
    for position, key in enumerate(keys):
        model = bundle.models[key]
        covariance = ", ".join(map(repr, model.covariance.ravel().tolist()))
        yield "\n".join([
            ("," if position else "") + "\n" + _key_line(key),
            f'      "n": {model.n},',
            f'      "bandwidth_factor": {float(model.bandwidth_factor)!r},',
            f'      "covariance": [{covariance}],',
            '      "points": [\n',
        ])
        # the points one "[x, y, z]" line each, a block of them rendered in one format call
        for start in range(0, model.n, _BLOCK):
            yield (",\n" if start else "") + _points_text(model.points[start:start + _BLOCK])
        yield "\n      ]\n    }"
    yield "\n  }\n}\n"


def _points_text(points: np.ndarray) -> str:
    """The "[x, y, z]" lines of ``points``, each value written as ``repr`` writes it."""
    values = points.ravel()
    lines = len(points)
    if ((values >= 1e-4) & (values < 1e12)).all() and (  # in range first: no overflow warning
            (thousandths := np.rint(values * 1000.0)) / 1000.0 == values).all():
        whole, fraction = np.divmod(thousandths.astype(np.int64), 1000)
        arguments = [None] * (2 * values.size)  # an integer part, then its fraction's text
        arguments[0::2] = whole.tolist()
        arguments[1::2] = _FRACTIONS[fraction].tolist()
        return ",\n".join([_SHORT_POINT] * lines) % tuple(arguments)
    return ",\n".join([_POINT] * lines) % tuple(values.tolist())


def save(bundle: ModelBundle, path: Union[str, Path]) -> None:
    """Write to ``path`` in blocks of points; a refused key or a failed write keeps the old file."""
    pieces = _pieces(bundle)
    head = next(pieces)  # refuses a bad key before any file exists
    # named for this thread, not for the target, whose name may be at the length limit
    temporary = Path(path).parent / f".errant-{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(head)
            handle.writelines(pieces)
        os.replace(temporary, path)
    except OSError as exc:
        raise ModelFileError(f"cannot write model file {path}: {exc}") from exc
    finally:
        with suppress(OSError):  # so the error above is the one reported
            temporary.unlink()


def load(path: Union[str, Path], keys: Optional[Collection[str]] = None) -> ModelBundle:
    """Read a bundle, revalidating the invariants of every model read.

    Save's layout is read a model at a time, decoding only the models of ``keys`` (all if None);
    any other file, or one without a model of ``keys``, is decoded whole and gives every model.
    """
    markers = None if keys is None else {f"{_key_line(key)}\n".encode() for key in keys}
    bodies: dict = {}
    try:
        with open(path, "rb") as handle:
            head = b"".join(handle.readline() for _ in range(4)).decode("utf-8")
            created = json.loads(head[len(_HEAD):-len(_AFTER_CREATED) - 1])
            if head != f"{_HEAD}{json.dumps(str(created))}{_AFTER_CREATED}\n":  # str(): text only
                raise ValueError("not the layout save writes")
            line = handle.readline()
            while line != b"  }\n":  # a model's key line, until the models object closes
                parts = [b"{\n"]  # the end of the key line, then the model up to its one "}"
                while (at := (chunk := handle.peek()).find(b"}")) < 0:  # what the buffer holds
                    if not chunk:
                        raise ValueError("a model does not end")
                    parts.append(handle.read(len(chunk)))
                parts.append(handle.read(at + 1))  # what follows stays buffered, read once
                if markers is None or line in markers:
                    key_text = json.loads(line[4:-4].decode("utf-8"))
                    if line != f"{_key_line(str(key_text))}\n".encode() or key_text in bodies:
                        raise ValueError("a key line that save does not write")
                    bodies[key_text] = _model_doc(parts)
                glue, line = handle.readline(), handle.readline()
                if glue != (b"\n" if line == b"  }\n" else b",\n"):
                    raise ValueError("models joined other than save joins them")
            if handle.read(3) != b"}\n" or markers is not None and len(bodies) < len(markers):
                raise ValueError("not the layout save writes, or a model of keys is not there")
    except (OSError, ValueError, CorruptModelError):  # the whole decode reports it
        created, bodies = _decode_whole(path)
    models: Dict[ProfileKey, KdeModel] = {}
    key_texts: Dict[ProfileKey, str] = {}
    for key_text, body in bodies.items():
        try:
            key = ProfileKey(key_text)
        except ValueError as exc:
            raise CorruptModelError(f"bad profile key {key_text!r}: {exc}") from None
        if key_texts.setdefault(key, key_text) is not key_text:
            raise CorruptModelError(f"model file {path} names profile {key} twice: "
                                    f"{key_texts[key]!r} and {key_text!r}")
        models[key] = _model_from_doc(key_text, body)
    return ModelBundle(models=models, created=created)


def load_model(path: Union[str, Path], key: ProfileKey) -> KdeModel:
    """The model stored for ``key``: :func:`load` of that key, which must be in the file."""
    models = load(path, (key,)).models
    if key not in models:
        available = ", ".join(sorted(models)) or "none"
        raise FormatError(f"profile {key} not in model file; available: {available}")
    return models[key]


def _model_doc(parts: list) -> dict:
    """A model's decoded object from the pieces of its text, which it empties: JSON reads the
    head, and :func:`_thousandths` the points a block of lines at a time, if save wrote them in
    three-decimal lines; else JSON reads all of it."""
    body = b"".join(parts)
    parts.clear()  # so that one copy of the text is held
    at = cut = body.find(_POINTS) + len(_POINTS)  # past the line that opens the points, if any
    stop, blocks = len(body) - len(_CLOSE), []
    short = len(_POINTS) <= at < stop and body.endswith(_CLOSE)
    while short and cut < stop:  # each block ends at a line's end
        block, cut = cut, body.find(b"\n", cut + _DECODE_BYTES, stop) + 1 or stop
        text = b"".join((b"\n\n", memoryview(body)[block:cut], b"" if cut < stop else b",\n"))
        blocks.append(_thousandths(text))
        short = blocks[-1] is not None
    text = (body[:at - 1] + b"]}" if short else body).decode("utf-8")  # the head, if short
    del body  # so that JSON reads with the text alone held
    doc = json.loads(text, object_pairs_hook=_object_without_repeats)
    if short:
        doc["points"] = np.concatenate(blocks).reshape(-1, 3)
    return doc


def _thousandths(text: bytes) -> Optional[np.ndarray]:
    """The values of ``text``, two newlines and then lines ``[a, b, c],\\n`` of values
    ``(0|[1-9][0-9]{0,11})\\.[0-9]{1,3}``, as integer thousandths over 1000.0, which round as
    ``float`` of their text does; None for any other text."""
    skeleton, values = text.translate(None, b".0123456789"), np.frombuffer(text, np.uint8)
    lines, dots = len(skeleton) // len(_LINE), np.flatnonzero(values == ord("."))
    if skeleton != b"\n\n" + _LINE * lines or len(dots) != 3 * lines:
        return None
    # each value's slot, from the "[" or " " before it to the "," or "]" after it
    slots = np.flatnonzero((values < ord(".")) | (values > ord("9")))[2:].reshape(lines, 16)
    whole, fraction = dots - slots[:, 8:13:2].ravel() - 1, slots[:, 9:14:2].ravel() - dots - 1
    if (whole + fraction + 1).sum() != len(text) - len(skeleton) or not (
            (0 < whole) & (whole <= 12) & (0 < fraction) & (fraction <= 3)
            & ((whole == 1) | (values[dots - whole] != ord("0")))).all():
        return None  # a value outside its slot, or not of save's digits
    near = np.ndarray(len(text) - 15, "V16", text, 0, (1,))[dots - 12].view(np.uint8)
    digits = near.reshape(-1, 16) & _KEEP[4 * whole + fraction]
    # exact, as each sum is an integer below 2**53; einsum casts a buffer of digits at a time
    return np.einsum("ij,j->i", digits, _WEIGHTS) / 1000.0


def _decode_whole(path: Union[str, Path]) -> Tuple[str, dict]:
    """``created`` and every model's decoded object, from the file's whole text in any layout."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_object_without_repeats)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"model file {path} is not valid JSON: {exc}") from exc
    except CorruptModelError as exc:
        raise CorruptModelError(f"model file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFileError(f"model file {path} must hold a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"model file {path} has format_version {version!r}; "
                           f"this build reads version {FORMAT_VERSION}")
    models_doc = doc.get("models")
    if not isinstance(models_doc, dict):
        raise CorruptModelError(f"model file {path} has no models object")
    created = doc.get("created", "")
    if not isinstance(created, str):
        raise CorruptModelError(f"model file {path} has a non-text created field")
    return created, models_doc


def _object_without_repeats(pairs: list) -> dict:
    # json.loads keeps only the last of repeated keys, which would drop a model
    doc = dict(pairs)
    if len(doc) < len(pairs):
        names = [name for name, _ in pairs]
        repeated = next(name for name in names if names.count(name) > 1)
        raise CorruptModelError(f"key {repeated!r} appears twice in one object")
    # a model's points become one array as its object is decoded, freeing its nested lists
    # before the next model is read; _model_from_doc refuses a list that does not convert
    if isinstance(doc.get("points"), list):
        with suppress(TypeError, ValueError, OverflowError, Warning):
            doc["points"] = _numbers(doc["points"])
    return doc


def _numbers(values: object) -> np.ndarray:
    # text and booleans are refused, as save writes neither; among numbers numpy reads true as 1
    array = values if isinstance(values, np.ndarray) else np.array(values)  # text stays text
    if (array.dtype.kind not in "fiu" or ((array == 0) | (array == 1)).any()) and not all(
            type(value) in (int, float) for value in np.array(values, dtype=object).flat):
        raise TypeError("not a number")
    return np.asarray(array, dtype=float)


def _model_from_doc(key_text: str, body: object) -> KdeModel:
    if not isinstance(body, dict):
        raise CorruptModelError(f"model {key_text} must be an object")

    def bad(reason: str) -> CorruptModelError:
        return CorruptModelError(f"model {key_text}: {reason}")

    for field_name in ("n", "bandwidth_factor", "covariance", "points"):
        if field_name not in body:
            raise bad(f"missing field {field_name!r}")
    factor = body["bandwidth_factor"]
    if not isinstance(factor, (int, float)) or isinstance(factor, bool):
        raise bad("bandwidth_factor must be a number")
    try:
        covariance = _numbers(body["covariance"])
        points = _numbers(body["points"])
    except (TypeError, ValueError, Warning):  # numpy < 1.24 warns on a ragged list
        raise bad("covariance and points must be numeric arrays") from None
    except OverflowError:  # an integer literal beyond the range of a float
        raise bad("covariance and points must fit in a float") from None
    if covariance.shape != (9,):
        raise bad("covariance must hold exactly 9 numbers")
    try:
        model = KdeModel(points, covariance.reshape(3, 3), float(factor))
    except OverflowError:
        raise bad("bandwidth_factor must fit in a float") from None
    except FitError as exc:
        raise bad(str(exc)) from None
    if type(body["n"]) is not int or body["n"] != model.n:  # so 50.0 and true are refused
        raise bad(f"n={body['n']!r} is not the count of {model.n} stored points")
    return model
