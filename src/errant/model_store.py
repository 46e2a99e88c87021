"""Versioned text persistence for fitted model bundles.

Files are JSON with a canonical layout: top-level keys in a fixed order,
models sorted by profile key, one point per line, and floats written via
``repr`` so that save -> load -> save reproduces the file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Union

import numpy as np

from .errors import CorruptModelError, FitError, ModelFileError, VersionError
from .kde import KdeModel
from .profiles import ProfileKey

FORMAT_VERSION = 1


@dataclass
class ModelBundle:
    """A set of fitted models keyed by profile."""

    models: Dict[ProfileKey, KdeModel] = field(default_factory=dict)
    created: str = ""

    def models_by_name(self) -> Dict[str, KdeModel]:
        """The same models keyed by profile string, for lookup convenience."""
        return {key.as_string(): model for key, model in self.models.items()}


def _floats(values: np.ndarray) -> list[str]:
    # repr of a builtin float round-trips exactly and is valid JSON
    return list(map(float.__repr__, values.ravel().tolist()))


def dumps(bundle: ModelBundle) -> str:
    """Serialize a bundle to its canonical text form."""
    lines = [
        "{",
        f'  "format_version": {FORMAT_VERSION},',
        f'  "created": {json.dumps(bundle.created)},',
        '  "models": {',
    ]
    keys = sorted(bundle.models, key=ProfileKey.as_string)
    for position, key in enumerate(keys):
        model = bundle.models[key]
        covariance = ", ".join(_floats(model.covariance))
        lines.append(f"    {json.dumps(key.as_string())}: {{")
        lines.append(f'      "n": {model.n},')
        lines.append(f'      "bandwidth_factor": {float(model.bandwidth_factor)!r},')
        lines.append(f'      "covariance": [{covariance}],')
        lines.append('      "points": [')
        # one "[x, y, z]" line per point, all rendered in a single format call
        row_format = "        [%s, %s, %s]"
        lines.append(",\n".join([row_format] * model.n) % tuple(_floats(model.points)))
        lines.append("      ]")
        lines.append("    }" + ("," if position < len(keys) - 1 else ""))
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save(bundle: ModelBundle, path: Union[str, Path]) -> None:
    """Write a bundle to ``path`` in the canonical form."""
    text = dumps(bundle)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ModelFileError(f"cannot write model file {path}: {exc}") from exc


def load(path: Union[str, Path]) -> ModelBundle:
    """Read a bundle, revalidating every model invariant."""
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
        raise VersionError(
            f"model file {path} has format_version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    models_doc = doc.get("models")
    if not isinstance(models_doc, dict):
        raise CorruptModelError(f"model file {path} has no models object")
    created = doc.get("created", "")
    if not isinstance(created, str):
        raise CorruptModelError(f"model file {path} has a non-text created field")
    models: Dict[ProfileKey, KdeModel] = {}
    key_texts: Dict[ProfileKey, str] = {}
    for key_text, body in models_doc.items():
        try:
            key = ProfileKey.from_string(key_text)
        except ValueError as exc:
            raise CorruptModelError(f"bad profile key {key_text!r}: {exc}") from None
        if key in key_texts:
            raise CorruptModelError(
                f"model file {path} names profile {key.as_string()} twice: "
                f"{key_texts[key]!r} and {key_text!r}"
            )
        key_texts[key] = key_text
        models[key] = _model_from_doc(key_text, body)
    return ModelBundle(models=models, created=created)


def _object_without_repeats(pairs: list) -> dict:
    # json.loads keeps only the last of repeated keys, which would drop a model
    doc = dict(pairs)
    if len(doc) < len(pairs):
        names = [name for name, _ in pairs]
        repeated = next(name for name in names if names.count(name) > 1)
        raise CorruptModelError(f"key {repeated!r} appears twice in one object")
    return doc


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
        covariance = np.array(body["covariance"], dtype=float)
        points = np.array(body["points"], dtype=float)
    except (TypeError, ValueError):
        raise bad("covariance and points must be numeric arrays") from None
    if covariance.shape != (9,):
        raise bad("covariance must hold exactly 9 numbers")
    covariance = covariance.reshape(3, 3)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) < 2:
        raise bad("points must be an (n, 3) array with n >= 2")
    if not (points > 0).all():
        raise bad("stored points must be positive")
    if body["n"] != len(points):
        raise bad(f"n={body['n']!r} does not match {len(points)} stored points")
    try:
        return KdeModel(points=points, covariance=covariance, bandwidth_factor=float(factor))
    except FitError as exc:
        raise bad(str(exc)) from None
