"""Small shared helpers: seeding, and the typed reader behind every config
section and preset."""

from __future__ import annotations

import inspect
import math
import types
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import partial
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, UsageError

# Fixed purpose tags so every component derives an independent, reproducible
# stream from one master seed.
SEED_DRIVER = 11
SEED_HUNT = 23
SEED_SCHEDULES = 37
SEED_PICARD = 41


def child_seed(master_seed: int, purpose: int, index: int = 0) -> int:
    """Deterministic sub-seed for a named purpose under a master seed."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(purpose, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))


# -- typed config fields ----------------------------------------------------------

@dataclass(frozen=True)
class Bound:
    """Lower bound of a numeric field, or of an array field's length,
    attached through ``Annotated``; a strict bound excludes ``low`` itself."""

    low: float
    strict: bool = False


class Presets(dict):
    """Builders by preset name.  Attached to a field through ``Annotated``,
    it makes ``read`` pick the builder named by the object's ``preset`` key,
    read the other keys as the builder's keyword-only parameters, and return
    the builder with them bound.  Compared and hashed by identity, as
    ``Annotated`` metadata must be hashable."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


Count = Annotated[int, Bound(1)]
NonNegInt = Annotated[int, Bound(0)]
Positive = Annotated[float, Bound(0.0, strict=True)]
NonNeg = Annotated[float, Bound(0.0)]
# One value per component, or one scalar for all of them.
Scalars = Union[float, tuple[float, ...]]

_JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", dict: "object", type(None): "null"}


def _kind(value) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


def read(tp, value, where: str):
    """Check the JSON ``value`` at config path ``where`` against type ``tp``
    and return it typed.

    Types: ``int``, ``float`` (finite; integers accepted), ``bool``, ``str``,
    ``Literal``, ``Optional``, a union of a scalar and an array form,
    ``tuple[X, ...]`` and fixed-length tuples (read from arrays), dataclasses
    (read from objects, one key per field, defaults from the fields), and
    ``Annotated`` with a ``Bound`` (a lower bound, on the length of an
    array) or ``Presets``.  Every failure is a ConfigError naming the
    offending path; a UsageError from a dataclass's own checks names the
    dataclass's path.
    """
    meta = ()
    if get_origin(tp) is Annotated:
        tp, *meta = get_args(tp)
    bound = next((m for m in meta if isinstance(m, Bound)), None)
    presets = next((m for m in meta if isinstance(m, Presets)), None)
    if presets is not None:
        return _read_preset(presets, value, where)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):
        options = [a for a in args if a is not type(None)]
        if value is None and len(options) < len(args):
            return None
        # The scalar or the array form, by the JSON kind of the value.
        return read(next((a for a in options if (get_origin(a) is tuple)
                          == isinstance(value, list)), options[0]), value, where)
    if origin is Literal:
        if not any(value == a and type(value) is type(a) for a in args):
            raise ConfigError(where, f"must be one of {', '.join(map(repr, args))}")
        return value
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(where, f"expected array, got {_kind(value)}")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise ConfigError(where, f"expected {len(items)} items, got {len(value)}")
        _check_bound(bound, len(value), where, "must have {} items")
        return tuple(read(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    if is_dataclass(tp):
        required = {f.name: f.default is MISSING and f.default_factory is MISSING
                    for f in fields(tp)}
        values = _read_keys(required, get_type_hints(tp, include_extras=True), value, where)
        try:
            return tp(**values)
        except ConfigError:
            raise
        except UsageError as exc:
            raise ConfigError(where, str(exc)) from exc
    if tp is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(where, "must be a finite number")
    elif not (isinstance(value, tp) and (tp is bool or not isinstance(value, bool))):
        raise ConfigError(where, f"expected {_JSON_NAMES[tp]}, got {_kind(value)}")
    _check_bound(bound, value, where)
    return value


def _check_bound(bound, value, where: str, claim: str = "must be {}") -> None:
    """Raise unless ``value`` meets ``bound`` (None: no bound); ``claim``
    words the rule around its comparison, such as ">= 1"."""
    if bound is not None and (value < bound.low or (bound.strict and value == bound.low)):
        need = f"{'>' if bound.strict else '>='} {bound.low:g}"
        raise ConfigError(where, f"{claim.format(need)}, got {value!r}")


def _read_keys(required: dict, hints: dict, raw, where: str) -> dict:
    """Read the keys of the JSON object ``raw``; ``required`` maps every
    declared key to whether it must be present."""
    if not isinstance(raw, dict):
        raise ConfigError(where, f"expected object, got {_kind(raw)}")
    path = (lambda key: f"{where}.{key}") if where else str
    for key in raw:
        if key not in required:
            raise ConfigError(path(key), "unknown key")
    for key, needed in required.items():
        if needed and key not in raw:
            raise ConfigError(path(key), "missing required key")
    return {key: read(hints[key], raw[key], path(key)) for key in required if key in raw}


def _read_preset(presets: Presets, raw, where: str):
    if not isinstance(raw, dict):
        raise ConfigError(where, f"expected object, got {_kind(raw)}")
    name = raw.get("preset")
    builder = presets.get(name) if isinstance(name, str) else None
    if builder is None:
        raise ConfigError(f"{where}.preset",
                          f"unknown preset {name!r}; one of {', '.join(presets)}")
    params = inspect.signature(builder).parameters.values()
    required = {p.name: p.default is p.empty for p in params if p.kind is p.KEYWORD_ONLY}
    rest = {k: v for k, v in raw.items() if k != "preset"}
    return partial(builder, **_read_keys(required, get_type_hints(builder, include_extras=True),
                                         rest, where))
