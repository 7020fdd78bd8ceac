"""One declaration per configuration field.

A config class is a dataclass whose fields carry their own range::

    num_partitions: int = spec(8, kind="int", ge=1)
    arrival: str = spec("poisson", choices=ARRIVAL_PROCESSES, noun="arrival process")

:func:`spec` is ``dataclasses.field`` with the constraint in the field's
``metadata``.  Validation (:func:`check`), the dict form (:func:`to_dict` /
:func:`from_dict`, results included), spec diffs, which fields a running
session may change (:func:`live_fields`), ``repro serve``'s ``k=v`` parsing
and the property suite's generator all read that one table.  A class that
shares a field with another reuses its declaration (:func:`declared`).  A
violation reads ``<field> must be <range>, got <value>`` (or ``unknown
<noun> 'x'; available: ...``) in the error type the class passes in.
"""

from __future__ import annotations

import difflib
import math
import operator
from dataclasses import MISSING, field, fields, is_dataclass
from typing import Any, Mapping

from .errors import ReproError

#: kind -> (accepted types, their name in a message); a bool is only a "bool".
_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a finite number"),
    "bool": (bool, "a bool"),
    "str": (str, "a non-empty string"),
}
_BOUNDS = (("ge", operator.ge, ">="), ("gt", operator.gt, ">"),
           ("le", operator.le, "<="), ("lt", operator.lt, "<"))


def spec(default: Any = MISSING, *, kind: str | None = None, ge=None, gt=None,
         le=None, lt=None, choices=None, noun: str | None = None,
         optional: bool = False, nested: type | None = None, each: bool = False,
         omit_none: bool = False, key: str | None = None, live: bool = False,
         **field_kwargs):
    """A dataclass field that declares its own range.

    ``kind`` is ``"int"``, ``"float"`` (any finite real number), ``"bool"`` or
    ``"str"``; ``ge``/``gt``/``le``/``lt`` bound it; ``choices`` (a sequence,
    or a callable returning one) enumerates it and ``noun`` names it in the
    message; ``nested`` names the class an instance must be (:func:`from_dict`
    rebuilds its dict form); ``optional`` admits ``None``; ``each`` applies the
    rule to every element of a tuple (to every value of a mapping, for
    ``nested``); ``omit_none`` keeps ``None`` out of the dict form and ``key``
    names the field there.  ``live`` marks a field a running session may
    change (``ClusterSession.reconfigure`` takes it by its name).
    """
    rule = dict(kind=kind, ge=ge, gt=gt, le=le, lt=lt, choices=choices, noun=noun,
                optional=optional, nested=nested, each=each, omit_none=omit_none,
                key=key, live=live)
    return field(default=default, metadata={"schema": rule}, **field_kwargs)


def declared(cls, name: str, **changes):
    """A new field with ``cls.name``'s default and rule (``changes`` replace
    rule entries): a field two classes share is declared once."""
    f = cls.__dataclass_fields__[name]
    return spec(f.default, default_factory=f.default_factory,
                **{**f.metadata["schema"], **changes})


def rule_of(cls, name: str) -> dict | None:
    """The rule ``cls.name`` declares (``None``: unknown or undeclared field)."""
    declared = cls.__dataclass_fields__.get(name)
    return declared.metadata.get("schema") if declared is not None else None


def _rule(f) -> dict:
    return f.metadata.get("schema") or {}


def live_fields(cls) -> tuple[str, ...]:
    """The names of the fields ``cls`` marks ``live=True``, in field order."""
    return tuple(f.name for f in fields(cls) if _rule(f).get("live"))


def _accepts(rule: dict, value, choices) -> bool:
    if value is None:
        return rule["optional"]
    if rule["nested"] is not None and isinstance(value, rule["nested"]):
        return True
    if choices is not None:
        return value in choices
    kind = rule["kind"]
    if rule["nested"] is not None or kind is not None and (
        isinstance(value, bool) != (kind == "bool")
        or not isinstance(value, _KINDS[kind][0])
        or (kind == "str" and not value)
        or (kind == "float" and not -math.inf < value < math.inf)
    ):
        return False
    return all(rule[key] is None or test(value, rule[key]) for key, test, _ in _BOUNDS)


def _message(rule: dict, name: str, value, choices) -> str:
    if choices is not None and rule["noun"] and value is not None:
        return f"unknown {rule['noun']} {value!r}; available: {', '.join(choices)}"
    if choices is not None:
        expected = "one of " + ", ".join(map(repr, choices))
    elif rule["nested"] is not None:
        expected = f"a {rule['nested'].__name__} or its dict form"
    else:
        expected = _KINDS[rule["kind"]][1] if rule["kind"] else "a value"
        bounds = [f"{sign} {rule[key]!r}" for key, _, sign in _BOUNDS if rule[key] is not None]
        if bounds:
            expected = " and ".join([f"{expected} {bounds[0]}", *bounds[1:]])
    if rule["optional"]:
        expected += " or None"
    shown = type(value).__name__ if rule["nested"] is not None else repr(value)
    return f"{name} must be {expected}, got {shown}"


def check_field(cls, name: str, value, error_cls, prefix: str = "") -> None:
    """Raise ``error_cls`` unless ``value`` is inside ``cls.name``'s range."""
    rule = rule_of(cls, name)
    if rule is not None:
        _check(rule, name, value, error_cls, prefix)


def check_value(name: str, value, error_cls, **rule) -> None:
    """Raise ``error_cls`` unless ``value`` is inside the range ``rule``
    declares (:func:`spec`'s keywords): an argument checked like a field."""
    _check(spec(**rule).metadata["schema"], name, value, error_cls)


def _check(rule: dict, name: str, value, error_cls, prefix: str = "") -> None:
    choices = rule["choices"]() if callable(rule["choices"]) else rule["choices"]
    if rule["each"] and not isinstance(value, (tuple, list)):
        raise error_cls(f"{prefix}{name} must be a tuple, got {value!r}")
    for item in value if rule["each"] else (value,):
        if not _accepts(rule, item, choices):
            raise error_cls(prefix + _message(rule, name, item, choices))


def check(obj, error_cls, prefix: str = "") -> None:
    """Validate every declared field of a config instance, in field order."""
    for f in fields(obj):
        check_field(type(obj), f.name, getattr(obj, f.name), error_cls, prefix)


def _plain(value):
    if value is None or isinstance(value, (str, int, float)):
        return value
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        return to_dict(value)
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, frozenset):
        return sorted(value)
    return [_plain(item) for item in value] if isinstance(value, list) else value


def _key(f) -> str:
    return _rule(f).get("key") or f.name


def to_dict(obj) -> dict:
    """JSON-friendly dict of the init fields, in declaration order."""
    values = {f: getattr(obj, f.name) for f in fields(obj) if f.init}
    return {
        _key(f): _plain(value) for f, value in values.items()
        if value is not None or not _rule(f).get("omit_none")
    }


def coerce(cls, name: str, value, error_cls):
    """``value`` with the dict form of ``cls.name``'s ``nested`` class rebuilt
    as an instance (each value's, under ``each``); a failure raises
    ``error_cls`` naming the field."""
    rule = rule_of(cls, name) or {}
    nested = rule.get("nested")
    if nested is None or not isinstance(value, Mapping):
        return value
    load = getattr(nested, "from_dict", None)
    if load is None and not is_dataclass(nested):
        return value
    load = load or (lambda data: from_dict(nested, data, error_cls, name))
    try:
        if rule["each"]:
            return {label: load(item) for label, item in value.items()}
        return load(value)
    except (TypeError, ValueError, ReproError) as error:
        noun = rule["noun"] or f"{name} configuration"
        raise error_cls(f"invalid {noun}: {error}") from error


def from_dict(cls, data, error_cls, label: str):
    """``cls(**data)`` for a :func:`to_dict` form, nested dict forms rebuilt
    (:func:`coerce`); an unknown or a missing key raises ``error_cls`` naming
    it (and the closest known field)."""
    if not isinstance(data, Mapping):
        raise error_cls(f"{label} must be a mapping, got {type(data).__name__}")
    known = {_key(f): f for f in fields(cls) if f.init}
    hints = [
        f"{name!r}" + "".join(
            f" (did you mean {close!r}?)"
            for close in difflib.get_close_matches(str(name), known, n=1)
        )
        for name in sorted(set(data) - set(known), key=str)
    ]
    if hints:
        raise error_cls(f"unknown {label} field(s): {', '.join(hints)}; "
                        f"valid fields: {', '.join(sorted(known))}")
    for key, f in known.items():
        if key not in data and f.default is MISSING and f.default_factory is MISSING:
            raise error_cls(f"{label} dict is missing {key!r}")
    return cls(**{
        known[key].name: coerce(cls, known[key].name, value, error_cls)
        for key, value in data.items()
    })
