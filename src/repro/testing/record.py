"""One report schema, declared once.

What a campaign reports — :class:`~repro.testing.engine.TestReport` and
the coverage and telemetry records riding on it — is *mergeable* (shards
fold into a campaign), *copyable* (a report detaches from the runtime
that produced it) and *shippable*: ``result`` frames, checkpoints and
report files all carry the same JSON document (docs/protocol.md §4 has
the schema table, generated from the tables declared here).  A record
class declares every field once, on one line — name, type,
:func:`field` with its :class:`Rule` — and inherits ``merge``, ``copy``,
``==``, ``encode`` and ``decode`` from :class:`Record`, each written once
over that table.  Adding a counter is one line in one place.

A rule is the four things a field can do: ``merge(mine, theirs)`` (may
update ``mine`` in place, never keeps a reference into ``theirs``; a
rule may add ``fold(mine, values)``, merging many in one pass),
``copy(value)``, ``encode(value)`` to plain JSON data, and
``decode(data)``, which *validates* type and shape — a document is data
from another process, possibly a hostile one — and raises
``ValueError``/``TypeError``; :meth:`Record.decode` turns those into the
one typed :class:`~repro.errors.DocumentError` naming ``Class.field``.
Decoding a report never recurses deeper than the schema nests and never
imports.

Campaign configuration rides the same tables
(:class:`~repro.testing.config.TestConfig`,
:class:`~repro.testing.faults.FaultConfig`,
:class:`~repro.testing.portfolio.StrategySpec`): a :class:`Declared`
class is frozen, and its constructor *is* its decoder — see there.  Its
one rule that does import, by design, is :data:`CLASSES`: a campaign file
names its monitors by import path.

The module also holds the one strict JSON parser (:func:`loads`), the one
atomic file writer (:func:`write_atomic`) and the one document reader
(:func:`read_document`) every file this package writes goes through.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import operator
import os
from typing import (
    Any, Callable, ClassVar, Container, Dict, NamedTuple, Sequence, Tuple,
)

from ..errors import DocumentError, PSharpError


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------
def _same(value: Any) -> Any:
    return value


def _keep(mine: Any, theirs: Any) -> Any:
    return mine


def _null() -> None:
    return None


def describe(data: Any) -> str:
    """A bounded description of a rejected value — never the ``repr`` of
    an array or object, which may nest deeper than the stack."""
    if type(data) in (list, dict):
        return f"a {type(data).__name__}"
    return repr(data[:40] if type(data) is str else data)[:60]


class Rule:
    """What a field does under merge, copy, encode and decode — plus
    ``fresh`` (its default; ``None`` unless said), and ``wire`` /
    ``merged``: how the schema table words its JSON type and its merge.
    ``fold(mine, values)``, when given, is what merging ``values`` into
    ``mine`` one by one gives, in one pass (:meth:`Record.folded`)."""

    __slots__ = (
        "merge", "fold", "copy", "encode", "decode", "fresh", "wire", "merged",
    )

    def __init__(
        self, *, decode, wire, fresh=_null, merge=_keep, merged="the receiver's",
        copy=_same, encode=_same, fold=None,
    ):
        self.merge, self.copy, self.encode, self.decode = merge, copy, encode, decode
        self.fresh, self.wire, self.merged = fresh, wire, merged
        self.fold = fold


class Kind(NamedTuple):
    """A scalar's wire type: the test a decoded value passes (exact types
    — ``True`` is not a count), its wording, its default."""

    test: Callable[[Any], bool]
    wire: str
    fresh: Callable[[], Any]


COUNT = Kind(lambda v: type(v) is int and v >= 0, "integer >= 0", int)
POSITIVE = Kind(lambda v: type(v) is int and v >= 1, "integer >= 1", lambda: 1)
INTEGER = Kind(lambda v: type(v) is int, "integer", int)
INDEX = Kind(lambda v: type(v) is int and v >= -1, "integer >= -1", lambda: -1)
SECONDS = Kind(
    lambda v: type(v) in (int, float) and 0 <= v < float("inf"),
    "finite number >= 0", float,
)
DURATION = Kind(
    lambda v: type(v) in (int, float) and 0 < v < float("inf"),
    "finite number > 0", lambda: 1.0,
)
PROBABILITY = Kind(
    lambda v: type(v) in (int, float) and 0 <= v <= 1, "number in [0, 1]", float
)
FLAG = Kind(lambda v: type(v) is bool, "boolean", bool)
TEXT = Kind(lambda v: type(v) is str, "string", str)


def one_of(*choices: str) -> Kind:
    return Kind(
        lambda v: type(v) is str and v in choices,
        "one of " + ", ".join(choices), lambda: choices[0],
    )


def optional(kind: Kind) -> Kind:
    return Kind(lambda v: v is None or kind.test(v), kind.wire + " or null", _null)


def scalar(kind: Kind, merge: Callable[[Any, Any], Any], merged: str) -> Rule:
    def decode(data: Any) -> Any:
        if not kind.test(data):
            raise ValueError(f"expected {kind.wire}, got {describe(data)}")
        return data

    return Rule(merge=merge, decode=decode, fresh=kind.fresh, wire=kind.wire, merged=merged)


def _unless_null(choose: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    return lambda mine, theirs: (
        theirs if mine is None else mine if theirs is None else choose(mine, theirs)
    )


SUM = scalar(COUNT, operator.add, "sum")
ANY = scalar(FLAG, operator.or_, "or")


def most(kind: Kind = COUNT) -> Rule:
    return scalar(kind, _unless_null(max), "max")


def least(kind: Kind) -> Rule:
    return scalar(kind, _unless_null(min), "min")


def keep(kind: Kind) -> Rule:
    return scalar(kind, _keep, "the receiver's")


def nullable(function: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``function`` lifted to pass ``None`` (JSON ``null``) through."""
    return lambda value: None if value is None else function(value)


def each(function: Callable[[Any], Any]) -> Callable[[list], list]:
    """``function`` lifted to a list, item by item."""
    return lambda items: [function(item) for item in items]


def array_of(decode: Callable[[Any], Any]) -> Callable[[Any], list]:
    """``decode`` lifted to a JSON array of what it decodes."""
    decode_all = each(decode)

    def decode_array(data: Any) -> list:
        if type(data) is not list:
            raise ValueError(f"expected an array, got {describe(data)}")
        return decode_all(data)

    return decode_array


def int_keyed(data: Any) -> Dict[int, Any]:
    """``{"<decimal>": x}`` as ``{int: x}`` — canonical keys only ("7",
    not "07" or " 7": a document has one spelling), none negative."""
    if type(data) is not dict:
        raise ValueError(f"expected an object, got {describe(data)}")
    out = dict(zip(map(int, data), data.values()))
    if set(map(str, out)) != data.keys() or min(out, default=0) < 0:
        raise ValueError("expected decimal integers >= 0 as keys")
    return out


def _add_counts(mine: Dict[Any, int], theirs: Dict[Any, int]) -> Dict[Any, int]:
    for key, count in theirs.items():
        mine[key] = mine.get(key, 0) + count
    return mine


def _counts(wire: str, keyed: Callable[[Any], dict], encode=dict) -> Rule:
    def decode(data: Any) -> Dict[Any, int]:
        out = keyed(data)
        # In bulk, at C speed: a report holds hundreds of these.
        if not set(map(type, out.values())) <= {int} or min(out.values(), default=0) < 0:
            raise ValueError("expected integers >= 0 as counts")
        return out

    return Rule(
        merge=_add_counts, copy=dict, encode=encode, decode=decode,
        fresh=dict, wire=wire, merged="sum per key",
    )


def name_keyed(data: Any) -> Dict[str, Any]:
    if type(data) is not dict or not set(map(type, data)) <= {str}:
        raise ValueError(f"expected an object, got {describe(data)}")
    return dict(data)


def _triple(data: Any) -> Tuple[str, str, str]:
    if type(data) is not list or len(data) != 3 or set(map(type, data)) != {str}:
        raise ValueError(f"expected [state, event, target], got {describe(data)}")
    return tuple(data)


def _triple_keyed(data: Any) -> Dict[Tuple[str, str, str], Any]:
    def row(data: Any) -> Tuple[Tuple[str, str, str], Any]:
        if type(data) is not list or len(data) != 4:
            raise ValueError(f"expected [state, event, target, count], got {describe(data)}")
        return _triple(data[:3]), data[3]

    rows = array_of(row)(data)
    out = dict(rows)
    if len(out) != len(rows):
        raise ValueError("a transition is listed twice")
    return out


#: ``{name: n}`` — states visited, events sent, faults by kind.
COUNTS = _counts("object, name: count", name_keyed)
#: ``{int: n}`` as ``{"<decimal>": n}`` — histogram buckets, per-second rates.
INT_COUNTS = _counts(
    "object, decimal integer: count", int_keyed,
    lambda value: {str(key): count for key, count in value.items()},
)
#: ``{(state, event, target): n}`` as rows (JSON keys cannot be triples).
TRIPLE_COUNTS = _counts(
    "array of [state, event, target, count]", _triple_keyed,
    lambda value: [[*key, count] for key, count in value.items()],
)


def _union(mine: tuple, theirs: tuple) -> tuple:
    # Same-named classes with different declared universes (two modules
    # reusing a class name): union the declarations so neither campaign's
    # uncovered list silently shrinks.
    return mine if mine == theirs else tuple(sorted(set(mine) | set(theirs)))


def _universe(wire: str, decode: Callable[[Any], Any], encode=list) -> Rule:
    decode_all = array_of(decode)
    return Rule(
        merge=_union, encode=encode, decode=lambda data: tuple(decode_all(data)),
        fresh=tuple, wire=wire,
        merged="the receiver's when equal, else the sorted union",
    )


#: A declared universe of names / of ``(state, event, target)`` triples.
NAMES = _universe("array of strings", keep(TEXT).decode)
TRIPLES = _universe("array of [state, event, target]", _triple, each(list))


def plain(what: str) -> Callable[[Any], Any]:
    """An ``encode`` for data carried as it is (a payload, strategy
    parameters): the value when it is JSON, a loud error naming ``what``
    when it is not — campaign files carry plain data only."""

    def encode(value: Any) -> Any:
        try:
            json.dumps(value, sort_keys=True)
        except (TypeError, ValueError, RecursionError) as exc:
            raise PSharpError(
                f"{what} is not JSON-serializable ({exc}); campaign JSON "
                "carries plain data only"
            ) from None
        return value

    return encode


def class_path(cls: type) -> str:
    """``cls`` as the importable ``"module:qualname"`` path a campaign
    file stores a class by — refused loudly when the name would not
    resolve from another process (``__main__`` classes, closures)."""
    path = f"{cls.__module__}:{cls.__qualname__}"
    if cls.__module__ == "__main__" or "<locals>" in cls.__qualname__:
        raise PSharpError(
            f"class {path!r} cannot be serialized to campaign JSON: the "
            "name is not importable from another process (define it in a "
            "module, not __main__ or a function body)"
        )
    return path


def import_class(path: Any) -> type:
    """The class a ``"module:Class"`` path names (a class passes)."""
    if isinstance(path, type):
        return path
    parts = path.split(":") if type(path) is str else ()
    if len(parts) != 2 or not all(parts):
        raise ValueError(f"expected an importable 'module:Class' path, got {describe(path)}")
    module_name, qualname = parts
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise ValueError(f"cannot import {path!r}: {exc}") from None
    if not isinstance(obj, type):
        raise ValueError(f"{path!r} resolved to {describe(obj)}, not a class")
    return obj


def _class_tuple(data: Any) -> Tuple[type, ...]:
    if type(data) not in (list, tuple):
        raise ValueError(f"expected an array, got {describe(data)}")
    return tuple(map(import_class, data))


#: Classes (monitors, crash targets): ``"module:Class"`` paths in a
#: document, imported on decode — what a campaign file names, it loads.
CLASSES = Rule(
    decode=_class_tuple, encode=each(class_path), fresh=tuple,
    wire="array of `module:Class` strings",
)


def nested(cls: type, *, or_null: bool = False) -> Rule:
    """A record inside a record; ``or_null`` when it may be absent (a
    merge then copies the side that has one)."""

    def merge(mine: Any, theirs: Any) -> Any:
        if theirs is None:
            return mine
        return theirs.copy() if mine is None else mine.merge(theirs)

    return Rule(
        merge=merge, decode=nullable(cls.decode) if or_null else cls.decode,
        copy=nullable(cls.copy), encode=nullable(cls.encode),
        fresh=_null if or_null else cls,
        wire=f"{cls.__name__} object" + (" or null" if or_null else ""),
        merged="merge" + (", copying the side that has one" if or_null else ""),
    )


def records(cls: type) -> Rule:
    """Records by name (coverage per machine class)."""
    one = nested(cls, or_null=True)

    def merge(mine: Dict[str, Any], theirs: Dict[str, Any]) -> Dict[str, Any]:
        for name, record in theirs.items():
            mine[name] = one.merge(mine.get(name), record)
        return mine

    def values(function: Callable[[Any], Any]) -> Callable[[dict], dict]:
        return lambda items: {name: function(item) for name, item in items.items()}

    return Rule(
        merge=merge, fresh=dict, copy=values(cls.copy), encode=values(cls.encode),
        decode=lambda data: values(cls.decode)(name_keyed(data)),
        wire=f"object, name: {cls.__name__} object", merged="merge per name",
    )


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------
Fields = Tuple[Tuple[str, Rule], ...]


def encode_fields(source: Any, fields: Fields) -> Dict[str, Any]:
    """``source``'s document: every field of the table, in table order."""
    return {name: rule.encode(getattr(source, name)) for name, rule in fields}


def decode_fields(
    owner: str, fields: Fields, document: Any, optional: Container[str] = (),
) -> Dict[str, Any]:
    """The values a document holds for ``owner``'s table — it must be an
    object with exactly the declared fields (those named ``optional`` may
    be absent), each accepted by its rule — or :class:`DocumentError`."""
    if type(document) is not dict:
        raise DocumentError(f"{owner}: expected an object, got {describe(document)}")
    values = {}
    try:
        for name, rule in fields:
            if name in document or name not in optional:
                values[name] = rule.decode(document[name])
    except KeyError:
        raise DocumentError(f"{owner}: field {name!r} is missing") from None
    except (PSharpError, TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"{owner}.{name}: {exc}") from None
    if len(document) != len(values):
        unknown = sorted(map(describe, document.keys() - values.keys()))
        raise DocumentError(f"{owner}: unknown field(s) {', '.join(unknown[:8])}")
    return values


def field(
    rule: Rule, default: Any = dataclasses.MISSING, *, required: bool = False
) -> Any:
    """The right-hand side of one field line: its rule and its default —
    ``default``, or what the rule starts from (``required`` fields have
    none)."""
    if required:
        return dataclasses.field(metadata={"rule": rule})
    if default is dataclasses.MISSING:
        return dataclasses.field(metadata={"rule": rule}, default_factory=rule.fresh)
    return dataclasses.field(metadata={"rule": rule}, default=default)


def record(cls: Any = None, **options: Any) -> Any:
    """Class decorator: make ``cls`` a dataclass (slotted and compared by
    :class:`Record` unless ``options`` say otherwise) and derive its field
    table from that one declaration, so the two cannot disagree.
    Fields declared without :func:`field` are transient: not merged,
    copied, compared or shipped."""
    if cls is None:
        return lambda cls: record(cls, **options)
    cls = dataclasses.dataclass(**(options or {"eq": False, "slots": True}))(cls)
    declared = [f for f in dataclasses.fields(cls) if "rule" in f.metadata]
    cls.FIELDS = tuple((f.name, f.metadata["rule"]) for f in declared)
    # Record.folded's split: the fields it merges record by record, and
    # those whose rule folds all their values in one pass.
    cls.PAIRWISE = tuple(one for one in cls.FIELDS if one[1].fold is None)
    cls.FOLDS = tuple(one for one in cls.FIELDS if one[1].fold is not None)
    cls.OPTIONAL = frozenset(
        f.name for f in declared
        if f.default is not dataclasses.MISSING
        or f.default_factory is not dataclasses.MISSING
    )
    return cls


def _merge_fields(into: Any, other: Any, fields: Fields) -> Any:
    for name, rule in fields:
        setattr(into, name, rule.merge(getattr(into, name), getattr(other, name)))
    return into


class Record:
    """Base of every mergeable record; see the module docstring."""

    __slots__ = ()
    FIELDS: ClassVar[Fields] = ()
    PAIRWISE: ClassVar[Fields] = ()
    FOLDS: ClassVar[Fields] = ()
    __hash__ = None  # mutable

    def merge(self, other: Any) -> Any:
        """Fold ``other`` into this record (in place) and return self.
        Associative, and commutative wherever the rules are (all but
        "the receiver's")."""
        return _merge_fields(self, other, self.FIELDS)

    @classmethod
    def folded(cls, records: Sequence[Any], **start: Any) -> Any:
        """``cls(**start)`` with ``records`` merged into it in order —
        what merging them one by one gives, a rule with a ``fold``
        taking all its values in one pass."""
        into = cls(**start)
        for one in records:
            _merge_fields(into, one, cls.PAIRWISE)
        for name, rule in cls.FOLDS:
            values = [getattr(one, name) for one in records]
            setattr(into, name, rule.fold(getattr(into, name), values))
        return into

    def copy(self) -> Any:
        """A deep copy sharing no mutable part with this record."""
        return type(self)(
            **{name: rule.copy(getattr(self, name)) for name, rule in self.FIELDS}
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name, _ in self.FIELDS
        )

    def encode(self) -> Dict[str, Any]:
        """This record as plain JSON data (its *document*)."""
        return encode_fields(self, self.FIELDS)

    @classmethod
    def decode(cls, document: Any) -> Any:
        """The record a document describes, or :class:`DocumentError`."""
        return cls(**decode_fields(cls.__name__, cls.FIELDS, document))


class Declared:
    """Base of a frozen configuration class (``@record(frozen=True)``)
    whose constructor is its decoder: every field goes through its rule's
    ``decode``, which reads each spelling the field has — the Python
    value, the CLI string, the JSON form — into the one canonical value.
    So a value is refused at construction with the very
    :class:`DocumentError` (a ``ValueError`` too) its document is refused
    with, and a document may leave out the fields that have defaults."""

    __slots__ = ()
    FIELDS: ClassVar[Fields] = ()
    OPTIONAL: ClassVar[Container[str]] = ()

    def __post_init__(self) -> None:
        values = self.__dict__  # frozen: written past __setattr__
        try:
            for name, rule in self.FIELDS:
                values[name] = rule.decode(values[name])
        except (PSharpError, TypeError, ValueError, OverflowError) as exc:
            raise DocumentError(f"{type(self).__name__}.{name}: {exc}") from None

    def encode(self) -> Dict[str, Any]:
        """The declared fields as plain JSON data."""
        return encode_fields(self, self.FIELDS)

    @classmethod
    def decode(cls, document: Any) -> Any:
        """The value a document describes (an instance passes), or
        :class:`DocumentError`."""
        if isinstance(document, cls):
            return document
        return cls(**decode_fields(cls.__name__, cls.FIELDS, document, cls.OPTIONAL))


# ---------------------------------------------------------------------------
# Text and files
# ---------------------------------------------------------------------------
#: Compact, and strict on the way out too (no ``NaN``).  No cycle check:
#: a document is a tree ``encode`` just built, and the check is half the
#: cost of encoding one.
dumps = json.JSONEncoder(
    separators=(",", ":"), check_circular=False, allow_nan=False
).encode


def _refuse_constant(name: str) -> Any:
    raise ValueError(f"{name} is not JSON")


_parse = json.JSONDecoder(parse_constant=_refuse_constant).decode


def loads(text: "str | bytes") -> Any:
    """Strict JSON: ``ValueError`` on anything else — bad UTF-8,
    ``NaN``/``Infinity`` (which :func:`json.loads` accepts) and nesting
    deep enough to exhaust the stack (``RecursionError``, not a
    ``ValueError``) included."""
    try:
        return _parse(text if isinstance(text, str) else text.decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def write_atomic(path: "str | os.PathLike", text: str) -> None:
    """The one file writer: ``text`` lands at ``path`` whole or not at
    all.  It is written to a temp file next to ``path`` and moved over it
    with ``os.replace``, so a kill (or a full disk) mid-write leaves the
    previous file intact and readers never observe a torn one."""
    path = os.fspath(path)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


#: The version of the files that carry report documents — report files
#: and checkpoints alike — bumped when the report schema changes
#: incompatibly.  Version 3 dropped the stored copies of derived counts
#: (``first_bug_iteration``, ``faults_injected``, ``schedules_pruned``
#: ...); a reader accepts only its own version, so an older file is
#: refused, never misread.
REPORT_VERSION = 3


def read_document(path: "str | os.PathLike", what: str) -> Dict[str, Any]:
    """The one reader of the JSON documents this package writes
    (``what``: "checkpoint", "report"): the object in the file, or a
    one-line :class:`PSharpError` — unreadable, not UTF-8, not JSON, not
    an object, not of :data:`REPORT_VERSION`.  A file an older build
    wrote (a pickle) is reported as such; nothing is ever unpickled."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise PSharpError(f"cannot read {what} file {path!r}: {exc}") from exc
    try:
        document = loads(data)
    except ValueError as exc:
        older = (
            " (a pickle: written by an older build, which this one does "
            "not read — re-run the campaign)" if data[:1] == b"\x80" else ""
        )
        raise PSharpError(f"corrupt {what} file {path!r}: {exc}{older}") from exc
    if type(document) is not dict:
        raise PSharpError(f"corrupt {what} file {path!r}: not a JSON object")
    if document.get("version") != REPORT_VERSION:
        raise PSharpError(
            f"{what} {path!r} has version {describe(document.get('version'))}; "
            f"this build reads version {REPORT_VERSION}"
        )
    return document
