"""Binary wire codec for :mod:`repro.core.messages`.

Three jobs:

1. **Faithful sizing.**  The simulator charges transmission delay by
   message size, so every message must have a concrete byte length.
   Encoding here uses the layout a compact hand-rolled Java codec (like
   NaradaBrokering's) would produce: one type-tag byte, then big-endian
   fixed-width scalars and length-prefixed UTF-8 strings.
2. **Round-trip integrity.**  ``decode_message(encode_message(m)) == m``
   for every message type, which property tests verify exhaustively.
3. **Raw speed.**  The discovery tier lives or dies by its per-message
   encode/decode cost, so the hot paths are allocation-disciplined:

   * every fixed-layout field group is a precompiled module-level
     :class:`struct.Struct` (no per-call format parsing);
   * each tag's body is decoded by one straight-line function over the
     ``bytes`` buffer with the cursor in a local: no reader object, no
     call per field, positional construction.  ``bytearray`` and
     ``memoryview`` callers are copied to ``bytes`` once at entry --
     copying a 100-byte datagram costs less than one ``memoryview``
     slice object, and a cursor over a view makes one per field;
   * hot identifier strings (broker ids, hostnames, topics, realm and
     group names) are interned at decode time, so the fabric holds one
     object per distinct id and downstream dict/dedup lookups hit the
     pointer-equality fast path, and their length-prefixed encoding is
     memoised at encode time (:data:`_SYM_WIRE`, bounded).  Request
     UUIDs are deliberately neither interned nor memoised -- they are
     unique per request and would pin the table;
   * :func:`wire_size` *computes* the byte length from the precompiled
     layouts without encoding (and without caching message instances --
     the old per-instance LRU pinned every message it ever sized).

Lazy decode
-----------
:func:`lazy_decode` returns a :class:`LazyMessage`: a view over the
buffer that extracts only the type tag (and, on demand, the leading
request/event UUID or the ``(uuid, attempt)`` dedup key) without
materialising the message.  Duplicate suppression -- the paper's LRU of
the last 1000 request UUIDs -- can therefore drop a duplicate having
paid for two length-prefix walks instead of a full decode; the first
sighting materialises once and caches the result.  Any attribute access
on a :class:`LazyMessage` transparently materialises.

Errors
------
Every failure is a typed :class:`~repro.core.errors.CodecError`
carrying the message ``tag``; raw ``struct.error`` or ``IndexError``
never escape, in either direction.  Decode failures -- truncation,
hostile length prefixes, trailing garbage, bad UTF-8 -- also carry the
byte ``offset`` where decoding stopped (every variable-length read is
bounds-checked before the slice, which would silently truncate); a
field that fails validation reports where its message's fields ended.
Encode failures are a string over 64 KiB or a scalar that does not fit
its field (a port of 70000, 256 transports).

Declared once
-------------
The wire format of every tag is its message class: each body field
names its wire kind in its annotation (the kinds and their grammar sit
beside the aliases in :mod:`repro.core.messages`).  :func:`_row` reads
a class's fields, in declaration order, into a row of ``(attribute,
kind)``, and the tag's encoder, decoder, skipper and sizer are compiled
from that row at import, so they cannot drift apart.  ``trace_flag``,
``trace_hop`` and an unannotated ``leader_hint`` are trailers.  Any
other field without a kind, or a body field declared after a trailer,
raises ``TypeError`` at import, naming ``Class.field``: it would
otherwise be left off the wire without a word.
``"".join(linecache.getlines("<repro.core.codec Ack>"))`` shows the
code a class became.
"""

from __future__ import annotations

import linecache
import struct
from dataclasses import fields, is_dataclass, replace
from sys import intern as _intern
from typing import Annotated, get_origin, get_type_hints

from repro.core.errors import CodecError
from repro.core.messages import WIRE_MESSAGE_TYPES, DiscoveryRequest, Message

__all__ = [
    "encode_message",
    "decode_message",
    "lazy_decode",
    "LazyMessage",
    "wire_size",
]

_MAGIC = 0x4E42  # "NB" in ASCII.

# Trace-context trailer: appended after the message body only when the
# message's ``trace_flag`` is set, so untraced messages stay
# byte-identical to the pre-observability wire format (the simulator
# charges delay by byte length, and the golden trace digests pin it).
# Layout: marker byte, then the hop counter as u16.
_TRACE_MARKER = 0x54  # "T"
_TRACE_TRAILER_LEN = 3

# Leader-hint trailer: like trace context, the ``leader_hint`` on
# DiscoveryResponse / DiscoveryBusy is an *optional trailer* (marker
# byte + length-prefixed string) so an empty hint -- every unreplicated
# world -- adds zero bytes and the golden digests stay pinned.  When
# both trailers are present the hint comes first; the trace trailer is
# always last.  An encoded hint is never empty (empty means "absent").
_HINT_MARKER = 0x4C  # "L"

#: Fields that, left unannotated, are optional trailers after the body.
_TRAILERS = frozenset({"trace_flag", "trace_hop", "leader_hint"})


def _row(cls: type) -> tuple:
    """``cls``'s wire body, read off its declaration: ``(attribute, kind)`` per field.

    A field's kind is its ``Annotated`` metadata (a ``frozenset`` field
    adds a third element, ``frozenset``: it is sent sorted), or its class
    when it is typed as a message (a nested body) or as another dataclass
    (its own row, sent in place).  Trailers end the declaration and are
    not in the row.
    """
    hints = get_type_hints(cls, include_extras=True)
    row = []
    trailer = None
    for f in fields(cls):
        hint = hints[f.name]
        if get_origin(hint) is Annotated:
            sent = (f.name, hint.__metadata__[0])
            if get_origin(hint.__origin__) is frozenset:
                sent += (frozenset,)
        elif is_dataclass(hint):
            sent = (f.name, hint)
        elif f.name in _TRAILERS:
            trailer = trailer or f.name
            continue
        else:
            raise TypeError(f"{cls.__name__}.{f.name} has no wire kind and is not a trailer")
        if trailer:
            raise TypeError(f"{cls.__name__}.{f.name} is declared after the trailer {trailer}")
        row.append(sent)
    return tuple(row)


_HEADER = struct.Struct(">HB")  # magic + type tag
_TRACE_TAIL = struct.Struct(">BH")  # trace marker + hop counter
_U16_pack = struct.Struct(">H").pack


# ---------------------------------------------------------------------------
# What the compiled code calls
# ---------------------------------------------------------------------------


def _short(pos: int, need: int, end: int) -> CodecError:
    return CodecError(
        f"truncated message: need {need} bytes at offset {pos}, have {end - pos}",
        offset=pos,
    )


def _bad_utf8(exc: UnicodeDecodeError, start: int) -> CodecError:
    return CodecError(f"invalid UTF-8 in string field: {exc}", offset=start)


def _bad_field(exc: ValueError, pos: int) -> CodecError:
    # Field-level validation (e.g. UsageMetrics range checks) on a
    # corrupted buffer is a protocol error, not a caller bug.
    return CodecError(f"invalid field values in message: {exc}", offset=pos)


def _str_wire(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"string field too long: {len(raw)} bytes")
    return _U16_pack(len(raw)) + raw


#: Wire bytes of the hot identifiers (the "sym" fields), so a
#: steady-state encode neither re-encodes nor re-prefixes them.
#: Bounded: a flood of one-off names costs a refill, never memory.
_SYM_WIRE: dict[str, bytes] = {}
_SYM_WIRE_MAX = 4096


def _sym_wire(value: str) -> bytes:
    """A memo miss: encode ``value`` and remember it."""
    if len(_SYM_WIRE) >= _SYM_WIRE_MAX:
        _SYM_WIRE.clear()
    wire = _SYM_WIRE[value] = _str_wire(value)
    return wire


# ---------------------------------------------------------------------------
# Compiling a row
# ---------------------------------------------------------------------------
#
# Each compiled function is what a careful hand would write for its tag
# -- one straight line over the ``bytes`` buffer, the cursor in a local,
# no reader object and no call per field -- which is why it is
# generated: written out, every string read is seven lines, and
# seventeen tags by four functions of them must be kept in step by
# hand.  Encoders append ready-made chunks to a list joined once at the
# end, the fastest portable way to build small buffers in CPython.  The
# skipper is the decoder's walk without the values (the dedup key of a
# request needs only that).  Decoders check the bounds of every
# read before they slice (a slice past the end silently truncates) and
# raise CodecError, never ``struct.error``, with the offset where the
# buffer ran out.  Sizers sum the same layout arithmetically: nothing
# is encoded and nothing cached, so sizing pins no message.

_STRING_READ = [
    "start = pos + 2",
    "if start > end: raise _short(pos, 2, end)",
    "pos = start + (buf[pos] << 8 | buf[pos + 1])",
    "if pos > end: raise _short(start, pos - start, end)",
]


class _Emitter:
    """Source lines of one body's encoder, decoder, skipper and sizer, field by field."""

    def __init__(self) -> None:
        self.enc: list[str] = []
        self.dec: list[str] = []
        self.skip: list[str] = []  # the decoder's walk without the values it builds
        self.size: list[str] = []  # sizer statements (loops)
        self.terms: list[str] = []  # sizer summands
        self.fixed = 0  # sizer: bytes present whatever the values
        self.run: list[tuple[str, str, str]] = []  # pending scalars: code, value, target

    def walk(self, lines: list[str], *build: str) -> None:
        """``lines`` move the cursor (decoder and skipper); ``build`` keeps what it passed."""
        self.dec += [*lines, *build]
        self.skip += lines

    def flush(self) -> None:
        """Emit the pending scalars as one fused Struct."""
        if not self.run:
            return
        codes, values, targets = zip(*self.run)
        self.run = []
        fused = struct.Struct(">" + "".join(codes))
        name = "_S_" + "".join(codes).replace("?", "b")
        globals()[name] = fused
        self.enc.append(f"parts.append({name}.pack({', '.join(values)}))")
        self.walk(
            [
                f"stop = pos + {fused.size}",
                f"if stop > end: raise _short(pos, {fused.size}, end)",
                f"{', '.join(targets)}, = {name}.unpack_from(buf, pos)",
                "pos = stop",
            ]
        )
        self.fixed += fused.size

    def field(self, kind, value: str, target: str, container: type = tuple) -> str:
        """Emit one field read from ``value``; the expression its decoded form has."""
        if kind == "str" or kind == "sym":
            self.flush()
            sym = kind == "sym"
            self.enc.append(
                f"parts.append(_SYM_WIRE.get({value}) or _sym_wire({value}))"
                if sym
                else f"parts.append(_str_wire({value}))"
            )
            text = "buf[start:pos].decode()"
            self.walk(_STRING_READ, f"{target} = {f'_intern({text})' if sym else text}")
            self.fixed += 2
            # UTF-8 length: CPython tracks an ASCII flag per str, so
            # ``len`` is it for ASCII without touching the characters.
            # Spelled inline, not called: a call per string field was a
            # third of a sizer's time.
            self.terms.append(f"(len(_s) if (_s := {value}).isascii() else len(_s.encode()))")
        elif kind == "data":
            self.run.append(("I", f"len({value})", "n"))
            self.flush()
            self.enc.append(f"parts.append({value})")
            # A hostile length fails the bounds check; it is never an allocation.
            self.walk(
                ["start = pos", "pos += n", "if pos > end: raise _short(start, n, end)"],
                f"{target} = buf[start:pos]",
            )
            self.terms.append(f"len({value})")
        elif isinstance(kind, str):
            self.run.append((kind, value, target))
        elif isinstance(kind, type) and issubclass(kind, Message):
            self.flush()
            self.enc.append(f"_encode_{kind.kind}(parts, {value})")
            self.dec.append(f"{target}, pos = _decode_{kind.kind}(buf, pos, end)")
            self.skip.append(f"pos = _skip_{kind.kind}(buf, pos, end)")
            self.terms.append(f"_size_{kind.kind}({value})")
        elif isinstance(kind, type):
            globals()[kind.__name__] = kind
            made = [
                self.field(k, f"{value}.{name}", f"{target}_{name}", *rest)
                for name, k, *rest in _row(kind)
            ]
            return f"{kind.__name__}({', '.join(made)})"
        else:
            count, *kinds = kind
            self.run.append((count, f"len({value})", "n"))
            self.flush()
            names = [f"{target}_{i}" for i in range(len(kinds))]
            item = _Emitter()
            made = ", ".join(item.field(k, name, name) for k, name in zip(kinds, names))
            item.flush()
            each = f"for {', '.join(names)} in"
            self.enc += [
                f"{each} {f'sorted({value})' if container is frozenset else value}:",
                *_indent(item.enc),
            ]
            self.dec += [
                f"{target} = []",
                "for _ in range(n):",
                *_indent(item.dec),
                f"    {target}.append({made if len(kinds) == 1 else f'({made})'})",
            ]
            self.skip += ["for _ in range(n):", *_indent(item.skip)]
            self.size += [f"{each} {value}:", f"    n += {item.total()}", *_indent(item.size)]
            return f"{container.__name__}({target})"
        return target

    def total(self) -> str:
        """The sizer's sum: the fixed bytes, then one term per variable field."""
        fixed = [str(self.fixed)] if self.fixed or not self.terms else []
        return " + ".join(fixed + self.terms)


def _indent(lines: list[str], by: str = "    ") -> list[str]:
    return [by + line for line in lines]


def _compile(cls: type[Message], row: tuple) -> None:
    """Define ``_encode_<tag>``, ``_decode_<tag>``, ``_skip_<tag>`` and ``_size_<tag>``."""
    body = _Emitter()
    made = [body.field(kind, f"m.{name}", name, *rest) for name, kind, *rest in row]
    body.flush()
    tag = cls.kind
    source = "\n".join(
        [
            f"def _encode_{tag}(parts, m):",
            *_indent(body.enc),
            f"def _decode_{tag}(buf, pos, end):",
            "    try:",
            *_indent(body.dec, "        "),
            f"        return {cls.__name__}({', '.join(made)}), pos",
            "    except UnicodeDecodeError as exc:",
            "        raise _bad_utf8(exc, start) from exc",
            "    except ValueError as exc:",
            "        raise _bad_field(exc, pos) from exc",
            f"def _skip_{tag}(buf, pos, end):",
            *_indent(body.skip),
            "    return pos",
            f"def _size_{tag}(m):",
            f"    n = {body.total()}",
            *_indent(body.size),
            "    return n",
            "",
        ]
    )
    # Registered so that a traceback (or a curious reader) can show it:
    # ``print("".join(linecache.getlines("<repro.core.codec Ack>")))``.
    filename = f"<repro.core.codec {cls.__name__}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    globals()[cls.__name__] = cls  # the decoder constructs it by name
    exec(compile(source, filename, "exec"), globals())


_ROWS = {cls: _row(cls) for cls in WIRE_MESSAGE_TYPES}
for _cls, _body in _ROWS.items():
    _compile(_cls, _body)

_ENCODERS = {cls.kind: globals()[f"_encode_{cls.kind}"] for cls in _ROWS}
_DECODERS = {cls.kind: globals()[f"_decode_{cls.kind}"] for cls in _ROWS}
_SIZERS = {cls.kind: globals()[f"_size_{cls.kind}"] for cls in _ROWS}
if len(_DECODERS) != len(_ROWS):
    raise TypeError("duplicate wire tag in WIRE_MESSAGE_TYPES")


def _trailing(name: str) -> frozenset[int]:
    """Tags that declare ``name`` as a trailer: among the fields after the body."""
    return frozenset(
        c.kind for c, row in _ROWS.items() if any(f.name == name for f in fields(c)[len(row):])
    )


#: Message kinds allowed to carry the trace trailer.
_TRACEABLE_KINDS = _trailing("trace_flag")
#: Message kinds allowed to carry the leader-hint trailer.
_HINTABLE_KINDS = _trailing("leader_hint")

_SKIP_REQUEST = globals()[f"_skip_{DiscoveryRequest.kind}"]

#: Precomputed 3-byte wire header (magic + tag) per message kind.
_HEADER_BYTES = {kind: _HEADER.pack(_MAGIC, kind) for kind in _ENCODERS}


def encode_message(message: Message) -> bytes:
    """Serialise ``message`` to its binary wire form.

    Raises
    ------
    CodecError
        For a type with no wire form, a string over 64 KiB, or a scalar
        that does not fit its field; the error carries the ``tag``.
    """
    kind = type(message).kind
    encoder = _ENCODERS.get(kind)
    if encoder is None:
        raise CodecError(f"cannot encode message type {type(message).__name__}")
    parts = [_HEADER_BYTES[kind]]
    try:
        encoder(parts, message)
        if kind in _HINTABLE_KINDS and message.leader_hint:
            hint = message.leader_hint
            parts.append(b"\x4c")  # _HINT_MARKER
            parts.append(_SYM_WIRE.get(hint) or _sym_wire(hint))
        if kind in _TRACEABLE_KINDS and message.trace_flag:
            parts.append(_TRACE_TAIL.pack(_TRACE_MARKER, message.trace_hop))
    except CodecError as exc:
        exc.tag = kind
        raise
    except (struct.error, OverflowError) as exc:
        raise CodecError(
            f"{type(message).__name__} field does not fit the wire format: {exc}", tag=kind
        ) from exc
    return b"".join(parts)


def _check_header(buf: bytes) -> int:
    """Validate magic and tag; return the tag."""
    if len(buf) < 3:
        raise CodecError(
            f"truncated message: need 3 bytes at offset 0, have {len(buf)}", offset=0
        )
    magic = (buf[0] << 8) | buf[1]
    if magic != _MAGIC:
        raise CodecError(f"bad magic 0x{magic:04x}, expected 0x{_MAGIC:04x}", offset=0)
    tag = buf[2]
    if tag not in _DECODERS:
        raise CodecError(f"unknown message type tag {tag}", tag=tag, offset=2)
    return tag


def _decode_body(buf: bytes, tag: int) -> Message:
    """Decode the message body (and trailers) after a validated header."""
    end = len(buf)
    try:
        message, pos = _DECODERS[tag](buf, 3, end)
        if pos != end:
            message = _decode_trailers(buf, pos, end, tag, message)
        return message
    except CodecError as exc:
        if exc.tag is None:
            exc.tag = tag
        raise
    except (struct.error, IndexError, OverflowError) as exc:
        # Defence in depth: every read above bounds-checks before it
        # unpacks, so this should be unreachable -- but a raw
        # struct.error must never escape the codec.
        raise CodecError(f"malformed message body: {exc}", tag=tag, offset=end) from exc


def decode_message(buf: bytes | bytearray | memoryview) -> Message:
    """Parse a binary buffer back into its message object.

    Raises
    ------
    CodecError
        On a bad magic number, unknown type tag, truncated buffer, or
        trailing garbage.  The error carries the message ``tag`` and
        the byte ``offset`` where decoding stopped.
    """
    if type(buf) is not bytes:
        buf = bytes(buf)
    return _decode_body(buf, _check_header(buf))


def _str(buf: bytes, pos: int, end: int) -> tuple[str, int]:
    """One length-prefixed string outside a compiled body: ``(value, next offset)``."""
    start = pos + 2
    if start > end:
        raise _short(pos, 2, end)
    stop = start + (buf[pos] << 8 | buf[pos + 1])
    if stop > end:
        raise _short(start, stop - start, end)
    try:
        return buf[start:stop].decode(), stop
    except UnicodeDecodeError as exc:
        raise _bad_utf8(exc, start) from exc


def _decode_trailers(buf: bytes, pos: int, end: int, tag: int, message: Message) -> Message:
    """Parse the optional trailers (leader hint, then trace context).

    Anything that is not exactly a well-formed trailer sequence ending
    the buffer is trailing garbage.
    """
    marker = buf[pos]
    pos += 1
    if marker == _HINT_MARKER and tag in _HINTABLE_KINDS:
        hint, pos = _str(buf, pos, end)
        if not hint:
            raise CodecError("empty leader-hint trailer", tag=tag, offset=pos)
        message = replace(message, leader_hint=_intern(hint))
        if pos == end:
            return message
        marker = buf[pos]
        pos += 1
    if marker == _TRACE_MARKER and tag in _TRACEABLE_KINDS and end - pos == 2:
        return replace(message, trace_flag=True, trace_hop=buf[pos] << 8 | buf[pos + 1])
    raise CodecError("trailing bytes after message body", tag=tag, offset=pos)


# ---------------------------------------------------------------------------
# Lazy decode
# ---------------------------------------------------------------------------

#: Tags whose first body field is the request/event UUID (the one
#: uninterned string kind), extractable without touching the rest of
#: the buffer.
_UUID_FIRST_TAGS = frozenset(c.kind for c, row in _ROWS.items() if row[0][1] == "str")


def _lazy_request_key(buf: bytes) -> tuple[str, int]:
    """Extract a DiscoveryRequest's ``(uuid, attempt)`` dedup key.

    Walks the request layout by length prefixes only: no UTF-8 decode of
    the skipped fields, no tuple/frozenset construction, no dataclass.
    Truncation and trailing garbage still raise :class:`CodecError`, so
    a buffer that yields a key is structurally sound (field *content*
    is only validated on materialisation).
    """
    end = len(buf)
    uuid, _ = _str(buf, 3, end)
    stop = _SKIP_REQUEST(buf, 3, end)
    if stop != end and not (end - stop == _TRACE_TRAILER_LEN and buf[stop] == _TRACE_MARKER):
        raise CodecError(
            "trailing bytes after message body", tag=DiscoveryRequest.kind, offset=stop
        )
    return uuid, buf[stop - 1]  # attempt is the body's last byte


class LazyMessage:
    """A decoded-on-demand view over one wire buffer.

    Construction (:func:`lazy_decode`) validates only the 3-byte header;
    the body stays as bytes until a field is needed:

    * :attr:`tag` -- the message type tag, free.
    * :attr:`request_uuid` -- the leading UUID string for request/
      response-shaped messages, decoded from a single length-prefixed
      slice.
    * :meth:`request_key` -- a DiscoveryRequest's ``(uuid, attempt)``
      dedup key via a length-prefix walk (no full decode).
    * :meth:`message` / any other attribute access -- materialises the
      full message once and caches it; subsequent accesses are plain
      delegation.

    This is what lets duplicate suppression (the paper's LRU over the
    last 1000 request UUIDs) drop a duplicate without ever paying for a
    full decode.
    """

    __slots__ = ("_buf", "tag", "_message", "_uuid")

    def __init__(self, buf: bytes, tag: int) -> None:
        self._buf = buf
        self.tag = tag
        self._message: Message | None = None
        self._uuid: str | None = None

    @property
    def message(self) -> Message:
        """The fully materialised message (decoded once, cached)."""
        m = self._message
        if m is None:
            m = self._message = _decode_body(self._buf, self.tag)
        return m

    @property
    def request_uuid(self) -> str:
        """The leading UUID without a full decode (where the layout
        starts with one); falls back to materialising otherwise."""
        u = self._uuid
        if u is None:
            if self._message is not None or self.tag not in _UUID_FIRST_TAGS:
                m = self.message
                u = getattr(m, "uuid", None) or getattr(m, "request_uuid", "")
            else:
                u, _ = _str(self._buf, 3, len(self._buf))
            self._uuid = u
        return u

    def request_key(self) -> tuple[str, int]:
        """A DiscoveryRequest's ``(uuid, attempt)`` dedup key, extracted
        without materialising the message."""
        if self.tag != DiscoveryRequest.kind:
            raise CodecError(
                f"request_key on tag {self.tag}, not a DiscoveryRequest", tag=self.tag
            )
        m = self._message
        if m is not None:
            return (m.uuid, m.attempt)
        return _lazy_request_key(self._buf)

    def __getattr__(self, name: str):
        # Only reached for names that are not slots/properties: any
        # message field access transparently materialises.
        return getattr(self.message, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "materialized" if self._message is not None else "lazy"
        return f"<LazyMessage tag={self.tag} {state} {len(self._buf)}B>"


def lazy_decode(buf: bytes | bytearray | memoryview) -> LazyMessage:
    """Wrap a wire buffer in a :class:`LazyMessage` view.

    Validates only the magic number and type tag; raises
    :class:`CodecError` for anything that could never decode.  The body
    is parsed on first field access.  A mutable ``buf`` is copied: the
    view never pins, or changes under, a caller's buffer.
    """
    if type(buf) is not bytes:
        buf = bytes(buf)
    return LazyMessage(buf, _check_header(buf))


# ---------------------------------------------------------------------------
# Sizing
# ---------------------------------------------------------------------------


def wire_size(message: Message) -> int:
    """Byte length of ``message`` on the wire (header included).

    Computed arithmetically from the precompiled layouts -- nothing is
    encoded and nothing is cached, so sizing a message neither allocates
    a buffer nor pins the instance in memory.
    """
    kind = type(message).kind
    sizer = _SIZERS.get(kind)
    if sizer is None:
        raise CodecError(f"cannot encode message type {type(message).__name__}")
    n = 3 + sizer(message)
    if kind in _HINTABLE_KINDS and (hint := message.leader_hint):
        n += 3 + (len(hint) if hint.isascii() else len(hint.encode()))
    if kind in _TRACEABLE_KINDS and message.trace_flag:
        n += _TRACE_TRAILER_LEN
    return n
