"""Compact block-indexed binary encoding of dynamic traces.

The line-oriented text format (:mod:`repro.trace.textio`) is human readable
but slow to parse and structurally fragile: partitioning it for the parallel
pre-processing optimization (paper Sec. V-A) requires scanning for block
boundaries, and any confusion between *bytes* and *characters* (multi-byte
identifiers, ``\\r\\n`` line endings) silently corrupts the partitions.  This
module provides the production trace encoding: struct-packed records plus a
footer carrying a *block-offset index*, so partitioning is exact byte
arithmetic by construction and parallel reading is an embarrassingly
parallel seek-and-decode.

File layout (all integers little-endian)::

    header   "ACTB" | u16 version | u16 reserved | u16 len | module name utf-8
    records  one variable-length block per TraceRecord (see below)
    footer   "ACTF" | globals | string table | block index | content digest
    trailer  u64 footer offset | "ACTE"

Since format version 2 the footer also records a **content digest**: the
SHA-256 of every record block (in stream order) followed by the encoded
globals section, maintained incrementally by the writer as it streams.  The
digest identifies the trace *content* independently of the file it lives in,
which is what the artifact store (:mod:`repro.store`) keys analysis results
on — reading it back costs one footer decode, no record I/O.  Version-1
files (no digest field) are still read; their digest is reported as ``None``
and :func:`repro.store.digest.compute_trace_digest` falls back to hashing
the raw file bytes.

Record block::

    i64 dyn id | i32 opcode | i32 line | i32 column | i32 bb label
    u32 opcode-name id | u32 function id | u32 bb-id id | u32 callee id
    u8 operand count | u8 has-result flag
    ... operands ... [result]

Operand::

    u8 flags (bit0 register, bit1 has-address, bits 4-5 value tag)
    u32 index id | i32 bits | u32 name id
    value: i64 (tag 0) / f64 (tag 1) / u32 len + decimal utf-8 (tag 2)
    [u64 address when bit1 set]

All strings in record blocks are interned into the footer's string table and
referenced by u32 id, which both shrinks the file and makes decoding a list
lookup instead of a utf-8 decode.  The block index stores the byte offset of
every ``INDEX_STRIDE``-th record block, so a reader can seek to (almost) any
record without scanning, and :func:`partition_offsets_binary` can split the
file into exact block-aligned byte ranges without reading record data at all.
"""

from __future__ import annotations

import hashlib
import os
import struct
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.trace.records import (
    GlobalSymbol,
    OperandTemplate,
    RecordTemplate,
    Trace,
    TraceOperand,
    TraceRecord,
)

BINARY_MAGIC = b"ACTB"
FOOTER_MAGIC = b"ACTF"
TRAILER_MAGIC = b"ACTE"
#: Version written by :class:`TraceBinaryWriter` (2 adds the footer digest).
BINARY_VERSION = 2
#: Versions :func:`read_layout` accepts.
SUPPORTED_VERSIONS = (1, 2)
#: One block-index entry is emitted every this many records.
INDEX_STRIDE = 256

_HEADER = struct.Struct("<4sHHH")
_TRAILER = struct.Struct("<Q4s")
_RECORD_FIXED = struct.Struct("<qiiiiIIIIBB")
#: ``_RECORD_FIXED`` without its leading dyn id: a template's static part.
_RECORD_TAIL = struct.Struct("<iiiiIIIIBB")
_OPERAND_FIXED = struct.Struct("<BIiI")
#: ``_OPERAND_FIXED`` without its name id (for per-record names).
_OPERAND_HEAD = struct.Struct("<BIi")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_GLOBAL_FIXED = struct.Struct("<QQIB")

_VALUE_INT = 0
_VALUE_FLOAT = 1
_VALUE_BIG = 2

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1
#: Field limits of the format: u16 string lengths, u8 operand counts.
_MAX_STRING_BYTES = 0xFFFF
_MAX_OPERANDS = 0xFF

#: Upper bound of the writer's record buffer; it is hashed and written out
#: whenever the next record would not fit.
WRITE_BUFFER_BYTES = 1 << 20

#: A compiled record packer: ``(Struct.pack_into, block size, argument
#: interleaver, static byte strings)``.
_Packer = Tuple[Callable[..., None], int, Callable[[tuple], tuple],
                Tuple[bytes, ...]]


class BinaryTraceError(ValueError):
    """Raised when a file does not follow the binary trace encoding, or a
    trace holds a field the encoding cannot represent."""


def _checked_utf8(text: str, what: str) -> bytes:
    """``text`` as UTF-8, refused when its u16 length prefix would overflow."""
    data = text.encode()
    if len(data) > _MAX_STRING_BYTES:
        raise BinaryTraceError(
            f"{what} of {len(data)} UTF-8 bytes exceeds the binary trace "
            f"format's limit of {_MAX_STRING_BYTES}: {text[:40]!r}...")
    return data


def is_binary_trace_file(path: str) -> bool:
    """True when ``path`` starts with the binary trace magic."""
    with open(path, "rb") as handle:
        return handle.read(len(BINARY_MAGIC)) == BINARY_MAGIC


# --------------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------------- #
class _BoundTemplate:
    """A :class:`RecordTemplate` whose strings one writer has interned.

    ``tail`` is the packed static part of the record header (everything
    after the dyn id); ``operands`` holds ``(register bit, index id, bits,
    name id)`` per slot, the name id ``None`` for a per-record name.
    ``packers`` caches one compiled packer per *value kinds* key (see
    :meth:`TraceBinaryWriter._compile`).
    """

    __slots__ = ("tail", "operands", "packers")

    def __init__(self, tail: bytes,
                 operands: List[Tuple[int, int, int, Optional[int]]]) -> None:
        self.tail = tail
        self.operands = operands
        self.packers: Dict[tuple, _Packer] = {}


def _widen(kinds: tuple, values: tuple) -> Optional[Tuple[tuple, tuple]]:
    """Re-key a record whose integer values overflow the int64 field.

    Each such value is replaced by its tag-2 encoding (u32 digit count +
    decimal digits) and its kind by that encoding's length, which
    :meth:`TraceBinaryWriter._compile` packs as a byte string.  Returns
    ``None`` when no value overflows (the error lies elsewhere).
    """
    wide_kinds = list(kinds)
    wide_values = list(values)
    for slot in range(0, len(values), 2):
        value = values[slot]
        if kinds[slot] is int and not _INT64_MIN <= value <= _INT64_MAX:
            digits = str(value).encode("ascii")
            wide_values[slot] = _U32.pack(len(digits)) + digits
            wide_kinds[slot] = _U32.size + len(digits)
    if wide_kinds == list(kinds):
        return None
    return tuple(wide_kinds), tuple(wide_values)


class TraceBinaryWriter:
    """Stream a trace to a binary file as it is generated.

    Implements the trace sink protocol (``write_global`` /
    ``emit(template, dyn_id, name, values)``, see
    :class:`repro.trace.records.RecordTemplate`) shared with
    :class:`repro.trace.textio.TraceTextWriter`, so the tracing interpreter
    can stream directly into the binary format.  Globals and the string
    table live in the footer, so they may arrive at any point before
    :meth:`close`.

    Each template is bound on its first record: its strings are interned
    (in record order, so the string table matches a record-by-record
    encoding) and its static header is packed once.  Per record the writer
    then packs only the dyn id, the values and the addresses, with one
    precompiled ``struct`` call into a write buffer of at most
    :data:`WRITE_BUFFER_BYTES`.  The format's field limits (65535-byte
    strings, 255 operands) are checked while binding and interning, so an
    oversized field raises :class:`BinaryTraceError` before any byte of
    its record is buffered.

    The writer also maintains the trace's **content digest** (SHA-256 over
    the record blocks in stream order plus the encoded globals section) as a
    by-product of encoding — the buffer is folded into the hash each time it
    is written out, no second pass — and records it in the footer.  Pass
    ``fileobj`` to encode into an existing binary sink (e.g. a discard sink
    when only the digest is wanted); the writer then never opens or closes a
    file of its own.
    """

    def __init__(self, path: Optional[str], module_name: str = "module",
                 fileobj: Optional[IO[bytes]] = None) -> None:
        if (path is None) == (fileobj is None):
            raise ValueError("pass exactly one of path or fileobj")
        name_bytes = _checked_utf8(module_name, "module name")
        self.path = path
        self.module_name = module_name
        self._owns_handle = fileobj is None
        self._fh: Optional[IO[bytes]] = (open(path, "wb") if fileobj is None
                                         else fileobj)
        self._fh.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, 0,
                                    len(name_bytes)))
        self._fh.write(name_bytes)
        #: file offset of the first byte in the write buffer
        self._flushed = _HEADER.size + len(name_bytes)
        self._buffer = bytearray(WRITE_BUFFER_BYTES)
        self._used = 0
        self._globals: List[GlobalSymbol] = []
        self._strings: List[str] = []
        self._string_ids: Dict[str, int] = {}
        self._bound: Dict[RecordTemplate, _BoundTemplate] = {}
        self._record_templates: Dict[tuple, RecordTemplate] = {}
        self._index: List[int] = []
        self._record_count = 0
        self._digest = hashlib.sha256()
        self._digest_hex: Optional[str] = None

    # ------------------------------------------------------------------ #
    def _intern(self, text: str) -> int:
        string_id = self._string_ids.get(text)
        if string_id is None:
            _checked_utf8(text, "string")
            string_id = len(self._strings)
            self._strings.append(text)
            self._string_ids[text] = string_id
        return string_id

    def _bind(self, template: RecordTemplate,
              name: Optional[str]) -> _BoundTemplate:
        """Intern ``template``'s strings and pack its static header."""
        count = len(template.operands)
        if count > _MAX_OPERANDS:
            raise BinaryTraceError(
                f"{template.opcode_name} record at {template.function}:"
                f"{template.line} has {count} operands; the binary trace "
                f"format holds at most {_MAX_OPERANDS}")
        intern = self._intern
        tail = _RECORD_TAIL.pack(
            template.opcode, template.line, template.column,
            template.bb_label, intern(template.opcode_name),
            intern(template.function), intern(template.bb_id),
            intern(template.callee), count,
            0 if template.result is None else 1)
        slots = list(template.operands)
        if template.result is not None:
            slots.append(template.result)
        operands: List[Tuple[int, int, int, Optional[int]]] = []
        for spec in slots:
            index_id = intern(spec.index)
            if spec.name is None:
                assert name is not None, "per-record operand name missing"
                intern(name)  # this record's name, in field order
                name_id: Optional[int] = None
            else:
                name_id = intern(spec.name)
            operands.append((1 if spec.is_register else 0, index_id,
                             spec.bits, name_id))
        bound = self._bound[template] = _BoundTemplate(tail, operands)
        return bound

    @staticmethod
    def _compile(bound: _BoundTemplate, kinds: tuple) -> _Packer:
        """Build the packer for one value-kinds key of a bound template.

        ``kinds`` holds the type of every value and address (a big integer
        value's kind is the length of its tag-2 encoding).  The packer is
        one ``Struct`` over the whole record plus an ``itemgetter`` that
        interleaves the per-record arguments ``(dyn_id, name_id, *values)``
        with the template's static byte strings.
        """
        values_count = len(kinds)
        statics: List[bytes] = [bound.tail]
        layout = ["<q34s"]
        order = [0, 2 + values_count]
        for slot, (register, index_id, bits, name_id) in enumerate(
                bound.operands):
            value_kind = kinds[2 * slot]
            has_address = kinds[2 * slot + 1] is not type(None)
            if value_kind is float:
                tag, code = _VALUE_FLOAT, "d"
            elif value_kind is int or value_kind is bool:
                tag, code = _VALUE_INT, "q"
            elif isinstance(value_kind, int):
                tag, code = _VALUE_BIG, f"{value_kind}s"
            else:
                raise BinaryTraceError(
                    f"cannot encode an operand value of type "
                    f"{value_kind.__name__}")
            flags = register | (2 if has_address else 0) | (tag << 4)
            order.append(2 + values_count + len(statics))
            if name_id is None:
                statics.append(_OPERAND_HEAD.pack(flags, index_id, bits))
                layout.append(f"{_OPERAND_HEAD.size}sI")
                order.append(1)
            else:
                statics.append(_OPERAND_FIXED.pack(flags, index_id, bits,
                                                   name_id))
                layout.append(f"{_OPERAND_FIXED.size}s")
            layout.append(code)
            order.append(2 + 2 * slot)
            if has_address:
                layout.append("Q")
                order.append(3 + 2 * slot)
        packer = struct.Struct("".join(layout))
        compiled = (packer.pack_into, packer.size, itemgetter(*order),
                    tuple(statics))
        bound.packers[kinds] = compiled
        return compiled

    def emit(self, template: RecordTemplate, dyn_id: int,
             name: Optional[str], values: tuple) -> None:
        """Append one record block (and its index entry when due).

        Args:
            template: the static part of the record; bound (strings
                interned, header packed) on its first record.
            dyn_id: the record's dynamic instruction id.
            name: the variable name filling the template's per-record
                operand name slot (``None`` when it has none).
            values: flat ``(value, address, ...)`` pairs of the operands
                then the result.
        """
        bound = self._bound.get(template)
        if bound is None:
            bound = self._bind(template, name)
        name_id = None if name is None else self._intern(name)
        self._pack(bound, tuple(map(type, values)), dyn_id, name_id, values)

    def _pack(self, bound: _BoundTemplate, kinds: tuple, dyn_id: int,
              name_id: Optional[int], values: tuple) -> None:
        packer = bound.packers.get(kinds)
        if packer is None:
            packer = self._compile(bound, kinds)
        pack_into, size, order, statics = packer
        if self._used + size > WRITE_BUFFER_BYTES:
            self._flush()
        try:
            pack_into(self._buffer, self._used,
                      *order((dyn_id, name_id) + values + statics))
        except struct.error:
            wide = _widen(kinds, values)
            if wide is None:
                raise
            self._pack(bound, wide[0], dyn_id, name_id, wide[1])
            return
        if not self._record_count % INDEX_STRIDE:
            self._index.append(self._flushed + self._used)
        self._used += size
        self._record_count += 1

    def _flush(self) -> None:
        """Fold the buffered record blocks into the digest and write them."""
        if self._used:
            assert self._fh is not None
            chunk = self._buffer[:self._used]
            self._digest.update(chunk)
            self._fh.write(chunk)
            self._flushed += self._used
            self._used = 0

    def write_global(self, symbol: GlobalSymbol) -> None:
        """Queue one module global for the footer's preamble section.

        Args:
            symbol: the global's name, base address and extent.  May be
                called at any point before :meth:`close` (globals live in
                the footer, not ahead of the records).
        """
        assert self._fh is not None
        _checked_utf8(symbol.name, "global name")
        self._globals.append(symbol)

    def write_record(self, record: TraceRecord) -> None:
        """Append an already-built record: :meth:`emit` with a template
        cached per distinct static part (used to re-encode in-memory
        traces)."""
        slots = list(record.operands)
        if record.result is not None:
            slots.append(record.result)
        key = (record.opcode, record.opcode_name, record.function,
               record.line, record.column, record.bb_label, record.bb_id,
               record.callee, len(record.operands),
               tuple((op.index, op.bits, op.is_register, op.name)
                     for op in slots))
        template = self._record_templates.get(key)
        if template is None:
            specs = tuple(OperandTemplate(*spec) for spec in key[9])
            count = key[8]
            template = RecordTemplate(
                *key[:8], operands=specs[:count],
                result=specs[count] if record.result is not None else None)
            self._record_templates[key] = template
        values: List[Union[int, float, None]] = []
        for operand in slots:
            values.append(operand.value)
            values.append(operand.address)
        self.emit(template, record.dyn_id, None, tuple(values))

    @property
    def record_count(self) -> int:
        """Number of record blocks written so far."""
        return self._record_count

    @property
    def digest_hex(self) -> Optional[str]:
        """The trace's content digest; available once :meth:`close` ran."""
        return self._digest_hex

    def _write_footer(self) -> None:
        assert self._fh is not None
        footer_offset = self._flushed
        globals_parts: List[bytes] = []
        for symbol in self._globals:
            name_bytes = symbol.name.encode()
            globals_parts.append(_U16.pack(len(name_bytes)))
            globals_parts.append(name_bytes)
            globals_parts.append(
                _GLOBAL_FIXED.pack(symbol.address, symbol.size_bytes,
                                   symbol.element_bits,
                                   1 if symbol.is_array else 0))
        globals_bytes = b"".join(globals_parts)
        # Content digest = record blocks (already folded in, in stream
        # order) + encoded globals.  The string table and block index are
        # derived data and deliberately excluded.
        self._digest.update(globals_bytes)
        digest = self._digest.digest()
        self._digest_hex = digest.hex()
        out: List[bytes] = [FOOTER_MAGIC, _U32.pack(len(self._globals)),
                            globals_bytes]
        out.append(_U32.pack(len(self._strings)))
        for text in self._strings:
            text_bytes = text.encode()
            out.append(_U16.pack(len(text_bytes)))
            out.append(text_bytes)
        out.append(_U32.pack(INDEX_STRIDE))
        out.append(_U64.pack(self._record_count))
        out.append(_U32.pack(len(self._index)))
        for offset in self._index:
            out.append(_U64.pack(offset))
        out.append(_U8.pack(len(digest)))
        out.append(digest)
        out.append(_TRAILER.pack(footer_offset, TRAILER_MAGIC))
        self._fh.write(b"".join(out))

    def close(self) -> None:
        """Write out the buffered records, then the footer (globals + string
        table + block index + content digest) and the trailer, then close
        the file.  Idempotent; a file without its trailer is detected as
        truncated by :func:`read_layout`.  An externally supplied
        ``fileobj`` is left open (the caller owns it)."""
        if self._fh is not None:
            self._flush()
            self._buffer = bytearray()
            self._write_footer()
            if self._owns_handle:
                self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceBinaryWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_trace_file_binary(trace: Trace, path: str) -> int:
    """Write an in-memory trace to ``path``; return the file size in bytes."""
    with TraceBinaryWriter(path, module_name=trace.module_name) as writer:
        for symbol in trace.globals:
            writer.write_global(symbol)
        for record in trace.records:
            writer.write_record(record)
    return os.path.getsize(path)


# --------------------------------------------------------------------------- #
# Footer / index
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BinaryTraceLayout:
    """Everything the footer knows: globals, string table and block index."""

    module_name: str
    globals: List[GlobalSymbol]
    strings: List[str]
    index_stride: int
    record_count: int
    #: byte offset of every ``index_stride``-th record block
    block_offsets: List[int]
    #: byte offset of the first record block
    records_start: int
    #: byte offset one past the last record block (== footer offset)
    records_end: int
    #: hex SHA-256 of the trace content (``None`` for version-1 files,
    #: which predate the footer digest)
    content_digest: Optional[str] = None

    def seek_position(self, record_index: int) -> Tuple[int, int]:
        """(byte offset, records to skip) to reach ``record_index``."""
        if record_index <= 0 or not self.block_offsets:
            return self.records_start, max(0, record_index)
        entry = min(record_index // self.index_stride,
                    len(self.block_offsets) - 1)
        return (self.block_offsets[entry],
                record_index - entry * self.index_stride)


def _read_exact(handle: IO[bytes], count: int,
                path: Optional[str] = None) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        where = f" {path!r}" if path else ""
        raise BinaryTraceError(f"truncated binary trace file{where}")
    return data


# Footers of same-shaped traces share one compiled Struct for the block
# index; an f-string format would recompile it on every read_layout call.
_BLOCK_OFFSETS_STRUCTS: dict = {}


def _block_offsets_struct(entry_count: int) -> struct.Struct:
    layout = _BLOCK_OFFSETS_STRUCTS.get(entry_count)
    if layout is None:
        layout = struct.Struct(f"<{entry_count}Q")
        _BLOCK_OFFSETS_STRUCTS[entry_count] = layout
    return layout


def _parse_footer(footer: bytes, version: int, module_name: str,
                  records_start: int, footer_offset: int,
                  name: str) -> BinaryTraceLayout:
    """Decode the footer bytes into a :class:`BinaryTraceLayout`.

    The working ``memoryview`` is released deterministically on every exit
    path so callers handing in a slice of an ``mmap`` can close the mapping
    immediately afterwards.
    """
    view = memoryview(footer)
    try:
        if view[:4].tobytes() != FOOTER_MAGIC:
            raise BinaryTraceError(f"{name!r}: corrupt binary trace footer")
        position = 4
        (global_count,) = _U32.unpack_from(view, position)
        position += 4
        globals_: List[GlobalSymbol] = []
        for _ in range(global_count):
            (name_len,) = _U16.unpack_from(view, position)
            position += 2
            symbol_name = (view[position:position + name_len].tobytes()
                           .decode("utf-8"))
            position += name_len
            (address, size_bytes, element_bits,
             is_array) = _GLOBAL_FIXED.unpack_from(view, position)
            position += _GLOBAL_FIXED.size
            globals_.append(GlobalSymbol(name=symbol_name, address=address,
                                         size_bytes=size_bytes,
                                         element_bits=element_bits,
                                         is_array=bool(is_array)))
        (string_count,) = _U32.unpack_from(view, position)
        position += 4
        strings: List[str] = []
        for _ in range(string_count):
            (text_len,) = _U16.unpack_from(view, position)
            position += 2
            strings.append(view[position:position + text_len].tobytes()
                           .decode("utf-8"))
            position += text_len
        (index_stride,) = _U32.unpack_from(view, position)
        position += 4
        (record_count,) = _U64.unpack_from(view, position)
        position += 8
        (entry_count,) = _U32.unpack_from(view, position)
        position += 4
        block_offsets = list(
            _block_offsets_struct(entry_count).unpack_from(view, position))
        position += 8 * entry_count
        content_digest: Optional[str] = None
        if version >= 2:
            (digest_len,) = _U8.unpack_from(view, position)
            position += 1
            content_digest = (view[position:position + digest_len]
                              .tobytes().hex())
    finally:
        view.release()
    return BinaryTraceLayout(module_name=module_name, globals=globals_,
                             strings=strings, index_stride=index_stride,
                             record_count=record_count,
                             block_offsets=block_offsets,
                             records_start=records_start,
                             records_end=footer_offset,
                             content_digest=content_digest)


def read_layout(path: str) -> BinaryTraceLayout:
    """Read the header and footer (globals + string table + index).

    Every failure mode names the offending file in the exception message —
    a truncated, version-skewed or corrupt trace surfaced deep inside a
    batch run must be attributable without a stack trace.
    """
    file_size = os.path.getsize(path)
    with open(path, "rb") as handle:
        magic, version, _, name_len = _HEADER.unpack(
            _read_exact(handle, _HEADER.size, path))
        if magic != BINARY_MAGIC:
            raise BinaryTraceError(f"{path!r} is not a binary trace file")
        if version not in SUPPORTED_VERSIONS:
            raise BinaryTraceError(
                f"{path!r}: unsupported binary trace version {version} "
                f"(supported: {SUPPORTED_VERSIONS})")
        module_name = _read_exact(handle, name_len, path).decode("utf-8")
        records_start = _HEADER.size + name_len
        if file_size < records_start + _TRAILER.size:
            raise BinaryTraceError(f"truncated binary trace file {path!r}")
        handle.seek(file_size - _TRAILER.size)
        footer_offset, trailer = _TRAILER.unpack(
            _read_exact(handle, _TRAILER.size, path))
        if trailer != TRAILER_MAGIC:
            raise BinaryTraceError(
                f"{path!r}: missing binary trace trailer "
                f"(file truncated or still being written)")
        handle.seek(footer_offset)
        footer = handle.read(file_size - _TRAILER.size - footer_offset)
    return _parse_footer(footer, version, module_name, records_start,
                         footer_offset, path)


def layout_from_buffer(buffer, name: Optional[str] = None,
                       ) -> BinaryTraceLayout:
    """Parse the layout from an already-open whole-file buffer / ``mmap``.

    The warm-path counterpart of :func:`read_layout`: callers that just
    wrote a trace (or hold it mapped) hand the bytes straight back to a
    reader without reopening the file or re-reading the footer from disk.
    ``name`` labels error messages (defaults to ``"<buffer>"``).
    """
    name = name or "<buffer>"
    view = memoryview(buffer)
    try:
        file_size = len(view)
        if file_size < _HEADER.size:
            raise BinaryTraceError(f"truncated binary trace file {name!r}")
        magic, version, _, name_len = _HEADER.unpack_from(view, 0)
        if magic != BINARY_MAGIC:
            raise BinaryTraceError(f"{name!r} is not a binary trace file")
        if version not in SUPPORTED_VERSIONS:
            raise BinaryTraceError(
                f"{name!r}: unsupported binary trace version {version} "
                f"(supported: {SUPPORTED_VERSIONS})")
        records_start = _HEADER.size + name_len
        if file_size < records_start + _TRAILER.size:
            raise BinaryTraceError(f"truncated binary trace file {name!r}")
        module_name = (view[_HEADER.size:records_start].tobytes()
                       .decode("utf-8"))
        footer_offset, trailer = _TRAILER.unpack_from(
            view, file_size - _TRAILER.size)
        if trailer != TRAILER_MAGIC:
            raise BinaryTraceError(
                f"{name!r}: missing binary trace trailer "
                f"(file truncated or still being written)")
        footer = view[footer_offset:file_size - _TRAILER.size].tobytes()
    finally:
        view.release()
    return _parse_footer(footer, version, module_name, records_start,
                         footer_offset, name)


def read_preamble_binary(path: str) -> Tuple[str, List[GlobalSymbol]]:
    """Module name and globals of a binary trace (footer read only)."""
    layout = read_layout(path)
    return layout.module_name, layout.globals


# --------------------------------------------------------------------------- #
# Decoder
# --------------------------------------------------------------------------- #
# Operand blocks come in four fixed layouts (int/float value × with/without
# address) plus a rare variable-length one (big integers).  The flags byte
# fully determines the layout, so a 256-entry dispatch table keyed by it
# turns operand decoding into a single precompiled ``unpack_from`` call —
# this is what makes the binary reader several times faster than the text
# parser, which pays one ``str.split`` plus several ``int()`` calls per line.
def _build_operand_table():
    layouts = {
        _VALUE_INT: ("q", _I64), _VALUE_FLOAT: ("d", _F64),
    }
    table: List[Optional[Tuple]] = [None] * 256
    for flags in range(256):
        tag = flags >> 4
        if tag not in layouts:
            continue  # big-int (or invalid) values take the slow path
        value_code = layouts[tag][0]
        has_addr = bool(flags & 2)
        layout = struct.Struct("<BIiI" + value_code + ("Q" if has_addr else ""))
        table[flags] = (layout.unpack_from, layout.size, has_addr,
                        bool(flags & 1))
    return table


_OPERAND_TABLE = _build_operand_table()


def _decode_operand_slow(buf, position: int,
                         strings: List[str]) -> Tuple[TraceOperand, int]:
    """Variable-length (big-integer) and validation fallback."""
    flags, index_id, bits, name_id = _OPERAND_FIXED.unpack_from(buf, position)
    position += _OPERAND_FIXED.size
    tag = flags >> 4
    if tag != _VALUE_BIG:
        raise BinaryTraceError(f"unknown operand value tag {tag}")
    (digit_count,) = _U32.unpack_from(buf, position)
    position += 4
    if position + digit_count > len(buf):
        raise struct.error("big-integer value overruns the buffer")
    value = int(bytes(buf[position:position + digit_count]))
    position += digit_count
    if flags & 2:
        (address,) = _U64.unpack_from(buf, position)
        position += 8
    else:
        address = None
    return TraceOperand(strings[index_id], bits, value, bool(flags & 1),
                        strings[name_id], address), position


def _decode_record(buf, position: int, strings: List[str],
                   ) -> Tuple[TraceRecord, int]:
    """Decode one record block at ``position``; return (record, next position)."""
    (dyn_id, opcode, line, column, bb_label, opcode_name_id, function_id,
     bb_id_id, callee_id, operand_count,
     has_result) = _RECORD_FIXED.unpack_from(buf, position)
    position += _RECORD_FIXED.size
    table = _OPERAND_TABLE
    operands: List[TraceOperand] = []
    result: Optional[TraceOperand] = None
    for slot in range(operand_count + has_result):
        entry = table[buf[position]]
        if entry is None:
            operand, position = _decode_operand_slow(buf, position, strings)
        else:
            unpack, size, has_addr, is_register = entry
            if has_addr:
                _, index_id, bits, name_id, value, address = unpack(
                    buf, position)
            else:
                _, index_id, bits, name_id, value = unpack(buf, position)
                address = None
            position += size
            operand = TraceOperand(strings[index_id], bits, value,
                                   is_register, strings[name_id], address)
        if slot < operand_count:
            operands.append(operand)
        else:
            result = operand
    record = TraceRecord(dyn_id, opcode, strings[opcode_name_id],
                         strings[function_id], line, column, bb_label,
                         strings[bb_id_id], operands, result,
                         strings[callee_id])
    return record, position


def decode_record_range(buf, start: int, end: int,
                        strings: List[str]) -> List[TraceRecord]:
    """Decode every record block in ``buf[start:end]``."""
    records: List[TraceRecord] = []
    append = records.append
    decode = _decode_record
    position = start
    while position < end:
        record, position = decode(buf, position, strings)
        append(record)
    if position != end:
        raise BinaryTraceError("record block overruns its partition")
    return records


# --------------------------------------------------------------------------- #
# Readers
# --------------------------------------------------------------------------- #
class TraceBinaryReader:
    """Read a binary trace back into memory, serially or record by record.

    Accepts either a ``path`` or an already-open whole-file ``buffer`` /
    ``mmap`` (optionally with a pre-read ``layout``), so warm re-reads
    within one process — e.g. ``analyze-batch`` generating a trace and
    immediately analyzing it — skip the reopen and the footer re-parse.
    """

    def __init__(self, path: Optional[str] = None,
                 layout: Optional[BinaryTraceLayout] = None,
                 buffer=None) -> None:
        if (path is None) and (buffer is None):
            raise ValueError("pass a path or an already-open buffer")
        self.path = path
        self._buffer = buffer
        if layout is None:
            layout = (layout_from_buffer(buffer, name=path)
                      if buffer is not None else read_layout(path))
        self.layout = layout

    def read(self) -> Trace:
        """Decode the whole file into an in-memory :class:`Trace`.

        Returns:
            The trace with its globals preamble and every record, in file
            order.
        """
        layout = self.layout
        if self._buffer is not None:
            records = decode_record_range(self._buffer, layout.records_start,
                                          layout.records_end, layout.strings)
        else:
            with open(self.path, "rb") as handle:
                handle.seek(layout.records_start)
                buf = _read_exact(handle,
                                  layout.records_end - layout.records_start)
            records = decode_record_range(buf, 0, len(buf), layout.strings)
        return Trace(module_name=layout.module_name,
                     globals=list(layout.globals), records=records)

    def iter_records(self, start_record: int = 0,
                     chunk_bytes: int = 1 << 20) -> Iterator[TraceRecord]:
        """Yield records starting at ``start_record`` with bounded memory.

        The block index makes the initial seek O(1); a file source is then
        decoded in ``chunk_bytes`` slices so multi-hundred-MB traces never
        have to be resident at once (an in-memory ``buffer`` source is
        decoded in place).
        """
        layout = self.layout
        offset, skip = layout.seek_position(start_record)
        if self._buffer is not None:
            buf = self._buffer
            position = offset
            end = layout.records_end
            strings = layout.strings
            while position < end:
                record, position = _decode_record(buf, position, strings)
                if skip > 0:
                    skip -= 1
                    continue
                yield record
            return
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            to_read = layout.records_end - offset
            buffer = b""
            position = 0
            while True:
                if position >= len(buffer):
                    if to_read <= 0:
                        return
                    buffer = handle.read(min(chunk_bytes, to_read))
                    to_read -= len(buffer)
                    position = 0
                try:
                    record, position = _decode_record(buffer, position,
                                                      layout.strings)
                except (IndexError, struct.error):
                    # Partial block at the end of the buffer (the flags-byte
                    # peek raises IndexError, fixed-layout unpacks raise
                    # struct.error): pull more bytes and retry.
                    if to_read <= 0:
                        raise BinaryTraceError(
                            f"truncated record block in "
                            f"{self.path!r}") from None
                    extra = handle.read(min(chunk_bytes, to_read))
                    to_read -= len(extra)
                    buffer = buffer[position:] + extra
                    position = 0
                    continue
                if skip > 0:
                    skip -= 1
                    continue
                yield record


def _skip_operands(buf, position: int, count: int) -> int:
    """Advance ``position`` past ``count`` encoded operands without decoding.

    The flags byte fully determines each operand's size (the same property
    the decode dispatch table exploits), so skipping costs one byte peek and
    one addition per operand.  Raises :class:`IndexError` / ``struct.error``
    on a partial operand so chunked callers can refill and retry, exactly
    like :func:`_decode_record`.
    """
    table = _OPERAND_TABLE
    for _ in range(count):
        flags = buf[position]
        entry = table[flags]
        if entry is not None:
            position += entry[1]
            continue
        if (flags >> 4) != _VALUE_BIG:
            raise BinaryTraceError(f"unknown operand value tag {flags >> 4}")
        position += _OPERAND_FIXED.size
        (digit_count,) = _U32.unpack_from(buf, position)
        position += 4 + digit_count
        if flags & 2:
            position += 8
    if position > len(buf):
        raise struct.error("operand overruns the buffer")
    return position


_NO_FULL_OPCODES: frozenset = frozenset()


def scan_record_headers(path: str,
                        layout: Optional[BinaryTraceLayout] = None,
                        full_opcodes: frozenset = _NO_FULL_OPCODES,
                        chunk_bytes: int = 1 << 20,
                        ) -> Iterator[Tuple[int, int, int, int, int,
                                            Optional[TraceRecord]]]:
    """Stream every record block's fixed header without decoding operands.

    This is the parallel fused engine's phase-1 fast path: the sequential
    scope scan needs each record's opcode, source line and function (to
    locate the main loop and mirror the call/return structure) but not its
    operands — except for the opcodes in ``full_opcodes`` (``Alloca``, whose
    operands carry the allocation size), which are decoded in full.

    Args:
        path: binary trace file.
        layout: pre-read footer (decoded from ``path`` when omitted).
        full_opcodes: raw opcode values whose records are fully decoded.
        chunk_bytes: read granularity; memory stays bounded by this.

    Yields:
        ``(dyn_id, opcode, line, function_id, callee_id, record)`` per
        record block, in file order.  ``function_id`` / ``callee_id`` are
        string-table ids (resolve via ``layout.strings``); ``record`` is the
        fully decoded :class:`~repro.trace.records.TraceRecord` for opcodes
        in ``full_opcodes`` and ``None`` otherwise.
    """
    layout = layout or read_layout(path)
    strings = layout.strings
    decode = _decode_record
    skip = _skip_operands
    fixed = _RECORD_FIXED
    fixed_size = fixed.size
    with open(path, "rb") as handle:
        handle.seek(layout.records_start)
        to_read = layout.records_end - layout.records_start
        buffer = b""
        position = 0
        while True:
            if position >= len(buffer):
                if to_read <= 0:
                    return
                buffer = handle.read(min(chunk_bytes, to_read))
                to_read -= len(buffer)
                position = 0
            try:
                (dyn_id, opcode, line, _column, _bb_label, _opcode_name_id,
                 function_id, _bb_id_id, callee_id, operand_count,
                 has_result) = fixed.unpack_from(buffer, position)
                if opcode in full_opcodes:
                    record, next_position = decode(buffer, position, strings)
                else:
                    record = None
                    next_position = skip(buffer, position + fixed_size,
                                         operand_count + has_result)
            except (IndexError, struct.error):
                # Partial block at the end of the chunk: refill and retry
                # (same protocol as TraceBinaryReader.iter_records).
                if to_read <= 0:
                    raise BinaryTraceError(
                        f"truncated record block in {path!r}") from None
                extra = handle.read(min(chunk_bytes, to_read))
                to_read -= len(extra)
                buffer = buffer[position:] + extra
                position = 0
                continue
            position = next_position
            yield dyn_id, opcode, line, function_id, callee_id, record


def read_trace_file_binary(path: str) -> Trace:
    """Convenience wrapper around :class:`TraceBinaryReader`."""
    return TraceBinaryReader(path).read()


def iter_trace_file_binary(path: str,
                           start_record: int = 0) -> Iterator[TraceRecord]:
    """Stream the records of a binary trace without materializing the trace."""
    return TraceBinaryReader(path).iter_records(start_record=start_record)


# --------------------------------------------------------------------------- #
# Partitioned (parallel) reading
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BinaryPartition:
    """A byte range of record blocks, exact by construction."""

    index: int
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


def partition_offsets_binary(path_or_layout: Union[str, BinaryTraceLayout],
                             num_partitions: int) -> List[BinaryPartition]:
    """Split the record region into block-aligned byte ranges via the index.

    Unlike the text partitioner there is no boundary *scanning*: every
    candidate boundary comes from the block index, so it is a record start
    by construction and the split is pure byte arithmetic.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    layout = (path_or_layout if isinstance(path_or_layout, BinaryTraceLayout)
              else read_layout(path_or_layout))
    start, end = layout.records_start, layout.records_end
    boundaries = [start]
    for part in range(1, num_partitions):
        target = start + ((end - start) * part) // num_partitions
        entry = bisect_right(layout.block_offsets, target)
        aligned = layout.block_offsets[entry] if entry < len(
            layout.block_offsets) else end
        boundaries.append(max(aligned, boundaries[-1]))
    boundaries.append(end)
    return [BinaryPartition(index=i, start=boundaries[i], end=boundaries[i + 1])
            for i in range(num_partitions)]


def _parse_binary_partition(path: str, start: int, end: int,
                            strings: Optional[List[str]] = None,
                            ) -> List[TraceRecord]:
    """Worker: decode the record blocks in ``[start, end)`` of ``path``."""
    if end <= start:
        return []
    if strings is None:  # process worker: re-read the footer itself
        strings = read_layout(path).strings
    with open(path, "rb") as handle:
        handle.seek(start)
        buf = _read_exact(handle, end - start)
    return decode_record_range(buf, 0, len(buf), strings)


def read_trace_file_binary_parallel(path: str, num_workers: int = 4,
                                    use_processes: bool = False) -> Trace:
    """Read a binary trace by decoding index-aligned partitions concurrently.

    Returns records in file order (identical, record for record, to
    :func:`read_trace_file_binary`); no post-hoc sort is needed because the
    partitions tile the record region in order.
    """
    layout = read_layout(path)
    partitions = partition_offsets_binary(layout, max(1, num_workers))

    if len(partitions) == 1 or num_workers <= 1:
        records = _parse_binary_partition(path, partitions[0].start,
                                          partitions[-1].end, layout.strings)
        return Trace(module_name=layout.module_name,
                     globals=list(layout.globals), records=records)

    executor_cls = ProcessPoolExecutor if use_processes else ThreadPoolExecutor
    chunks: List[Optional[List[TraceRecord]]] = [None] * len(partitions)
    shared_strings = None if use_processes else layout.strings
    with executor_cls(max_workers=num_workers) as executor:
        futures = {
            executor.submit(_parse_binary_partition, path, part.start,
                            part.end, shared_strings): part.index
            for part in partitions
        }
        for future, index in futures.items():
            chunks[index] = future.result()

    records: List[TraceRecord] = []
    for chunk in chunks:
        if chunk:
            records.extend(chunk)
    return Trace(module_name=layout.module_name, globals=list(layout.globals),
                 records=records)
