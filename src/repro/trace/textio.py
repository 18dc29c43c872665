"""Line-oriented text encoding of dynamic traces, and the format front door.

The encoding is comma-separated, one line per entity, and mirrors the
information content of LLVM-Tracer's output (paper Fig. 1/6):

.. code-block:: text

    #,autocheck-trace,1,<module_name>
    g,<name>,<hex address>,<size bytes>,<element bits>,<is_array>
    0,<dyn id>,<opcode>,<opcode name>,<function>,<line>,<column>,<bb label>,<bb id>,<callee>
    op,<operand id>,<bits>,<is reg>,<name>,<value>,<hex address or ->
    res,<bits>,<is reg>,<name>,<value>,<hex address or ->

Every instruction block starts with a ``0,`` line (exactly as the paper notes
for LLVM-Tracer: "The first line of every operation block always starts with
0"), which is what allows the parallel partitioner to split a trace file at
block boundaries without understanding record internals.

Because the separator is a plain comma with no quoting, names containing
``,`` / ``\\n`` / ``\\r`` cannot be represented; the writer *rejects* them at
write time (:class:`TraceFormatError`) instead of silently emitting a trace
that no longer parses — traces that need arbitrary identifiers should use
the binary format (:mod:`repro.trace.binio`).

This module also hosts the format-sniffing front doors used by the rest of
the system: :func:`read_trace_file`, :func:`read_preamble` and
:func:`iter_trace_records` accept either encoding and dispatch on the magic
bytes.
"""

from __future__ import annotations

import os
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.trace.records import (
    GlobalSymbol,
    RESULT_INDEX,
    RecordTemplate,
    Trace,
    TraceOperand,
    TraceRecord,
    record_from_template,
)

FORMAT_VERSION = 1
HEADER_TAG = "#"
GLOBAL_TAG = "g"
RECORD_TAG = "0"
OPERAND_TAG = "op"
RESULT_TAG = "res"


class TraceFormatError(ValueError):
    """Raised when a trace file does not follow the expected encoding."""


# --------------------------------------------------------------------------- #
# Encoding helpers
# --------------------------------------------------------------------------- #
def _check_field(text: str, what: str) -> str:
    """Reject names the comma-separated format cannot represent.

    Emitting them anyway would silently corrupt the trace (the extra commas
    shift every later field); rejecting at write time turns that into an
    immediate, diagnosable error.  The binary format has no such limits.
    """
    if "," in text or "\n" in text or "\r" in text:
        raise TraceFormatError(
            f"{what} {text!r} contains a comma or newline, which the text "
            f"trace format cannot escape; write the trace in the binary "
            f"format instead")
    return text

def _encode_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _decode_value(text: str) -> Union[int, float]:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _encode_address(address: Optional[int]) -> str:
    return "-" if address is None else hex(address)


def _decode_address(text: str) -> Optional[int]:
    if text == "-" or text == "":
        return None
    return int(text, 16)


def _operand_line(tag: str, operand: TraceOperand) -> str:
    fields = [
        tag,
        _check_field(operand.index, "operand index"),
        str(operand.bits),
        str(int(operand.is_register)),
        _check_field(operand.name, "operand name"),
        _encode_value(operand.value),
        _encode_address(operand.address),
    ]
    if tag == RESULT_TAG:
        fields.pop(1)  # results don't repeat their index (it is always "r")
    return ",".join(fields)


def record_to_lines(record: TraceRecord) -> List[str]:
    """Encode one record as its text lines (header + operands + result)."""
    header = ",".join([
        RECORD_TAG,
        str(record.dyn_id),
        str(record.opcode),
        _check_field(record.opcode_name, "opcode name"),
        _check_field(record.function, "function name"),
        str(record.line),
        str(record.column),
        str(record.bb_label),
        _check_field(record.bb_id, "basic block id"),
        _check_field(record.callee, "callee name"),
    ])
    lines = [header]
    for operand in record.operands:
        lines.append(_operand_line(OPERAND_TAG, operand))
    if record.result is not None:
        lines.append(_operand_line(RESULT_TAG, record.result))
    return lines


def _parse_operand(parts: Sequence[str]) -> TraceOperand:
    # parts: op,<index>,<bits>,<is reg>,<name>,<value>,<addr>
    if len(parts) != 7:
        raise TraceFormatError(
            f"operand line has {len(parts)} fields, expected 7: "
            f"{','.join(parts)!r}")
    return TraceOperand(
        index=parts[1],
        bits=int(parts[2]),
        is_register=bool(int(parts[3])),
        name=parts[4],
        value=_decode_value(parts[5]),
        address=_decode_address(parts[6]),
    )


def _parse_result(parts: Sequence[str]) -> TraceOperand:
    # parts: res,<bits>,<is reg>,<name>,<value>,<addr>
    if len(parts) != 6:
        raise TraceFormatError(
            f"result line has {len(parts)} fields, expected 6: "
            f"{','.join(parts)!r}")
    return TraceOperand(
        index=RESULT_INDEX,
        bits=int(parts[1]),
        is_register=bool(int(parts[2])),
        name=parts[3],
        value=_decode_value(parts[4]),
        address=_decode_address(parts[5]),
    )


def _parse_header(parts: Sequence[str]) -> TraceRecord:
    # parts: 0,<dyn id>,<opcode>,<opcode name>,<function>,<line>,<column>,
    #        <bb label>,<bb id>[,<callee>]
    if len(parts) not in (9, 10):
        raise TraceFormatError(
            f"record header has {len(parts)} fields, expected 9 or 10: "
            f"{','.join(parts)!r}")
    return TraceRecord(
        dyn_id=int(parts[1]),
        opcode=int(parts[2]),
        opcode_name=parts[3],
        function=parts[4],
        line=int(parts[5]),
        column=int(parts[6]),
        bb_label=int(parts[7]),
        bb_id=parts[8],
        callee=parts[9] if len(parts) > 9 else "",
    )


def iter_parsed_records(lines: Iterable[str]) -> Iterator[TraceRecord]:
    """Incrementally parse text lines (no preamble) into complete records.

    A record is yielded only once it is complete, i.e. when the next ``0,``
    block-start line (or the end of the input) is seen.  Lines belonging to
    the globals preamble or the file header are ignored so that callers do
    not need to care which slice of the file they received.
    """
    current: Optional[TraceRecord] = None
    for raw in lines:
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split(",")
        tag = parts[0]
        if tag == RECORD_TAG:
            if current is not None:
                yield current
            current = _parse_header(parts)
        elif tag == OPERAND_TAG:
            if current is None:
                raise TraceFormatError(f"operand line before any record: {line!r}")
            current.operands.append(_parse_operand(parts))
        elif tag == RESULT_TAG:
            if current is None:
                raise TraceFormatError(f"result line before any record: {line!r}")
            current.result = _parse_result(parts)
        elif tag in (HEADER_TAG, GLOBAL_TAG):
            continue
        else:
            raise TraceFormatError(f"unrecognised trace line tag {tag!r}")
    if current is not None:
        yield current


def parse_record_lines(lines: Iterable[str]) -> List[TraceRecord]:
    """Parse a sequence of text lines (no preamble) into records.

    Used both by the serial reader and by the parallel partition workers.
    """
    return list(iter_parsed_records(lines))


# --------------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------------- #
class TraceTextWriter:
    """Stream a trace to a text file as it is generated.

    A trace sink (``write_global`` / ``emit``, see
    :class:`repro.trace.records.RecordTemplate`); ``write_record`` writes an
    already-built record.
    """

    def __init__(self, path: str, module_name: str = "module") -> None:
        self.path = path
        self.module_name = _check_field(module_name, "module name")
        self._fh: Optional[IO[str]] = open(path, "w", encoding="utf-8",
                                           newline="\n")
        self._fh.write(f"{HEADER_TAG},autocheck-trace,{FORMAT_VERSION},{module_name}\n")
        self._record_count = 0

    def write_global(self, symbol: GlobalSymbol) -> None:
        assert self._fh is not None
        self._fh.write(",".join([
            GLOBAL_TAG,
            _check_field(symbol.name, "global name"),
            hex(symbol.address),
            str(symbol.size_bytes),
            str(symbol.element_bits),
            str(int(symbol.is_array)),
        ]) + "\n")

    def write_record(self, record: TraceRecord) -> None:
        assert self._fh is not None
        self._fh.write("\n".join(record_to_lines(record)) + "\n")
        self._record_count += 1

    def emit(self, template: RecordTemplate, dyn_id: int,
             name: Optional[str], values: tuple) -> None:
        """Trace sink entry point: write the record one emission describes."""
        self.write_record(record_from_template(template, dyn_id, name, values))

    @property
    def record_count(self) -> int:
        return self._record_count

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceTextWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_trace_file(trace: Trace, path: str) -> int:
    """Write an in-memory trace to ``path``; return the file size in bytes."""
    with TraceTextWriter(path, module_name=trace.module_name) as writer:
        for symbol in trace.globals:
            writer.write_global(symbol)
        for record in trace.records:
            writer.write_record(record)
    return os.path.getsize(path)


# --------------------------------------------------------------------------- #
# Reader
# --------------------------------------------------------------------------- #
class TraceTextReader:
    """Read a text trace back into memory (serially)."""

    def __init__(self, path: str) -> None:
        self.path = path

    def read(self) -> Trace:
        module_name = "module"
        globals_: List[GlobalSymbol] = []
        record_lines: List[str] = []
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                stripped = line.rstrip("\n")
                if not stripped:
                    continue
                tag = stripped.split(",", 1)[0]
                if tag == HEADER_TAG:
                    parts = stripped.split(",")
                    if len(parts) >= 4:
                        module_name = parts[3]
                elif tag == GLOBAL_TAG:
                    parts = stripped.split(",")
                    globals_.append(GlobalSymbol(
                        name=parts[1],
                        address=int(parts[2], 16),
                        size_bytes=int(parts[3]),
                        element_bits=int(parts[4]),
                        is_array=bool(int(parts[5])),
                    ))
                else:
                    record_lines.append(stripped)
        records = parse_record_lines(record_lines)
        return Trace(module_name=module_name, globals=globals_, records=records)


def iter_trace_file_text(path: str,
                         start_record: int = 0) -> Iterator[TraceRecord]:
    """Stream the records of a text trace without materializing the trace.

    ``start_record`` records are parsed and discarded before yielding begins
    (the text format has no index, so there is no way to seek); binary traces
    seek via their block index instead.
    """
    with open(path, encoding="utf-8") as handle:
        for index, record in enumerate(iter_parsed_records(handle)):
            if index >= start_record:
                yield record


# --------------------------------------------------------------------------- #
# Format-sniffing front doors
# --------------------------------------------------------------------------- #
def sniff_trace_format(path: str) -> str:
    """``"binary"`` or ``"text"``, decided by the file's magic bytes."""
    from repro.trace.binio import is_binary_trace_file

    return "binary" if is_binary_trace_file(path) else "text"


def read_trace_file(path: str) -> Trace:
    """Read a trace file of either encoding (sniffed) into memory."""
    from repro.trace.binio import is_binary_trace_file, read_trace_file_binary

    if is_binary_trace_file(path):
        return read_trace_file_binary(path)
    return TraceTextReader(path).read()


def iter_trace_records(path: str,
                       start_record: int = 0) -> Iterator[TraceRecord]:
    """Stream the records of a trace file of either encoding (sniffed)."""
    from repro.trace.binio import is_binary_trace_file, iter_trace_file_binary

    if is_binary_trace_file(path):
        return iter_trace_file_binary(path, start_record=start_record)
    return iter_trace_file_text(path, start_record=start_record)


def read_preamble(path: str) -> Tuple[str, List[GlobalSymbol]]:
    """Read only the module name and globals of a trace file (sniffed).

    Raises:
        TraceFormatError: on a malformed text preamble — the message names
            the offending file and line, so a bad trace surfaced deep inside
            a batch or cache run is attributable without a stack trace.
        repro.trace.binio.BinaryTraceError: on a truncated or corrupt
            binary trace (the message names the file).
    """
    from repro.trace.binio import is_binary_trace_file, read_preamble_binary

    if is_binary_trace_file(path):
        return read_preamble_binary(path)
    module_name = "module"
    globals_: List[GlobalSymbol] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            stripped = line.rstrip("\n")
            if not stripped:
                continue
            tag = stripped.split(",", 1)[0]
            if tag == HEADER_TAG:
                parts = stripped.split(",")
                if len(parts) >= 4:
                    module_name = parts[3]
            elif tag == GLOBAL_TAG:
                parts = stripped.split(",")
                try:
                    globals_.append(GlobalSymbol(
                        name=parts[1],
                        address=int(parts[2], 16),
                        size_bytes=int(parts[3]),
                        element_bits=int(parts[4]),
                        is_array=bool(int(parts[5])),
                    ))
                except (ValueError, IndexError) as exc:
                    raise TraceFormatError(
                        f"{path!r}: malformed globals preamble line "
                        f"{stripped!r}: {exc}") from exc
            else:
                break
    return module_name, globals_
