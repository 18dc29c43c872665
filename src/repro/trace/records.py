"""In-memory representation of dynamic instruction execution traces.

A trace consists of a *globals preamble* (one :class:`GlobalSymbol` per
module-level variable, giving its base address and extent — information a
real LLVM-Tracer run exposes through the first ``Load``/``Store`` touching
the global) followed by one :class:`TraceRecord` per executed IR instruction.

Each record carries exactly the information the paper's Fig. 1 describes:

* the source line of the instruction,
* the function it executes in,
* basic block id and label,
* the opcode (numeric, LLVM 3.4 numbering) and its mnemonic,
* the dynamic instruction id (position in execution order),
* one entry per operand and one for the result, each with: operand id, size
  in bits, runtime value, a register-or-variable flag, the register/variable
  name, and — for memory operands — the concrete memory address.

The tracer emits records in split form: a :class:`RecordTemplate` with the
part every execution of one static instruction shares, plus the per-record
dyn id, values, addresses and pointer name.  :func:`record_from_template`
rebuilds the :class:`TraceRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.ir.opcodes import ARITHMETIC_OPCODE_VALUES, Opcode

#: Operand index used for instruction results (paper Fig. 1 uses ``r``).
RESULT_INDEX = "r"
#: Operand index prefix used for callee formal parameters (paper Fig. 6b).
PARAM_INDEX_PREFIX = "p"


@dataclass(slots=True)
class TraceOperand:
    """One operand (or the result) of a dynamic instruction.

    Treat instances as immutable: millions of them are decoded per trace, so
    the class trades the enforced frozenness of a ``frozen=True`` dataclass
    for the ~2x cheaper construction and attribute access of ``slots=True``
    (the trace readers are the hottest path in the system).
    """

    index: str
    bits: int
    value: Union[int, float]
    is_register: bool
    name: str = ""
    address: Optional[int] = None

    @property
    def is_parameter(self) -> bool:
        return self.index.startswith(PARAM_INDEX_PREFIX)

    @property
    def is_memory(self) -> bool:
        return self.address is not None


@dataclass(slots=True)
class TraceRecord:
    """One executed IR instruction (slotted — one per traced instruction)."""

    dyn_id: int
    opcode: int
    opcode_name: str
    function: str
    line: int
    column: int
    bb_label: int
    bb_id: str
    operands: List[TraceOperand] = field(default_factory=list)
    result: Optional[TraceOperand] = None
    callee: str = ""

    # ------------------------------------------------------------------ #
    # Convenience predicates used throughout the analysis
    # ------------------------------------------------------------------ #
    @property
    def op(self) -> Opcode:
        return Opcode(self.opcode)

    @property
    def is_arithmetic(self) -> bool:
        return self.opcode in ARITHMETIC_OPCODE_VALUES

    @property
    def is_load(self) -> bool:
        return self.opcode == Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode == Opcode.STORE

    @property
    def is_alloca(self) -> bool:
        return self.opcode == Opcode.ALLOCA

    @property
    def is_call(self) -> bool:
        return self.opcode == Opcode.CALL

    @property
    def is_gep(self) -> bool:
        return self.opcode == Opcode.GETELEMENTPTR

    def memory_operand(self) -> Optional[TraceOperand]:
        """The named-variable memory operand of a Load/Store/GEP/Alloca."""
        if self.is_load or self.is_gep:
            return self.operands[0] if self.operands else None
        if self.is_store:
            return self.operands[1] if len(self.operands) > 1 else None
        if self.is_alloca:
            return self.result
        return None

    def parameter_operands(self) -> List[TraceOperand]:
        return [op for op in self.operands if op.is_parameter]

    def argument_operands(self) -> List[TraceOperand]:
        return [op for op in self.operands if not op.is_parameter]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TraceRecord #{self.dyn_id} {self.opcode_name} "
                f"{self.function}:{self.line}>")


@dataclass(frozen=True, slots=True)
class OperandTemplate:
    """The static part of one operand slot of a :class:`RecordTemplate`.

    ``name`` is ``None`` when the slot names the variable a pointer travels
    under at run time (the memory operand of a Load/Store/GEP); the emitter
    then passes that name with each record.
    """

    index: str
    bits: int
    is_register: bool
    name: Optional[str]


@dataclass(frozen=True, eq=False)
class RecordTemplate:
    """Everything a static instruction's records share.

    The tracer builds one per executed instruction and run; each execution
    then hands a sink only ``(template, dyn_id, name, values)``, where
    ``values`` is the flat ``(value, address, value, address, ...)`` tuple
    of the operands followed by the result, and ``name`` fills the slots
    whose :attr:`OperandTemplate.name` is ``None``.  Templates compare and
    hash by identity, so sinks can key per-template state on them cheaply.
    """

    opcode: int
    opcode_name: str
    function: str
    line: int
    column: int
    bb_label: int
    bb_id: str
    callee: str
    operands: Tuple[OperandTemplate, ...]
    result: Optional[OperandTemplate] = None


def record_from_template(template: RecordTemplate, dyn_id: int,
                         name: Optional[str],
                         values: Sequence[Union[int, float, None]],
                         ) -> TraceRecord:
    """Rebuild the :class:`TraceRecord` one ``emit`` call describes."""
    operands = []
    for slot, spec in enumerate(template.operands):
        operands.append(TraceOperand(
            spec.index, spec.bits, values[2 * slot], spec.is_register,
            name if spec.name is None else spec.name, values[2 * slot + 1]))
    result = None
    result_spec = template.result
    if result_spec is not None:
        result = TraceOperand(
            result_spec.index, result_spec.bits, values[-2],
            result_spec.is_register,
            name if result_spec.name is None else result_spec.name,
            values[-1])
    return TraceRecord(dyn_id, template.opcode, template.opcode_name,
                       template.function, template.line, template.column,
                       template.bb_label, template.bb_id, operands, result,
                       template.callee)


@dataclass(frozen=True, slots=True)
class GlobalSymbol:
    """Globals preamble entry: name, base address and extent of a module global."""

    name: str
    address: int
    size_bytes: int
    element_bits: int
    is_array: bool

    @property
    def end_address(self) -> int:
        return self.address + self.size_bytes

    def contains(self, address: int) -> bool:
        return self.address <= address < self.end_address


@dataclass
class Trace:
    """A full dynamic trace: globals preamble + execution records."""

    module_name: str = "module"
    globals: List[GlobalSymbol] = field(default_factory=list)
    records: List[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[TraceRecord]) -> None:
        self.records.extend(records)

    def global_symbol(self, name: str) -> Optional[GlobalSymbol]:
        for symbol in self.globals:
            if symbol.name == name:
                return symbol
        return None

    def functions(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record.function not in seen:
                seen.append(record.function)
        return seen

    def records_in_function(self, function: str) -> List[TraceRecord]:
        return [record for record in self.records if record.function == function]

    def slice(self, first_dyn_id: int, last_dyn_id: int) -> List[TraceRecord]:
        """Records whose dynamic id lies in ``[first_dyn_id, last_dyn_id]``."""
        return [record for record in self.records
                if first_dyn_id <= record.dyn_id <= last_dyn_id]
