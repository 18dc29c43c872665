"""The tracing IR interpreter (LLVM-Tracer substitute).

Executes a compiled :class:`repro.ir.module.Module` starting at ``main``.
Each basic block is compiled on its first entry into one *step* closure per
instruction, with the instruction's class, opcode or predicate, operand
accessors and register ids resolved once, so the run loop does no
per-instruction dispatch.

With a *trace sink* attached, every executed instruction becomes one dynamic
record.  Its static part (opcode, source position, basic block, function,
callee and each operand's index, bits and name) is a
:class:`repro.trace.records.RecordTemplate` built once per instruction and
run; per execution the step hands the sink only the dynamic id, the operand
values and addresses, and the variable name a memory operand's pointer
travels under: ``sink.emit(template, dyn_id, name, values)``.  The sinks are
:class:`InMemoryTraceSink`, :class:`repro.trace.textio.TraceTextWriter` and
:class:`repro.trace.binio.TraceBinaryWriter`.  Without a sink no record data
is built at all.

Block entry hooks allow checkpoint instrumentation and fault injection to
observe and alter a run without touching the program itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BitCastInst,
    BranchInst,
    CallInst,
    CastInst,
    CmpInst,
    GEPInst,
    Instruction,
    LoadInst,
    PrintInst,
    RetInst,
    StoreInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.opcodes import Opcode
from repro.ir.types import ArrayType, PointerType
from repro.ir.values import Argument, Constant, GlobalVariable, Register, Value
from repro.trace.records import (
    RESULT_INDEX,
    GlobalSymbol,
    OperandTemplate,
    RecordTemplate,
    Trace,
    record_from_template,
)
from repro.tracer.faults import SimulatedFailure
from repro.tracer.memory import Allocation, Memory
from repro.tracer.runtime import Runtime, RuntimeError_, format_print_output
from repro.tracer.values import PointerValue, RuntimeValue, as_number


class InterpreterError(Exception):
    """Raised on runtime errors in the interpreted program."""


class InMemoryTraceSink:
    """Collects the dynamic trace in memory (used by tests and benchmarks)."""

    def __init__(self, module_name: str = "module") -> None:
        self.trace = Trace(module_name=module_name)

    def write_global(self, symbol: GlobalSymbol) -> None:
        self.trace.globals.append(symbol)

    def emit(self, template: RecordTemplate, dyn_id: int,
             name: Optional[str], values: tuple) -> None:
        self.trace.records.append(
            record_from_template(template, dyn_id, name, values))


@dataclass
class Frame:
    """One activation record of the interpreted program."""

    function: Function
    args: List[RuntimeValue]
    regs: Dict[int, RuntimeValue] = field(default_factory=dict)
    allocations: Dict[str, Allocation] = field(default_factory=dict)
    stack_mark: int = 0


@dataclass
class HookContext:
    """Information handed to block-entry hooks."""

    interpreter: "Interpreter"
    frame: Frame
    function_name: str
    block_name: str
    entry_count: int


@dataclass
class ExecutionResult:
    """Outcome of one interpreted run."""

    output: List[str]
    return_value: Optional[RuntimeValue]
    steps: int
    failed: bool = False
    failure: Optional[SimulatedFailure] = None
    memory: Optional[Memory] = None

    @property
    def output_text(self) -> str:
        return "\n".join(self.output)


#: What a terminator step returns: ``("branch", block)`` or
#: ``("return", value)``; every other step returns ``None``.
Action = Tuple[str, object]
#: One compiled instruction.
Step = Callable[[Frame], Optional[Action]]
#: Reads one IR operand's runtime value in a frame.
Getter = Callable[[Frame], RuntimeValue]


def _truncate(number: Union[int, float]) -> int:
    return int(number) if number >= 0 else -int(-number)


def _keep(number: Union[int, float]) -> Union[int, float]:
    return int(number) if isinstance(number, int) else number


#: Cast semantics by opcode; other casts (integer width changes and
#: pointer/int casts) are value-preserving (:func:`_keep`).
_CASTS: Dict[Opcode, Callable[[Union[int, float]], Union[int, float]]] = {
    Opcode.SITOFP: float, Opcode.UITOFP: float,
    Opcode.FPEXT: float, Opcode.FPTRUNC: float,
    Opcode.FPTOSI: _truncate, Opcode.FPTOUI: _truncate,
}

_PREDICATES: Dict[str, Callable[..., bool]] = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}

_BINARY: Dict[Opcode, Callable[[Union[int, float], Union[int, float]],
                               Union[int, float]]] = {
    Opcode.ADD: lambda lhs, rhs: int(lhs) + int(rhs),
    Opcode.FADD: lambda lhs, rhs: float(lhs) + float(rhs),
    Opcode.SUB: lambda lhs, rhs: int(lhs) - int(rhs),
    Opcode.FSUB: lambda lhs, rhs: float(lhs) - float(rhs),
    Opcode.MUL: lambda lhs, rhs: int(lhs) * int(rhs),
    Opcode.FMUL: lambda lhs, rhs: float(lhs) * float(rhs),
    Opcode.SDIV: lambda lhs, rhs: math.trunc(int(lhs) / int(rhs)),
    Opcode.UDIV: lambda lhs, rhs: math.trunc(int(lhs) / int(rhs)),
    Opcode.FDIV: lambda lhs, rhs: float(lhs) / float(rhs),
    Opcode.SREM: lambda lhs, rhs: (
        int(lhs) - int(rhs) * math.trunc(int(lhs) / int(rhs))),
    Opcode.UREM: lambda lhs, rhs: (
        int(lhs) - int(rhs) * math.trunc(int(lhs) / int(rhs))),
    Opcode.FREM: lambda lhs, rhs: math.fmod(float(lhs), float(rhs)),
    Opcode.AND: lambda lhs, rhs: 1 if (lhs != 0 and rhs != 0) else 0,
    Opcode.OR: lambda lhs, rhs: 1 if (lhs != 0 or rhs != 0) else 0,
    Opcode.XOR: lambda lhs, rhs: 1 if (lhs != 0) != (rhs != 0) else 0,
}


def _flatten(values: Iterable[RuntimeValue]) -> tuple:
    """``(value, address)`` pairs of runtime values, flat, for ``emit``.

    A pointer's value is its address; numbers have no address.
    """
    flat: List[Union[int, float, None]] = []
    for value in values:
        if isinstance(value, PointerValue):
            flat += (value.address, value.address)
        else:
            flat += (value, None)
    return tuple(flat)


def _operand_template(index: str, value: Value) -> OperandTemplate:
    bits = value.type.size_in_bits() if value.type is not None else 64
    if isinstance(value, Register):
        return OperandTemplate(index, bits, True, str(value.rid))
    if isinstance(value, (GlobalVariable, Argument)):
        return OperandTemplate(index, bits, False, value.name)
    return OperandTemplate(index, bits, False, "")  # Constant


def _result_template(inst: Instruction) -> OperandTemplate:
    assert inst.result is not None
    return OperandTemplate(RESULT_INDEX, inst.result.type.size_in_bits(),
                           True, str(inst.result.rid))


class Interpreter:
    """Execute a module and (optionally) emit its dynamic instruction trace."""

    def __init__(self, module: Module, trace_sink=None, seed: int = 314159,
                 max_steps: int = 50_000_000, max_call_depth: int = 200) -> None:
        self.module = module
        self.sink = trace_sink
        self.runtime = Runtime(seed)
        self.memory = Memory()
        self.output: List[str] = []
        self.frames: List[Frame] = []
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self.steps = 0
        self.global_allocations: Dict[str, Allocation] = {}
        self._block_hooks: Dict[Tuple[str, str], List[Callable[[HookContext], None]]] = {}
        self._block_entry_counts: Dict[Tuple[str, str], int] = {}
        self._blocks: Dict[BasicBlock, Tuple[Tuple[str, str], List[Step]]] = {}
        self._emit = trace_sink.emit if trace_sink is not None else None
        self._globals_ready = False

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def register_block_hook(self, function_name: str, block_name: str,
                            callback: Callable[[HookContext], None]) -> None:
        self._block_hooks.setdefault((function_name, block_name), []).append(callback)

    def block_entry_count(self, function_name: str, block_name: str) -> int:
        return self._block_entry_counts.get((function_name, block_name), 0)

    @property
    def current_frame(self) -> Frame:
        if not self.frames:
            raise InterpreterError("no active frame")
        return self.frames[-1]

    @property
    def dyn_counter(self) -> int:
        """Dynamic id of the most recently executed instruction (each
        instruction emits exactly one record, numbered from 1)."""
        return self.steps

    def resolve_variable(self, name: str,
                         frame: Optional[Frame] = None) -> Optional[Allocation]:
        """Find the allocation backing ``name`` in ``frame`` (or globals)."""
        frame = frame or (self.frames[-1] if self.frames else None)
        if frame is not None and name in frame.allocations:
            return frame.allocations[name]
        return self.global_allocations.get(name)

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    def run(self, entry: str = "main",
            args: Sequence[RuntimeValue] = ()) -> ExecutionResult:
        self._setup_globals()
        failed = False
        failure: Optional[SimulatedFailure] = None
        return_value: Optional[RuntimeValue] = None
        try:
            function = self.module.function(entry)
        except KeyError as exc:
            raise InterpreterError(f"no function named {entry!r}") from exc
        try:
            return_value = self._call_function(function, list(args))
        except SimulatedFailure as exc:
            failed = True
            failure = exc
        return ExecutionResult(output=list(self.output), return_value=return_value,
                               steps=self.steps, failed=failed, failure=failure,
                               memory=self.memory)

    def _setup_globals(self) -> None:
        if self._globals_ready:
            return
        for gvar in self.module.globals:
            value_type = gvar.value_type
            if isinstance(value_type, ArrayType):
                element_bits = value_type.element.size_in_bits()
                count = value_type.count
                is_array = True
            else:
                element_bits = value_type.size_in_bits()
                count = 1
                is_array = False
            allocation = self.memory.allocate_global(gvar.name, element_bits,
                                                     count, is_array)
            self.global_allocations[gvar.name] = allocation
            if gvar.initializer is not None:
                self.memory.store(allocation.address, gvar.initializer)
            if self.sink is not None:
                self.sink.write_global(GlobalSymbol(
                    name=gvar.name, address=allocation.address,
                    size_bytes=allocation.size_bytes,
                    element_bits=element_bits, is_array=is_array))
        self._globals_ready = True

    # ------------------------------------------------------------------ #
    # Function execution
    # ------------------------------------------------------------------ #
    def _call_function(self, function: Function,
                       args: List[RuntimeValue]) -> Optional[RuntimeValue]:
        if len(self.frames) >= self.max_call_depth:
            raise InterpreterError(f"call depth exceeded in {function.name!r}")
        frame = Frame(function=function, args=args,
                      stack_mark=self.memory.stack_mark())
        self.frames.append(frame)
        max_steps = self.max_steps
        try:
            block = function.entry
            while True:
                action: Optional[Action] = None
                for step in self._enter_block(frame, block):
                    self.steps += 1
                    if self.steps > max_steps:
                        raise InterpreterError(
                            f"instruction budget of {max_steps} exceeded "
                            f"(possible infinite loop in {function.name!r})")
                    action = step(frame)
                    if action is not None:
                        break
                if action is None:
                    raise InterpreterError(
                        f"{function.name}/{block.name}: fell off the end of a block")
                kind, payload = action
                if kind == "branch":
                    block = payload  # type: ignore[assignment]
                    continue
                return payload  # type: ignore[return-value]
        finally:
            self.frames.pop()
            self.memory.stack_release(frame.stack_mark)

    def _enter_block(self, frame: Frame, block: BasicBlock) -> List[Step]:
        """Count the entry, run its hooks; return the block's steps."""
        compiled = self._blocks.get(block)
        if compiled is None:
            compiled = self._blocks[block] = (
                (frame.function.name, block.name),
                [self._compile(frame.function, inst)
                 for inst in block.instructions])
        key, steps = compiled
        count = self._block_entry_counts.get(key, 0) + 1
        self._block_entry_counts[key] = count
        hooks = self._block_hooks.get(key)
        if hooks:
            context = HookContext(interpreter=self, frame=frame,
                                  function_name=frame.function.name,
                                  block_name=block.name, entry_count=count)
            for hook in hooks:
                hook(context)
        return steps

    # ------------------------------------------------------------------ #
    # Compilation: operand accessors and record templates
    # ------------------------------------------------------------------ #
    def _compile(self, function: Function, inst: Instruction) -> Step:
        for cls in type(inst).__mro__:
            compiler = _COMPILERS.get(cls)
            if compiler is not None:
                return compiler(self, function, inst)

        def unknown(frame: Frame) -> None:  # pragma: no cover - defensive
            raise InterpreterError(f"cannot execute instruction {inst!r}")
        return unknown

    def _getter(self, value: Value) -> Getter:
        if isinstance(value, Constant):
            constant = value.value
            return lambda frame: constant
        if isinstance(value, Register):
            rid = value.rid

            def register(frame: Frame) -> RuntimeValue:
                try:
                    return frame.regs[rid]
                except KeyError as exc:
                    raise InterpreterError(
                        f"use of unset register %{rid} in "
                        f"{frame.function.name}") from exc
            return register
        if isinstance(value, GlobalVariable):
            allocation = self.global_allocations[value.name]
            pointer = PointerValue(allocation.address, value.name,
                                   allocation.element_bits)
            return lambda frame: pointer
        if isinstance(value, Argument):
            index = value.index
            return lambda frame: frame.args[index]

        def unknown(frame: Frame) -> RuntimeValue:
            raise InterpreterError(f"cannot evaluate operand {value!r}")
        return unknown

    def _template(self, function: Function, inst: Instruction,
                  operands: Iterable[OperandTemplate],
                  result: Optional[OperandTemplate] = None,
                  callee: str = "") -> Optional[RecordTemplate]:
        """The instruction's record template; ``None`` when untraced."""
        if self.sink is None:
            return None
        block = inst.parent
        bb_label = block.label if block is not None else 0
        return RecordTemplate(
            opcode=int(inst.opcode), opcode_name=inst.mnemonic,
            function=function.name, line=inst.line, column=inst.column,
            bb_label=bb_label,
            bb_id=f"{block.first_line}:{bb_label}" if block is not None else "0:0",
            callee=callee, operands=tuple(operands), result=result)

    # ------------------------------------------------------------------ #
    # Per-class step compilers
    # ------------------------------------------------------------------ #
    def _compile_alloca(self, function: Function, inst: AllocaInst) -> Step:
        allocated = inst.allocated_type
        if isinstance(allocated, ArrayType):
            element_bits = allocated.element.size_in_bits()
            count = allocated.count
            is_array = True
        elif isinstance(allocated, PointerType):
            element_bits = 64
            count = 1
            is_array = False
        else:
            element_bits = allocated.size_in_bits()
            count = 1
            is_array = False
        assert inst.result is not None
        rid = inst.result.rid
        name = inst.var_name
        allocate = self.memory.allocate_stack
        template = self._template(
            function, inst, [OperandTemplate("1", 32, False, "count")],
            OperandTemplate(RESULT_INDEX, element_bits, False, name))
        emit = self._emit

        def alloca(frame: Frame) -> None:
            allocation = allocate(name, element_bits, count, is_array,
                                  function.name)
            frame.allocations[name] = allocation
            frame.regs[rid] = PointerValue(allocation.address, name, element_bits)
            if template is not None:
                emit(template, self.steps, None,
                     (count, None, 0, allocation.address))
        return alloca

    def _compile_load(self, function: Function, inst: LoadInst) -> Step:
        get_pointer = self._getter(inst.pointer)
        assert inst.result is not None
        rid = inst.result.rid
        default: RuntimeValue = 0.0 if inst.result.type.is_float else 0
        line = inst.line
        load_cell = self.memory.load
        template = self._template(
            function, inst,
            [OperandTemplate("1", inst.result.type.size_in_bits(), False, None)],
            _result_template(inst))
        emit = self._emit

        def load(frame: Frame) -> None:
            pointer = get_pointer(frame)
            if not isinstance(pointer, PointerValue):
                raise InterpreterError(f"load through a non-pointer value at line {line}")
            value = load_cell(pointer.address, default)
            frame.regs[rid] = value
            if template is not None:
                if isinstance(value, PointerValue):
                    number = address = value.address
                else:
                    number, address = value, None
                emit(template, self.steps, pointer.symbol,
                     (number, pointer.address, number, address))
        return load

    def _compile_store(self, function: Function, inst: StoreInst) -> Step:
        get_value = self._getter(inst.value)
        get_pointer = self._getter(inst.pointer)
        line = inst.line
        store_cell = self.memory.store
        value_bits = inst.value.type.size_in_bits() if inst.value.type else 64
        template = self._template(
            function, inst,
            [_operand_template("1", inst.value),
             OperandTemplate("2", value_bits, False, None)])
        emit = self._emit

        def store(frame: Frame) -> None:
            value = get_value(frame)
            pointer = get_pointer(frame)
            if not isinstance(pointer, PointerValue):
                raise InterpreterError(f"store through a non-pointer value at line {line}")
            if isinstance(value, PointerValue):
                # Storing a pointer into a (parameter) slot: from now on the
                # pointer travels under the slot's name, as LLVM-Tracer reports.
                store_cell(pointer.address, value.with_symbol(pointer.symbol))
                number = address = value.address
            else:
                store_cell(pointer.address, value)
                number, address = value, None
            if template is not None:
                emit(template, self.steps, pointer.symbol,
                     (number, address, number, pointer.address))
        return store

    def _compile_gep(self, function: Function, inst: GEPInst) -> Step:
        get_base = self._getter(inst.base)
        get_index = self._getter(inst.index)
        line = inst.line
        element_bits = inst.element_type.size_in_bits()
        assert inst.result is not None
        rid = inst.result.rid
        template = self._template(
            function, inst,
            [OperandTemplate("1", 64, False, None),
             _operand_template("2", inst.index)],
            _result_template(inst))
        emit = self._emit

        def gep(frame: Frame) -> None:
            base = get_base(frame)
            index = get_index(frame)
            if not isinstance(base, PointerValue):
                raise InterpreterError(f"getelementptr on non-pointer at line {line}")
            if isinstance(index, PointerValue):
                index_number = index_address = index.address
            else:
                index_number, index_address = index, None
            address = base.address + int(index_number) * element_bits // 8
            frame.regs[rid] = PointerValue(address, base.symbol, element_bits)
            if template is not None:
                emit(template, self.steps, base.symbol,
                     (base.address, base.address, index_number, index_address,
                      address, address))
        return gep

    def _compile_bitcast(self, function: Function, inst: BitCastInst) -> Step:
        get = self._getter(inst.operands[0])
        assert inst.result is not None
        rid = inst.result.rid
        result_type = inst.result.type
        pointee_bits = (result_type.pointee.size_in_bits()
                        if isinstance(result_type, PointerType) else None)
        template = self._template(
            function, inst, [_operand_template("1", inst.operands[0])],
            _result_template(inst))
        emit = self._emit

        def bitcast(frame: Frame) -> None:
            value = get(frame)
            if isinstance(value, PointerValue):
                if pointee_bits is not None:
                    value = PointerValue(value.address, value.symbol, pointee_bits)
                number = address = value.address
            else:
                number, address = value, None
            frame.regs[rid] = value
            if template is not None:
                emit(template, self.steps, None,
                     (number, address, number, address))
        return bitcast

    def _compile_cast(self, function: Function, inst: CastInst) -> Step:
        get = self._getter(inst.operands[0])
        convert = _CASTS.get(inst.opcode, _keep)
        assert inst.result is not None
        rid = inst.result.rid
        template = self._template(
            function, inst, [_operand_template("1", inst.operands[0])],
            _result_template(inst))
        emit = self._emit

        def cast(frame: Frame) -> None:
            value = get(frame)
            if isinstance(value, PointerValue):
                number = address = value.address
            else:
                number, address = value, None
            result = convert(number)
            frame.regs[rid] = result
            if template is not None:
                emit(template, self.steps, None, (number, address, result, None))
        return cast

    def _compile_cmp(self, function: Function, inst: CmpInst) -> Step:
        get_lhs = self._getter(inst.operands[0])
        get_rhs = self._getter(inst.operands[1])
        compare = _PREDICATES[inst.predicate]
        assert inst.result is not None
        rid = inst.result.rid
        template = self._template(
            function, inst,
            [_operand_template("1", inst.operands[0]),
             _operand_template("2", inst.operands[1])],
            _result_template(inst))
        emit = self._emit

        def cmp(frame: Frame) -> None:
            lhs = as_number(get_lhs(frame))
            rhs = as_number(get_rhs(frame))
            result = 1 if compare(lhs, rhs) else 0
            frame.regs[rid] = result
            if template is not None:
                emit(template, self.steps, None,
                     (lhs, None, rhs, None, result, None))
        return cmp

    def _compile_binary(self, function: Function, inst: BinaryInst) -> Step:
        get_lhs = self._getter(inst.operands[0])
        get_rhs = self._getter(inst.operands[1])
        opcode = inst.opcode
        compute = _BINARY.get(opcode)
        line = inst.line
        assert inst.result is not None
        rid = inst.result.rid
        template = self._template(
            function, inst,
            [_operand_template("1", inst.operands[0]),
             _operand_template("2", inst.operands[1])],
            _result_template(inst))
        emit = self._emit

        def binary(frame: Frame) -> None:
            lhs = as_number(get_lhs(frame))
            rhs = as_number(get_rhs(frame))
            if compute is None:
                raise InterpreterError(f"unsupported binary opcode {opcode!r}")
            try:
                result = compute(lhs, rhs)
            except ZeroDivisionError as exc:
                raise InterpreterError(f"division by zero at line {line}") from exc
            frame.regs[rid] = result
            if template is not None:
                emit(template, self.steps, None,
                     (lhs, None, rhs, None, result, None))
        return binary

    def _compile_print(self, function: Function, inst: PrintInst) -> Step:
        getters = [self._getter(op) for op in inst.operands]
        labels = inst.labels
        template = self._template(
            function, inst,
            [_operand_template(str(i + 1), op) for i, op in enumerate(inst.operands)],
            callee="print")
        emit = self._emit

        def print_(frame: Frame) -> None:
            values = [as_number(get(frame)) for get in getters]
            self.output.append(format_print_output(labels, values))
            if template is not None:
                emit(template, self.steps, None, _flatten(values))
        return print_

    def _compile_call(self, function: Function, inst: CallInst) -> Step:
        getters = [self._getter(op) for op in inst.operands]
        operands = [_operand_template(str(i + 1), op)
                    for i, op in enumerate(inst.operands)]
        callee = inst.callee
        line = inst.line
        rid = inst.result.rid if inst.result is not None else None
        emit = self._emit

        if inst.is_builtin:
            template = self._template(
                function, inst, operands,
                _result_template(inst) if rid is not None else None,
                callee=callee)
            call_builtin = self.runtime.call

            def builtin(frame: Frame) -> None:
                arg_values = [get(frame) for get in getters]
                try:
                    result = call_builtin(
                        callee, [as_number(value) for value in arg_values])
                except RuntimeError_ as exc:
                    raise InterpreterError(f"{exc} at line {line}") from exc
                if rid is not None:
                    frame.regs[rid] = result
                    arg_values.append(result)  # the record's result slot
                if template is not None:
                    emit(template, self.steps, None, _flatten(arg_values))
            return builtin

        # User function: emit the Call record first (the callee's body follows
        # in the trace — paper Fig. 6b), including parameter name bindings.
        param_count = len(inst.param_names)
        template = self._template(
            function, inst,
            operands + [OperandTemplate(f"p{position + 1}", 64, False, name)
                        for position, name in enumerate(inst.param_names)],
            callee=callee)

        def call(frame: Frame) -> None:
            arg_values = [get(frame) for get in getters]
            if template is not None:
                params = [arg_values[position] if position < len(arg_values) else 0
                          for position in range(param_count)]
                emit(template, self.steps, None, _flatten(arg_values + params))
            try:
                target = self.module.function(callee)
            except KeyError as exc:
                raise InterpreterError(f"call to unknown function {callee!r}") from exc
            returned = self._call_function(target, arg_values)
            if rid is not None:
                frame.regs[rid] = returned if returned is not None else 0
        return call

    def _compile_branch(self, function: Function, inst: BranchInst) -> Step:
        emit = self._emit
        if not inst.is_conditional:
            jump: Action = ("branch", inst.targets[0])
            template = self._template(function, inst, [])

            def branch(frame: Frame) -> Action:
                if template is not None:
                    emit(template, self.steps, None, ())
                return jump
            return branch

        get = self._getter(inst.operands[0])
        taken: Action = ("branch", inst.targets[0])
        not_taken: Action = ("branch", inst.targets[1])
        template = self._template(
            function, inst, [_operand_template("1", inst.operands[0])])

        def conditional_branch(frame: Frame) -> Action:
            condition = as_number(get(frame))
            if template is not None:
                emit(template, self.steps, None, (condition, None))
            return taken if condition != 0 else not_taken
        return conditional_branch

    def _compile_ret(self, function: Function, inst: RetInst) -> Step:
        emit = self._emit
        if not inst.operands:
            template = self._template(function, inst, [])

            def ret_void(frame: Frame) -> Action:
                if template is not None:
                    emit(template, self.steps, None, ())
                return ("return", None)
            return ret_void

        get = self._getter(inst.operands[0])
        template = self._template(
            function, inst, [_operand_template("1", inst.operands[0])])

        def ret(frame: Frame) -> Action:
            value = get(frame)
            if template is not None:
                emit(template, self.steps, None, _flatten((value,)))
            return ("return", value)
        return ret


#: Step compiler per instruction class (looked up along the MRO once per
#: static instruction).
_COMPILERS: Dict[type, Callable[[Interpreter, Function, Instruction], Step]] = {
    AllocaInst: Interpreter._compile_alloca,
    LoadInst: Interpreter._compile_load,
    StoreInst: Interpreter._compile_store,
    GEPInst: Interpreter._compile_gep,
    BitCastInst: Interpreter._compile_bitcast,
    CastInst: Interpreter._compile_cast,
    CmpInst: Interpreter._compile_cmp,
    BinaryInst: Interpreter._compile_binary,
    PrintInst: Interpreter._compile_print,
    CallInst: Interpreter._compile_call,
    BranchInst: Interpreter._compile_branch,
    RetInst: Interpreter._compile_ret,
}
