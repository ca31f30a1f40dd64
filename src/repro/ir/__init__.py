"""repro.ir — the SSA compiler IR substrate.

This package is the stand-in for LLVM IR in the reproduction: an SSA,
structured-control-flow IR with an LLVM-style memory model, a builder
DSL, a verifier, and a printer.  The AD engine (:mod:`repro.ad`) and the
optimization passes (:mod:`repro.passes`) are IR-to-IR transformations,
exactly as Enzyme is an LLVM-pass.
"""

from .builder import IRBuilder
from .function import Function, IntrinsicInfo, Module
from .opinfo import OP_INFO
from .ops import (
    AllocOp,
    AtomicRMWOp,
    BarrierOp,
    Block,
    CallOp,
    ComputeOp,
    ConditionOp,
    ForOp,
    ForkOp,
    FreeOp,
    IfOp,
    LoadOp,
    MemcpyOp,
    MemsetOp,
    Op,
    ParallelForOp,
    PtrAddOp,
    ReturnOp,
    SpawnOp,
    StoreOp,
    WhileOp,
)
from .parser import ParseError, parse_function, parse_module, parse_type
from .printer import print_closure, print_function, print_module
from .types import (
    F64,
    I1,
    I64,
    PointerType,
    Ptr,
    Request,
    Task,
    Token,
    Type,
    Void,
)
from .values import Argument, BlockArg, Constant, Result, Value, as_value
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "IRBuilder", "Function", "Module", "IntrinsicInfo", "OP_INFO",
    "AllocOp", "AtomicRMWOp", "BarrierOp", "Block", "CallOp", "ComputeOp",
    "ConditionOp", "ForOp", "ForkOp", "FreeOp", "IfOp", "LoadOp",
    "MemcpyOp", "MemsetOp", "Op", "ParallelForOp", "PtrAddOp", "ReturnOp",
    "SpawnOp", "StoreOp", "WhileOp",
    "ParseError", "parse_function", "parse_module", "parse_type",
    "print_closure", "print_function", "print_module",
    "F64", "I1", "I64", "PointerType", "Ptr", "Request", "Task", "Token",
    "Type", "Void",
    "Argument", "BlockArg", "Constant", "Result", "Value", "as_value",
    "VerificationError", "verify_function", "verify_module",
]
