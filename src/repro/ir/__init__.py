"""Middle-end IR: the substrate standing in for LLVM (paper §3.3).

Public surface::

    from repro.ir import (
        Module, Function, BasicBlock, IRBuilder,
        types, values, instructions,
        print_module, parse_module, verify_module,
    )
"""

from . import instructions, types, values
from .builder import IRBuilder
from .instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    FCmp,
    Gep,
    ICmp,
    InlineAsm,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from .module import BasicBlock, Function, Module
from .parser import IRParseError, parse_module
from .printer import print_function, print_instruction, print_module
from .types import (
    F32,
    F64,
    I1,
    I8,
    I8PTR,
    I16,
    I32,
    I64,
    VOID,
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    IRType,
    PointerType,
    StructType,
    VoidType,
    ptr,
)
from .values import (
    Argument,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalValue,
    GlobalVariable,
    UndefValue,
    Value,
)
from .verifier import (
    VerificationError, verify_function, verify_functions, verify_module,
)

__all__ = [
    "Alloca", "ArrayType", "Argument", "BasicBlock", "BinOp", "Br", "Call",
    "Cast", "Constant", "ConstantFloat", "ConstantInt", "ConstantNull",
    "ConstantString", "F32", "F64", "FCmp", "FloatType", "Function",
    "FunctionType", "Gep", "GlobalValue", "GlobalVariable", "I1", "I16",
    "I32", "I64", "I8", "I8PTR", "ICmp", "InlineAsm", "IRBuilder",
    "IRParseError", "IRType", "Instruction", "IntType", "Load", "Module",
    "Phi", "PointerType", "Ret", "Select", "Store", "StructType", "Switch",
    "UndefValue", "Unreachable", "VOID", "Value", "VerificationError",
    "VoidType", "instructions", "parse_module", "print_function",
    "print_instruction", "print_module", "ptr", "types", "values",
    "verify_function", "verify_functions", "verify_module",
]
