"""Tower surface language: lexer, parser, types, and lowering to core IR."""

from .ast import FunDef, Program, SizeExpr, TypeDef
from .desugar import Lowered, build_type_table, lower_entry, lower_source
from .lexer import tokenize
from .parser import parse_program, parse_stmts
from ..types import (
    BOOL,
    UINT,
    UNIT,
    BoolT,
    NamedT,
    PtrT,
    TupleT,
    Type,
    TypeTable,
    UIntT,
    UnitT,
)

__all__ = [
    "FunDef",
    "Program",
    "SizeExpr",
    "TypeDef",
    "Lowered",
    "build_type_table",
    "lower_entry",
    "lower_source",
    "tokenize",
    "parse_program",
    "parse_stmts",
    "BOOL",
    "UINT",
    "UNIT",
    "BoolT",
    "NamedT",
    "PtrT",
    "TupleT",
    "Type",
    "TypeTable",
    "UIntT",
    "UnitT",
]
