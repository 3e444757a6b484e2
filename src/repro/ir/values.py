"""IR values: virtual registers, constants, and global references."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.types import ScalarType, Type


class Value:
    """Base class for anything an instruction can consume as an operand."""

    type: Type


@dataclass(eq=False)
class Register(Value):
    """A virtual register.

    Registers are identified by their ``index`` within a function. ``name``
    is a debugging hint (the source variable name, or a synthesized temp
    name). Registers with array type hold array references at runtime (array
    parameters and ``alloca`` results).
    """

    index: int
    type: Type
    name: str = ""

    def __repr__(self) -> str:
        suffix = f":{self.name}" if self.name else ""
        return f"%{self.index}{suffix}"


@dataclass(frozen=True)
class Constant(Value):
    """An immediate scalar constant."""

    value: int | float
    type: ScalarType = field()

    def __repr__(self) -> str:
        return f"{self.value}:{self.type}"


@dataclass(frozen=True)
class StringConst(Value):
    """A string literal; only valid as an argument to the ``print`` builtin."""

    value: str
    type: ScalarType = field(default_factory=lambda: ScalarType("str"))

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class GlobalRef(Value):
    """A reference to a module-level variable (scalar cell or array)."""

    name: str
    type: Type

    def __repr__(self) -> str:
        return f"@{self.name}"
