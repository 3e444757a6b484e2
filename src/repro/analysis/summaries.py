"""Interprocedural mod/ref summaries ("static Kremlin", part 1).

One bottom-up pass over the call graph's SCC condensation computes, for
every user function, *which* memory it reads and writes — globals and
array parameters — and *where* inside those objects, as affine index
summaries over the function's own parameters. Call-bearing loops then
get real dependence verdicts: the classifier rebinds a callee's summary
through the call-site argument map and feeds the resulting accesses into
the ordinary affine subscript test, instead of collapsing every call to
the binary pure/impure fixpoint.

The summary lattice, per function::

    PURE          no memory effects at all (callable anywhere)
    RECORDS       a finite set of AccessRecords, each either
                    - affine: index = const + Σ coeff·param_k + [lo,hi]
                      (the slack interval absorbs bounded callee-local
                      loop variables), or
                    - taint: the whole object may be touched (index None)
    TOP           effects not enumerable (recursive SCC with effects,
                  unresolvable object, record blow-up)
    IMPURE        observable ordering effects (RNG, I/O) — on top of any
                  of the above

``TOP`` and ``IMPURE`` calls keep the old behavior (an ``impure-call``
witness). ``RECORDS`` calls are *transparent*: their effects become
synthetic accesses of the calling loop, and witness chains walk through
the call site into the callee (``caller.c:12 → callee writes g[i]``).

Every :class:`AccessRecord` carries a ``trace`` — the witness-chain
suffix describing the access inside (possibly nested) callees — so a
diagnostic can show the full interprocedural path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.dataflow import ReachingDefinitions
from repro.analysis.loops import find_natural_loops
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Copy,
    Load,
    REDUCTION_OPS,
    Store,
)
from repro.ir.module import Module
from repro.ir.types import ArrayType
from repro.ir.values import Constant, GlobalRef, Register, Value

#: cap on enumerable records per function; beyond this the summary
#: degrades to per-object taint records (still sound, less precise)
MAX_RECORDS = 64


# ----------------------------------------------------------------------
# Index summaries: affine over the summarized function's parameters
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParamAffine:
    """``const + Σ coeff·param_k + [lo, hi]`` slack.

    The slack interval absorbs every bounded non-parameter contribution
    (typically a callee-local loop variable with a known value range);
    it is sampled *independently per call*, which is exactly how the
    dependence test must treat a callee's internal loop re-running on
    every iteration of the calling loop.
    """

    #: sorted ``(param_index, coeff)`` pairs, coeff != 0
    terms: tuple[tuple[int, int], ...] = ()
    const: int = 0
    lo: int = 0
    hi: int = 0

    @property
    def has_slack(self) -> bool:
        return (self.lo, self.hi) != (0, 0)

    def plus(self, other: "ParamAffine") -> "ParamAffine":
        coeffs = dict(self.terms)
        for k, c in other.terms:
            new = coeffs.get(k, 0) + c
            if new == 0:
                coeffs.pop(k, None)
            else:
                coeffs[k] = new
        return ParamAffine(
            terms=tuple(sorted(coeffs.items())),
            const=self.const + other.const,
            lo=self.lo + other.lo,
            hi=self.hi + other.hi,
        )

    def scaled(self, factor: int) -> "ParamAffine":
        if factor == 0:
            return ParamAffine()
        ends = (self.lo * factor, self.hi * factor)
        return ParamAffine(
            terms=tuple(
                sorted((k, c * factor) for k, c in self.terms)
            ),
            const=self.const * factor,
            lo=min(ends),
            hi=max(ends),
        )

    def render(self, param_names: tuple[str, ...] = ()) -> str:
        parts: list[str] = []
        for k, c in self.terms:
            name = (
                param_names[k]
                if k < len(param_names)
                else f"arg{k}"
            )
            if c == 1:
                parts.append(name)
            else:
                parts.append(f"{c}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        text = "+".join(parts).replace("+-", "-")
        if self.has_slack:
            text += f"+[{self.lo},{self.hi}]"
        return text


def rebind(
    index: ParamAffine | None, arguments: list["ParamAffine | None"]
) -> ParamAffine | None:
    """Rebind a callee index summary through a call-site argument map.

    ``arguments[k]`` is the affine image of the call's ``k``-th argument
    in the *caller's* parameter space (None = non-affine). Any
    non-affine argument with a non-zero coefficient degrades the whole
    index to taint.
    """
    if index is None:
        return None
    acc = ParamAffine(const=index.const, lo=index.lo, hi=index.hi)
    for k, coeff in index.terms:
        arg = arguments[k] if k < len(arguments) else None
        if arg is None:
            return None
        acc = acc.plus(arg.scaled(coeff))
    return acc


# ----------------------------------------------------------------------
# Records and summaries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AccessRecord:
    """One summarized memory effect of a function."""

    #: ``('global', name)`` or ``('param', index)``
    target: tuple[str, object]
    is_store: bool
    #: element type of the accessed object (cell type for scalars)
    element: object = None
    is_array: bool = False
    #: affine index summary, or None = taint (whole object)
    index: ParamAffine | None = None
    #: normalized reduction operator when this access is half of a
    #: recognized ``g = g ⊕ v`` update on a global scalar cell
    reduction_op: str | None = None
    #: witness-chain suffix: ``(role, span)`` hops inside the callee(s)
    trace: tuple = ()

    def describe(self, param_names: tuple[str, ...] = ()) -> str:
        if self.target[0] == "global":
            obj = f"@{self.target[1]}"
        else:
            k = self.target[1]
            obj = (
                param_names[k]
                if isinstance(k, int) and k < len(param_names)
                else f"arg{k}"
            )
        mode = "writes" if self.is_store else "reads"
        if self.reduction_op is not None:
            mode = f"reduces({self.reduction_op})"
        if not self.is_array:
            return f"{mode} {obj}"
        subscript = (
            "*" if self.index is None else self.index.render(param_names)
        )
        return f"{mode} {obj}[{subscript}]"


@dataclass
class FunctionSummary:
    """The interprocedural summary of one user function."""

    name: str
    #: parameter source names, for rendering index summaries
    param_names: tuple[str, ...] = ()
    records: tuple[AccessRecord, ...] = ()
    #: effects not enumerable: treat as touching everything
    top: bool = False
    #: observable ordering effects (RNG / I/O), directly or via callees
    impure: bool = False
    #: call purity: no memory effects and no array params
    pure: bool = False
    reasons: tuple[str, ...] = ()

    @property
    def transparent(self) -> bool:
        """Calls can be summarized away into the caller's access set."""
        return not (self.top or self.impure)

    @property
    def side_effect_free(self) -> bool:
        """No writes and no ordering effects: the call's only product is
        its return value (the lint dead-value rule keys on this)."""
        return self.transparent and not any(
            r.is_store for r in self.records
        )

    def describe(self) -> str:
        if self.top:
            return "top (unanalyzable effects)"
        flags = []
        if self.impure:
            flags.append("impure")
        if self.pure:
            flags.append("pure")
        # dedupe: a reduction's read and write records describe identically
        described = list(
            dict.fromkeys(r.describe(self.param_names) for r in self.records)
        )
        body = ", ".join(described) or "no memory effects"
        return body + (f"; {' '.join(flags)}" if flags else "")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": list(self.param_names),
            "pure": self.pure,
            "top": self.top,
            "impure": self.impure,
            "reasons": list(self.reasons),
            "accesses": [
                {
                    "object": (
                        f"@{r.target[1]}"
                        if r.target[0] == "global"
                        else f"param:{r.target[1]}"
                    ),
                    "mode": (
                        f"reduce({r.reduction_op})"
                        if r.reduction_op
                        else ("write" if r.is_store else "read")
                    ),
                    "index": (
                        None
                        if r.index is None
                        else r.index.render(self.param_names)
                    ),
                    "array": r.is_array,
                }
                for r in self.records
            ],
        }


def summaries_to_json(
    summaries: dict[str, "FunctionSummary"]
) -> list[dict]:
    return [summaries[name].to_json() for name in sorted(summaries)]


# ----------------------------------------------------------------------
# Per-function index resolution
# ----------------------------------------------------------------------


class _IndexResolver:
    """Resolve index values to :class:`ParamAffine` inside one function."""

    def __init__(
        self,
        function: Function,
        rd: ReachingDefinitions,
        inductions: dict | None = None,
    ):
        self.function = function
        self.rd = rd
        self.param_index = {
            register: k for k, register in enumerate(function.params)
        }
        #: register -> (lo, hi, loop) for bounded loop induction variables
        self.bounds: dict[Register, tuple[int, int, object]] = {}
        #: instruction -> containing block (loop membership checks)
        self.block_of: dict[int, object] = {}
        for block in function.blocks:
            for instr in block.instructions:
                self.block_of[id(instr)] = block
            if block.terminator is not None:
                self.block_of[id(block.terminator)] = block
        if inductions is None:
            from repro.analysis.dependence import detect_loop_inductions

            inductions = detect_loop_inductions(
                find_natural_loops(function), rd
            )
        for loop, found in inductions.items():
            for register, ind in found.items():
                if ind.lo is not None and ind.hi is not None:
                    self.bounds[register] = (ind.lo, ind.hi, loop)

    def _bounded(self, register: Register, owner) -> ParamAffine | None:
        """Interval image of a bounded loop variable, valid only for
        uses inside that loop (outside it holds its exit value)."""
        bound = self.bounds.get(register)
        if bound is None:
            return None
        lo, hi, loop = bound
        block = self.block_of.get(id(owner))
        if block is None or block not in loop.blocks:
            return None
        return ParamAffine(lo=lo, hi=hi)

    def affine(
        self, value: Value, owner, _visiting: frozenset = frozenset()
    ) -> ParamAffine | None:
        if isinstance(value, Constant):
            if isinstance(value.value, int):
                return ParamAffine(const=value.value)
            return None
        if not isinstance(value, Register):
            return None
        register = value
        defs = self.rd.reaching(owner, register)
        if len(defs) != 1:
            return self._bounded(register, owner)
        definition = next(iter(defs))
        if definition in _visiting:
            return self._bounded(register, owner)
        if definition.is_parameter:
            return ParamAffine(terms=((self.param_index[register], 1),))
        instr = definition.instr
        visiting = _visiting | {definition}
        if isinstance(instr, Copy):
            out = self.affine(instr.operand, instr, visiting)
        elif isinstance(instr, BinOp) and instr.op in ("+", "-", "*"):
            lhs = self.affine(instr.lhs, instr, visiting)
            rhs = self.affine(instr.rhs, instr, visiting)
            out = None
            if lhs is not None and rhs is not None:
                if instr.op == "+":
                    out = lhs.plus(rhs)
                elif instr.op == "-":
                    out = lhs.plus(rhs.scaled(-1))
                elif not rhs.terms and not rhs.has_slack:
                    out = lhs.scaled(rhs.const)
                elif not lhs.terms and not lhs.has_slack:
                    out = rhs.scaled(lhs.const)
        else:
            out = None
        if out is None:
            return self._bounded(register, owner)
        return out


# ----------------------------------------------------------------------
# Summary computation (bottom-up over SCCs)
# ----------------------------------------------------------------------


def _roles(is_store: bool) -> str:
    return "writes" if is_store else "reads"


def _direct_effect_free(function: Function) -> tuple[bool, str]:
    """Direct purity: the conditions a function must meet on its own
    (callees are checked by the SCC pass)."""
    if any(isinstance(p.type, ArrayType) for p in function.params):
        return False, "takes an array parameter"
    for block in function.blocks:
        for instr in block.instructions:
            if isinstance(instr, (Load, Store)) and isinstance(
                instr.mem, GlobalRef
            ):
                return False, "touches global state"
            if isinstance(instr, Call) and instr.is_builtin:
                from repro.analysis.dependence import PURE_BUILTINS

                if instr.callee not in PURE_BUILTINS:
                    return False, f"calls impure builtin '{instr.callee}'"
    return True, ""


def _global_reductions(
    function: Function, rd: ReachingDefinitions
) -> dict[int, str]:
    """``id(instr) -> op`` for Load/Store halves of ``g = g ⊕ v``
    updates on global scalar cells (candidates; the caller-side check
    still requires the cell to have no other accesses in the loop)."""
    out: dict[int, str] = {}
    for block in function.blocks:
        for instr in block.instructions:
            if not isinstance(instr, Store) or instr.index is not None:
                continue
            if not isinstance(instr.mem, GlobalRef):
                continue
            if not isinstance(instr.value, Register):
                continue
            defs = rd.reaching(instr, instr.value)
            if len(defs) != 1:
                continue
            update = next(iter(defs)).instr
            if not isinstance(update, BinOp):
                continue
            if (
                update.dep_break != "reduction"
                and update.op not in REDUCTION_OPS
            ):
                continue
            for operand in (update.lhs, update.rhs):
                if not isinstance(operand, Register):
                    continue
                odefs = rd.reaching(update, operand)
                if len(odefs) != 1:
                    continue
                old = next(iter(odefs)).instr
                if (
                    isinstance(old, Load)
                    and old.index is None
                    and isinstance(old.mem, GlobalRef)
                    and old.mem.name == instr.mem.name
                ):
                    op = "+" if update.op in ("+", "-") else update.op
                    out[id(instr)] = op
                    out[id(old)] = op
                    break
    return out


def _compress(records: list[AccessRecord]) -> list[AccessRecord]:
    """Degrade an oversized record set to per-object taint (sound)."""
    seen: dict[tuple, AccessRecord] = {}
    for record in records:
        key = (record.target, record.is_store)
        if key not in seen:
            seen[key] = replace(
                record, index=None, reduction_op=None
            )
    return list(seen.values())


def _summarize_function(
    function: Function,
    summaries: dict[str, FunctionSummary],
    rd: ReachingDefinitions | None = None,
    inductions: dict | None = None,
) -> FunctionSummary:
    rd = rd or ReachingDefinitions(function)
    resolver = _IndexResolver(function, rd, inductions)
    reductions = _global_reductions(function, rd)
    summary = FunctionSummary(
        name=function.name,
        param_names=tuple(
            p.name or f"arg{k}" for k, p in enumerate(function.params)
        ),
    )
    records: list[AccessRecord] = []
    reasons: list[str] = []
    top = False
    impure = False

    def object_record(
        mem: Value, owner
    ) -> tuple[tuple[str, object] | None, object, bool, bool]:
        """``(target, element, is_array, skip)`` for a direct access."""
        is_array = isinstance(mem.type, ArrayType)
        element = mem.type.element if is_array else mem.type
        if isinstance(mem, GlobalRef):
            return ("global", mem.name), element, is_array, False
        if isinstance(mem, Register):
            if mem in resolver.param_index:
                return (
                    ("param", resolver.param_index[mem]),
                    element,
                    is_array,
                    False,
                )
            defs = rd.defs_of.get(mem, [])
            if len(defs) == 1 and isinstance(defs[0].instr, Alloca):
                return None, element, is_array, True  # private storage
        return None, element, is_array, False  # unresolvable

    from repro.analysis.dependence import PURE_BUILTINS

    for block in function.blocks:
        for instr in block.instructions:
            if isinstance(instr, (Load, Store)):
                target, element, is_array, skip = object_record(
                    instr.mem, instr
                )
                if skip:
                    continue
                if target is None:
                    top = True
                    reasons.append("access to unresolvable object")
                    continue
                is_store = isinstance(instr, Store)
                if instr.index is None:
                    index: ParamAffine | None = ParamAffine()
                else:
                    index = resolver.affine(instr.index, instr)
                obj = (
                    f"@{target[1]}"
                    if target[0] == "global"
                    else summary.param_names[target[1]]
                    if target[1] < len(summary.param_names)
                    else f"arg{target[1]}"
                )
                records.append(
                    AccessRecord(
                        target=target,
                        is_store=is_store,
                        element=element,
                        is_array=is_array,
                        index=index,
                        reduction_op=reductions.get(id(instr)),
                        trace=(
                            (
                                f"'{function.name}' {_roles(is_store)} "
                                f"{obj} here",
                                instr.span,
                            ),
                        ),
                    )
                )
            elif isinstance(instr, Call):
                if instr.is_builtin:
                    if instr.callee not in PURE_BUILTINS:
                        impure = True
                        reasons.append(
                            f"calls impure builtin '{instr.callee}'"
                        )
                    continue
                callee = summaries.get(instr.callee)
                if callee is None:
                    # recursive edge back into this SCC: handled by the
                    # component-level bail-out before we get here
                    top = True
                    reasons.append(
                        f"call into unresolved '{instr.callee}'"
                    )
                    continue
                if callee.impure:
                    impure = True
                    reasons.append(f"calls impure '{instr.callee}'")
                if callee.top:
                    top = True
                    reasons.append(
                        f"calls '{instr.callee}' with unanalyzable "
                        "effects"
                    )
                if callee.top or callee.impure:
                    continue
                arguments = [
                    resolver.affine(arg, instr) for arg in instr.args
                ]
                for record in callee.records:
                    target = record.target
                    if target[0] == "param":
                        k = target[1]
                        arg = (
                            instr.args[k]
                            if isinstance(k, int) and k < len(instr.args)
                            else None
                        )
                        mapped, element, is_array, skip = (
                            object_record(arg, instr)
                            if arg is not None
                            else (None, None, False, False)
                        )
                        if skip:
                            continue  # caller-private storage
                        if mapped is None:
                            top = True
                            reasons.append(
                                f"array argument to '{instr.callee}' "
                                "is unresolvable"
                            )
                            continue
                        target = mapped
                    records.append(
                        replace(
                            record,
                            target=target,
                            index=rebind(record.index, arguments),
                            trace=(
                                (
                                    f"call to '{instr.callee}' here",
                                    instr.span,
                                ),
                                *record.trace,
                            ),
                        )
                    )

    if len(records) > MAX_RECORDS:
        records = _compress(records)
        reasons.append("record set compressed to per-object taint")
    summary.records = tuple(records)
    summary.top = top
    summary.impure = impure
    summary.reasons = tuple(dict.fromkeys(reasons))
    return summary


def compute_module_summaries(
    module: Module,
    graph: CallGraph | None = None,
    reaching: dict[str, ReachingDefinitions] | None = None,
    inductions: dict[str, dict] | None = None,
) -> dict[str, FunctionSummary]:
    """Bottom-up mod/ref summaries for every function in ``module``.

    ``reaching`` and ``inductions`` map function names to the reaching
    definitions and per-loop induction variables the caller already
    built (see ``detect_loop_inductions`` in
    :mod:`repro.analysis.dependence`); missing ones are computed here.
    """
    graph = graph or build_call_graph(module)
    reaching = reaching or {}
    inductions = inductions or {}
    summaries: dict[str, FunctionSummary] = {}
    for component in graph.sccs():
        members = [
            name for name in component if name in module.functions
        ]
        if not members:
            continue
        recursive = len(component) > 1 or any(
            name in graph.callees.get(name, set()) for name in members
        )
        if recursive:
            effect_free = all(
                _direct_effect_free(module.functions[name])[0]
                and all(
                    callee in component
                    or summaries.get(
                        callee, FunctionSummary(callee)
                    ).pure
                    for callee in graph.callees.get(name, set())
                )
                for name in members
            )
            for name in members:
                if effect_free:
                    summaries[name] = FunctionSummary(
                        name=name,
                        param_names=tuple(
                            p.name or f"arg{k}"
                            for k, p in enumerate(
                                module.functions[name].params
                            )
                        ),
                        pure=True,
                    )
                else:
                    summaries[name] = FunctionSummary(
                        name=name,
                        top=True,
                        reasons=(
                            "recursive call cycle with memory effects",
                        ),
                    )
            continue
        name = members[0]
        summary = _summarize_function(
            module.functions[name],
            summaries,
            rd=reaching.get(name),
            inductions=inductions.get(name),
        )
        summary.pure = (
            not summary.top
            and not summary.impure
            and not summary.records
            and not any(
                isinstance(p.type, ArrayType)
                for p in module.functions[name].params
            )
        )
        summaries[name] = summary
    return summaries
