"""Persistent on-disk cache for AOT codegen units (warm-start tier).

:func:`~repro.interp.codegen.codegen_unit` already memoizes compiled
units per ``CompiledProgram`` object, which covers repeat runs inside one
process. This module extends that to repeat *processes*: the service
workload compiles the same sources on every restart, and codegen is the
dominant cost of a cold ``prepare()``. Entries are keyed by a sha256 over
everything that can change the generated code:

* the MiniC source text and filename (spans bake the filename in),
* a digest of the printed instrumented IR — the source alone is not
  enough, because callers may mutate a program's IR in place (the
  failure-injection tests corrupt region markers) and the cache must
  key on exactly what executes,
* the engine flavor, instruction budget, depth limit, and metrics gate,
* the cost model (instruction costs are baked into the source as
  literals),
* a digest of the emitter implementation itself (``codegen.py``, the
  defining module of every helper it imports from ``repro.interp``, and
  the shadow helpers the fused code calls), so editing the compiler
  silently invalidates every stale entry without manual version bumps,
  and
* CPython's bytecode magic number (``marshal`` payloads are
  version-specific).

Robustness follows the profile store's discipline: writes go to a
temporary file in the cache directory and land with ``os.replace``, so a
reader never observes a torn entry; concurrent writers of the same key
are last-wins with both payloads valid. Any unreadable, truncated, or
mismatched entry is treated as a miss (and counted as an invalidation) —
the cache can be deleted at any time.

Generated source is safe to reload in a fresh process even though it
bakes ``id()``-derived control-stack tokens and interned global keys as
literals: those tokens are only ever compared against values produced by
the *same* unit, so they are self-consistent whatever process executes
the code object.

Configuration: ``KREMLIN_CODEGEN_CACHE=0`` (or ``off``) disables the
cache; ``KREMLIN_CACHE_DIR`` overrides the root directory (default
``$XDG_CACHE_HOME/kremlin/codegen`` or ``~/.cache/kremlin/codegen``).
:func:`configure` does the same programmatically and wins over the
environment. Counters are surfaced as ``codegen.disk_cache.*`` through
the metrics registry (``--metrics``) and always through :func:`stats`.
"""

from __future__ import annotations

import base64
import hashlib
import importlib
import importlib.util
import json
import marshal
import os
import time

from repro.frontend.source import SourceLocation, SourceSpan
from repro.interp.builtins import BUILTINS
from repro.ir.printer import print_module

#: container format stamp written into every entry
CACHE_FORMAT = "kremlin-codegen-cache"

#: entry layout version; bump when the JSON schema below changes
ENTRY_VERSION = 1

#: soft cap on cached entries; exceeded entries are pruned oldest-first
MAX_ENTRIES = 4096

#: prune scan frequency, in writes per process
_PRUNE_EVERY = 256

#: modules whose source the generated code depends on: the emitter,
#: every module it imports helpers from (constants such as the call-depth
#: limit and the global-key table are baked into the generated source),
#: and the shadow module whose resolve helpers the fused code calls
EMITTER_MODULES = (
    "repro.interp.codegen",
    "repro.interp.builtins",
    "repro.interp.errors",
    "repro.interp.interpreter",
    "repro.kremlib.shadow",
)

_stats = {
    "hits": 0,
    "misses": 0,
    "invalidations": 0,
    "writes": 0,
    "errors": 0,
}

_configured: dict = {"directory": None, "enabled": None}
_emitter_digest_cache: str | None = None
_writes_since_prune = 0
_tmp_seq = 0


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


def configure(
    directory: str | None = None, enabled: bool | None = None
) -> None:
    """Override the cache location/enable flag for this process.

    ``directory=None``/``enabled=None`` fall back to the environment.
    """
    _configured["directory"] = directory
    _configured["enabled"] = enabled


def cache_dir() -> str | None:
    """The active cache directory, or None when the cache is disabled."""
    if _configured["enabled"] is False:
        return None
    if _configured["directory"] is not None:
        return _configured["directory"]
    if _configured["enabled"] is None:
        flag = os.environ.get("KREMLIN_CODEGEN_CACHE", "").strip().lower()
        if flag in ("0", "off", "false", "no"):
            return None
    root = os.environ.get("KREMLIN_CACHE_DIR")
    if root:
        return os.path.join(root, "codegen")
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "kremlin", "codegen")


def stats() -> dict:
    """Per-process counters (always collected, independent of metrics)."""
    return dict(_stats)


def reset_stats() -> None:
    for name in _stats:
        _stats[name] = 0


def _count(name: str, amount: int = 1) -> None:
    _stats[name] += amount
    from repro.obs.metrics import get_metrics, metrics_enabled

    if metrics_enabled():
        get_metrics().counter(f"codegen.disk_cache.{name}").inc(amount)


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------


def emitter_files() -> list[str]:
    """Source files hashed into :func:`_emitter_digest`."""
    return [
        importlib.import_module(name).__file__ for name in EMITTER_MODULES
    ]


def _emitter_digest() -> str:
    """Digest of the code-emitting implementation itself.

    Any edit to the emitter or to a helper it bakes into the generated
    source changes the code or its runtime contract; hashing their file
    contents makes stale entries unreachable without anyone remembering
    to bump a version constant.
    """
    global _emitter_digest_cache
    if _emitter_digest_cache is None:
        hasher = hashlib.sha256()
        for path in emitter_files():
            try:
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
            except OSError:
                hasher.update(b"<unreadable>")
            hasher.update(b"\x00")
        _emitter_digest_cache = hasher.hexdigest()
    return _emitter_digest_cache


def unit_key(
    program,
    flavor: str,
    budget,
    max_depth,
    metrics_on: bool,
) -> str:
    """sha256 identity of one compiled unit (see module docstring)."""
    cost_model = program.instrumentation.cost_model
    # The printed IR, not just the source: callers may mutate a program's
    # instrumented IR in place (failure-injection tests corrupt region
    # markers, for example), and the unit must be compiled from — and
    # keyed on — exactly what will execute.
    ir_text = print_module(program.module)
    descriptor = json.dumps(
        {
            "format": CACHE_FORMAT,
            "emitter": _emitter_digest(),
            "magic": importlib.util.MAGIC_NUMBER.hex(),
            "source": program.source,
            "ir": hashlib.sha256(ir_text.encode("utf-8")).hexdigest(),
            "filename": program.filename,
            "flavor": flavor,
            "budget": budget,
            "max_depth": max_depth,
            "metrics": bool(metrics_on),
            "cost_table": sorted(cost_model.table.items()),
            "float_extra": sorted(cost_model.float_extra.items()),
        },
        sort_keys=True,
    )
    return hashlib.sha256(descriptor.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Environment (de)serialization
# ----------------------------------------------------------------------


def _env_recipe(program_env: dict) -> list | None:
    """Serialize a unit's program_env, or None if any value is opaque.

    The env only ever holds spans, out-of-line numeric constants, string
    constants, and builtin impl functions (see ``_ModuleEmitter._name``);
    anything else means the emitter grew a new value kind this module
    does not understand yet, in which case the unit is simply not disk-
    cached (robust by construction, never wrong).
    """
    builtin_names = {id(spec.impl): name for name, spec in BUILTINS.items()}
    recipe: list = []
    for name, value in program_env.items():
        kind = type(value)
        if kind is SourceSpan:
            recipe.append(
                [
                    name,
                    "span",
                    value.start.line,
                    value.start.column,
                    value.end.line,
                    value.end.column,
                    value.filename,
                ]
            )
        elif kind is str:
            recipe.append([name, "str", value])
        elif kind is int or kind is float:
            recipe.append([name, "const", value])
        elif id(value) in builtin_names:
            recipe.append([name, "builtin", builtin_names[id(value)]])
        else:
            return None
    return recipe


def _env_from_recipe(recipe: list) -> dict:
    """Rebuild a program_env dict; raises on malformed entries."""
    env: dict = {}
    for item in recipe:
        name, kind = item[0], item[1]
        if kind == "span":
            _, _, sl, sc, el, ec, filename = item
            env[name] = SourceSpan(
                SourceLocation(sl, sc), SourceLocation(el, ec), filename
            )
        elif kind == "str":
            env[name] = item[2]
        elif kind == "const":
            env[name] = item[2]
        elif kind == "builtin":
            env[name] = BUILTINS[item[2]].impl
        else:
            raise ValueError(f"unknown env recipe kind {kind!r}")
    return env


# ----------------------------------------------------------------------
# Load / store
# ----------------------------------------------------------------------


def _entry_path(directory: str, key: str) -> str:
    return os.path.join(directory, f"{key}.json")


def load_unit(
    program,
    flavor: str,
    budget,
    max_depth,
    metrics_on: bool,
):
    """Load a cached unit, or None on a miss/invalid entry (never raises).

    Returns a fully reconstructed
    :class:`~repro.interp.codegen.CodegenUnit` whose ``build_seconds``
    is the (tiny) deserialization time.
    """
    directory = cache_dir()
    if directory is None:
        return None
    started = time.perf_counter()
    key = unit_key(program, flavor, budget, max_depth, metrics_on)
    path = _entry_path(directory, key)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError:
        _count("misses")
        return None
    except ValueError:
        # Torn/truncated/corrupt entry: unusable, treat as a miss.
        _count("invalidations")
        _count("misses")
        return None
    try:
        if (
            payload["format"] != CACHE_FORMAT
            or payload["version"] != ENTRY_VERSION
            or payload["magic"] != importlib.util.MAGIC_NUMBER.hex()
            or payload["key"] != key
        ):
            raise ValueError("cache entry does not match this build")
        code = marshal.loads(base64.b64decode(payload["code"]))
        env = _env_from_recipe(payload["env"])
        source = payload["source"]
        array_globals = list(payload["array_globals"])
        fallback_functions = list(payload["fallback_functions"])
    except (KeyError, IndexError, TypeError, ValueError, EOFError):
        _count("invalidations")
        _count("misses")
        return None
    from repro.interp.codegen import CodegenUnit

    _count("hits")
    return CodegenUnit(
        flavor=flavor,
        source=source,
        code=code,
        program_env=env,
        array_globals=array_globals,
        fallback_functions=fallback_functions,
        budget=budget,
        build_seconds=time.perf_counter() - started,
    )


def store_unit(
    program,
    flavor: str,
    budget,
    max_depth,
    metrics_on: bool,
    unit,
) -> bool:
    """Persist a freshly built unit; best-effort, never raises."""
    global _writes_since_prune, _tmp_seq
    directory = cache_dir()
    if directory is None:
        return False
    recipe = _env_recipe(unit.program_env)
    if recipe is None:
        return False
    key = unit_key(program, flavor, budget, max_depth, metrics_on)
    payload = {
        "format": CACHE_FORMAT,
        "version": ENTRY_VERSION,
        "magic": importlib.util.MAGIC_NUMBER.hex(),
        "key": key,
        "flavor": flavor,
        "budget": budget,
        "max_depth": max_depth,
        "metrics": bool(metrics_on),
        "filename": program.filename,
        "source": unit.source,
        "code": base64.b64encode(marshal.dumps(unit.code)).decode("ascii"),
        "env": recipe,
        "array_globals": list(unit.array_globals),
        "fallback_functions": list(unit.fallback_functions),
    }
    path = _entry_path(directory, key)
    _tmp_seq += 1
    tmp = f"{path}.{os.getpid()}.{_tmp_seq}.tmp"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except (OSError, ValueError):
        _count("errors")
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    _count("writes")
    _writes_since_prune += 1
    if _writes_since_prune >= _PRUNE_EVERY:
        _writes_since_prune = 0
        _prune(directory)
    return True


def _prune(directory: str, max_entries: int = MAX_ENTRIES) -> None:
    """Drop oldest entries beyond the cap (fuzz runs write thousands of
    one-shot programs; the cache must not grow without bound)."""
    try:
        with os.scandir(directory) as it:
            entries = [
                (entry.stat().st_mtime, entry.path)
                for entry in it
                if entry.name.endswith(".json")
            ]
    except OSError:
        return
    if len(entries) <= max_entries:
        return
    entries.sort()
    for _, path in entries[: len(entries) - (max_entries * 3 // 4)]:
        try:
            os.unlink(path)
        except OSError:
            pass
