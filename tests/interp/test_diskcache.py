"""Persistent codegen cache: warm restarts, corruption, skew, and races.

The disk cache (:mod:`repro.interp.diskcache`) must make a warm restart
perform zero codegen while never being able to produce wrong code: any
torn, truncated, or version-skewed entry is a miss that falls back to a
fresh build. These tests drive the real ``codegen_unit`` path through
the compiled engine against a test-private cache directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import kremlin_cc
from repro.hcpa.serialize import profile_to_json
from repro.interp import diskcache
from repro.interp.interpreter import Interpreter
from repro.kremlib.profiler import KremlinProfiler

SOURCE = """
int a[32];
int main() {
  int s = 0;
  for (int i = 0; i < 32; i++) { a[i] = i * 2; }
  for (int i = 0; i < 32; i++) { s = s + a[i]; }
  return s;
}
"""

EXPECTED = sum(i * 2 for i in range(32))

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture
def cache_dir(tmp_path):
    """Point the cache at a test-private directory; restore config after."""
    previous = dict(diskcache._configured)
    directory = str(tmp_path / "codegen-cache")
    diskcache.configure(directory=directory, enabled=True)
    diskcache.reset_stats()
    yield directory
    diskcache.configure(**previous)
    diskcache.reset_stats()


def _run_compiled(profiled: bool = False):
    """Fresh ``kremlin_cc`` (no in-memory codegen units) + compiled run."""
    program = kremlin_cc(SOURCE, "cache.c")
    observer = KremlinProfiler(program) if profiled else None
    result = Interpreter(program, observer=observer, engine="compiled").run(
        "main"
    )
    serialized = (
        json.dumps(profile_to_json(observer.profile), sort_keys=True)
        if profiled
        else None
    )
    return result, serialized


def _entry_files(directory):
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".json")
    )


class TestWarmRestart:
    def test_cold_run_writes_warm_run_hits(self, cache_dir):
        _run_compiled()
        cold = diskcache.stats()
        assert cold["writes"] >= 1
        assert cold["hits"] == 0
        entries = _entry_files(cache_dir)
        assert len(entries) == cold["writes"]

        diskcache.reset_stats()
        result, _ = _run_compiled()
        warm = diskcache.stats()
        # Zero codegen on the warm path: every unit request is a disk hit.
        assert warm["hits"] == cold["writes"]
        assert warm["writes"] == 0
        assert warm["misses"] == 0
        assert result.value == EXPECTED

    def test_warm_profile_byte_identical_to_cold(self, cache_dir):
        cold_result, cold_profile = _run_compiled(profiled=True)
        assert diskcache.stats()["writes"] >= 1
        diskcache.reset_stats()
        warm_result, warm_profile = _run_compiled(profiled=True)
        assert diskcache.stats()["hits"] >= 1
        assert warm_result.value == cold_result.value
        assert warm_result.instructions_retired == (
            cold_result.instructions_retired
        )
        assert warm_profile == cold_profile

    def test_loaded_unit_source_matches_built_unit(self, cache_dir):
        from repro.interp.codegen import codegen_unit

        program = kremlin_cc(SOURCE, "cache.c")
        built = codegen_unit(program, "plain")
        fresh = kremlin_cc(SOURCE, "cache.c")
        loaded = codegen_unit(fresh, "plain")
        assert diskcache.stats()["hits"] == 1
        assert loaded.source == built.source
        assert loaded.array_globals == built.array_globals
        assert loaded.fallback_functions == built.fallback_functions


class TestKeying:
    def test_mutated_ir_never_hits_a_source_keyed_entry(self, cache_dir):
        """The key covers the instrumented IR, not just the source.

        Failure-injection tests (and any API caller) may mutate a
        program's IR in place before running it; a unit compiled from
        the pristine IR of the *same source* must not be served for the
        mutated program — that would execute the wrong code.
        """
        from repro.ir.instructions import RegionExit

        _run_compiled()  # populate the cache from the pristine IR

        diskcache.reset_stats()
        program = kremlin_cc(SOURCE, "cache.c")
        main = program.module.function("main")
        last = main.blocks[-1]
        function_exit = next(
            i for i in last.instructions if isinstance(i, RegionExit)
        )
        last.instructions.append(
            RegionExit(function_exit.span, region_id=function_exit.region_id)
        )
        from repro.kremlib.profiler import ProfilerError

        observer = KremlinProfiler(program)
        with pytest.raises(ProfilerError, match="empty region stack"):
            Interpreter(
                program, observer=observer, engine="compiled"
            ).run("main")
        assert diskcache.stats()["hits"] == 0

    def test_emitter_digest_covers_every_codegen_helper_module(self):
        """Generated source bakes in helpers codegen imports (the pure
        binop templates, the call-depth limit, global keys); editing any
        of their modules must change the key, so each must be hashed."""
        import ast
        import importlib

        from repro.interp import codegen

        with open(codegen.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        expected = {os.path.abspath(codegen.__file__)}
        for node in tree.body:
            if not isinstance(node, ast.ImportFrom) or not (
                node.module.startswith(("repro.interp", "repro.kremlib"))
            ):
                continue
            for alias in node.names:
                try:
                    module = importlib.import_module(
                        f"{node.module}.{alias.name}"
                    )
                except ImportError:
                    module = importlib.import_module(node.module)
                expected.add(os.path.abspath(module.__file__))
        hashed = {os.path.abspath(path) for path in diskcache.emitter_files()}
        assert expected <= hashed, sorted(expected - hashed)


class TestCorruption:
    def test_truncated_entry_is_invalidated_and_rebuilt(self, cache_dir):
        _run_compiled()
        entries = _entry_files(cache_dir)
        for path in entries:
            with open(path, "r+", encoding="utf-8") as handle:
                handle.truncate(len(handle.read()) // 2)

        diskcache.reset_stats()
        result, _ = _run_compiled()
        stats = diskcache.stats()
        assert result.value == EXPECTED
        assert stats["invalidations"] == len(entries)
        assert stats["hits"] == 0
        # The rebuilt units were written back; the entries are whole again.
        assert stats["writes"] == len(entries)
        diskcache.reset_stats()
        _run_compiled()
        assert diskcache.stats()["hits"] == len(entries)

    def test_garbage_entry_is_a_miss_not_a_crash(self, cache_dir):
        _run_compiled()
        for path in _entry_files(cache_dir):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\x00not json at all")
        diskcache.reset_stats()
        result, _ = _run_compiled()
        assert result.value == EXPECTED
        assert diskcache.stats()["hits"] == 0

    def test_version_skew_invalidates(self, cache_dir):
        _run_compiled()
        entries = _entry_files(cache_dir)
        for path in entries:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            payload["version"] = diskcache.ENTRY_VERSION + 1
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)

        diskcache.reset_stats()
        result, _ = _run_compiled()
        stats = diskcache.stats()
        assert result.value == EXPECTED
        assert stats["hits"] == 0
        assert stats["invalidations"] == len(entries)

    def test_magic_skew_invalidates(self, cache_dir):
        """An entry marshalled by a different CPython never loads."""
        _run_compiled()
        for path in _entry_files(cache_dir):
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            payload["magic"] = "deadbeef"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        diskcache.reset_stats()
        _run_compiled()
        assert diskcache.stats()["hits"] == 0
        assert diskcache.stats()["invalidations"] >= 1


class TestConcurrency:
    def test_two_processes_race_on_the_same_key(self, cache_dir):
        """Concurrent writers of one key are last-wins, both valid."""
        script = (
            "import sys\n"
            "from repro import kremlin_cc\n"
            "from repro.interp import diskcache\n"
            "from repro.interp.interpreter import Interpreter\n"
            "diskcache.configure(directory=sys.argv[1], enabled=True)\n"
            f"program = kremlin_cc({SOURCE!r}, 'cache.c')\n"
            "result = Interpreter(program, engine='compiled').run('main')\n"
            f"assert result.value == {EXPECTED}\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_DIR
        env.pop("KREMLIN_CODEGEN_CACHE", None)
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, cache_dir],
                env=env,
                stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for worker in workers:
            _, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, stderr.decode()

        # Whatever ordering the race took, the surviving entries are
        # whole and this process warm-starts off them.
        entries = _entry_files(cache_dir)
        assert entries
        for path in entries:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            assert payload["format"] == diskcache.CACHE_FORMAT
        diskcache.reset_stats()
        result, _ = _run_compiled()
        assert result.value == EXPECTED
        assert diskcache.stats()["hits"] == len(entries)
        assert not [
            name
            for name in os.listdir(cache_dir)
            if name.endswith(".tmp")
        ], "temporary files leaked"


class TestConfiguration:
    def test_disabled_cache_never_touches_disk(self, tmp_path):
        previous = dict(diskcache._configured)
        directory = str(tmp_path / "never-created")
        diskcache.configure(directory=directory, enabled=False)
        diskcache.reset_stats()
        try:
            assert diskcache.cache_dir() is None
            result, _ = _run_compiled()
            assert result.value == EXPECTED
            assert not os.path.exists(directory)
            assert diskcache.stats() == {
                "hits": 0,
                "misses": 0,
                "invalidations": 0,
                "writes": 0,
                "errors": 0,
            }
        finally:
            diskcache.configure(**previous)
            diskcache.reset_stats()

    def test_env_recipe_round_trips_all_kinds(self):
        from repro.frontend.source import SourceLocation, SourceSpan
        from repro.interp.builtins import BUILTINS

        name = next(iter(BUILTINS))
        env = {
            "_sp_0": SourceSpan(
                SourceLocation(3, 1), SourceLocation(3, 9), "cache.c"
            ),
            "_st_0": "hello",
            "_k_0": 42,
            "_k_1": 2.5,
            "_bi_0": BUILTINS[name].impl,
        }
        recipe = diskcache._env_recipe(env)
        assert recipe is not None
        rebuilt = diskcache._env_from_recipe(
            json.loads(json.dumps(recipe))
        )
        assert rebuilt == env

    def test_opaque_env_value_skips_caching(self):
        assert diskcache._env_recipe({"x": object()}) is None

    def test_prune_keeps_newest_three_quarters(self, tmp_path):
        directory = str(tmp_path / "full")
        os.makedirs(directory)
        for index in range(20):
            path = os.path.join(directory, f"{index:02d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("{}")
            os.utime(path, (index, index))
        diskcache._prune(directory, max_entries=8)
        survivors = sorted(os.listdir(directory))
        assert len(survivors) == 6  # 3/4 of the cap, newest kept
        assert survivors == [f"{i:02d}.json" for i in range(14, 20)]
