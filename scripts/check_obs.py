#!/usr/bin/env python3
"""CI observability smoke check.

Drives the real CLI entry points in-process and validates their output:

1. ``kremlin trace examples/quickstart.c`` must emit a schema-valid Chrome
   trace_event document containing the expected pipeline spans;
2. ``kremlin examples/quickstart.c --metrics=json`` must emit a JSON metric
   snapshot on stderr with the expected counter taxonomy, while keeping the
   plan on stdout byte-identical to an unobserved run.

Exit code 0 = all checks pass. Run from the repo root:

    PYTHONPATH=src python scripts/check_obs.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main as kremlin_main  # noqa: E402
from repro.obs import validate_chrome_trace  # noqa: E402

SOURCE_FILE = str(REPO_ROOT / "examples" / "quickstart.c")

EXPECTED_SPANS = {
    "analyze",
    "compile",
    "lex",
    "parse",
    "lower",
    "verify",
    "instrument",
    "prepare",
    "run",
    "hcpa-finalize",
    "aggregate",
    "compress",
    "plan",
}

EXPECTED_COUNTERS = {
    "compress.dictionary_entries",
    "compress.hits",
    "compress.raw_records",
    "fastpath.entry_resolutions",
    "fastpath.known_hits",
    "interp.instructions.compiled",
    "session.analyses",
    "shadow.cell_writes",
    "shadow.frames",
}


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = kremlin_main(argv)
    return code, out.getvalue(), err.getvalue()


def check_trace() -> list[str]:
    problems: list[str] = []
    code, out, err = _run_cli(["trace", SOURCE_FILE])
    if code != 0:
        return [f"kremlin trace exited {code}: {err.strip()}"]
    try:
        document = json.loads(out)
    except ValueError as error:
        return [f"kremlin trace stdout is not JSON: {error}"]
    problems += [f"trace schema: {p}" for p in validate_chrome_trace(document)]
    span_names = {
        event["name"]
        for event in document.get("traceEvents", [])
        if event.get("ph") == "X"
    }
    missing = EXPECTED_SPANS - span_names
    if missing:
        problems.append(f"trace is missing spans: {sorted(missing)}")
    return problems


def check_metrics() -> list[str]:
    problems: list[str] = []
    code, out, err = _run_cli([SOURCE_FILE, "--metrics=json"])
    if code != 0:
        return [f"kremlin --metrics=json exited {code}: {err.strip()}"]
    json_lines = [
        line for line in err.splitlines() if line.startswith("{")
    ]
    if len(json_lines) != 1:
        return [f"expected 1 JSON metrics line on stderr, got {len(json_lines)}"]
    try:
        snapshot = json.loads(json_lines[0])
    except ValueError as error:
        return [f"metrics stderr line is not JSON: {error}"]
    for section in ("counters", "gauges", "histograms"):
        if section not in snapshot:
            problems.append(f"metrics snapshot lacks {section!r}")
    counters = snapshot.get("counters", {})
    missing = EXPECTED_COUNTERS - set(counters)
    if missing:
        problems.append(f"metrics are missing counters: {sorted(missing)}")
    if counters.get("session.analyses") != 1:
        problems.append(
            f"session.analyses should be 1, got "
            f"{counters.get('session.analyses')!r}"
        )
    if counters.get("interp.instructions.compiled", 0) <= 0:
        problems.append("interp.instructions.compiled did not count")

    # Observability must not change the user-visible output.
    plain_code, plain_out, _ = _run_cli([SOURCE_FILE])
    if plain_code != 0:
        problems.append(f"plain run exited {plain_code}")
    elif plain_out != out:
        problems.append("--metrics changed the stdout plan output")
    return problems


def main() -> int:
    problems = check_trace() + check_metrics()
    if problems:
        for problem in problems:
            print(f"check_obs: FAIL: {problem}", file=sys.stderr)
        return 1
    print("check_obs: trace + metrics smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
