#!/usr/bin/env python3
"""Digest every output a behaviour-preserving refactor must keep identical.

Run once per checkout, then compare the two digest files:

    python scripts/identity_digest.py <checkout> before.json
    python scripts/identity_digest.py <other-checkout> after.json
    python scripts/identity_digest.py --compare before.json after.json

A digest covers, for every bench program:

* the generated source of the plain flavor and of the fused flavor at
  depth unlimited and 2, metrics off and on (``id()``-derived literals
  are renumbered by first use, so two processes compare equal);
* ``profile_to_json`` of the profiled run at depth unlimited, 2 and 3;
* the static analysis ``kremlin check --summaries --cost --json``
  reports: the per-loop verdict tags (as the analyzer returns them and as
  stamped on the region tree), the rendered lint diagnostics, the mod/ref
  summaries and the static cost bounds;
* the parallel transform's decisions (``plan_transform`` without a
  plan): accepted region ids with their reductions, and every refused
  region with its reason;
* every dependence-breaking mark on the compiled IR, as ``(function,
  block label, instruction index, kind, break operand)``, so a moved mark
  shows on its own and not only through the profiles it changes;

and, for each replan input (bt, sp, mg, lu, ammp merged over the first
k in {1, 3} of those depth windows): the merged profile, its compression
stats, every aggregated region field, ``plan_to_csv`` under every
personality, and ``best_configuration`` on the openmp plan.

``--compare`` exits 1 and lists the keys that differ. The codegen disk
cache is off while digesting, so every unit is built from the checkout's
own emitter.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys

#: id()-derived tokens baked into generated source as literals
_BIG_INT = re.compile(r"\b\d{9,}\b")
_REPLAN_PROGRAMS = ("bt", "sp", "mg", "lu", "ammp")


def _h(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _normalize(source: str) -> str:
    seen: dict[str, int] = {}
    return _BIG_INT.sub(
        lambda m: f"ID{seen.setdefault(m.group(), len(seen))}", source
    )


def digest(checkout: str) -> dict:
    os.environ["KREMLIN_CODEGEN_CACHE"] = "0"
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    from repro.analysis.static_cost import costs_to_json
    from repro.analysis.summaries import summaries_to_json
    from repro.api import CompileOptions, KremlinSession, ProfileOptions
    from repro.bench_suite.registry import all_benchmarks
    from repro.exec_model.simulate import best_configuration
    from repro.frontend.source import SourceFile
    from repro.hcpa.aggregate import aggregate_profile
    from repro.hcpa.compression import compression_stats
    from repro.hcpa.merge import merge_profiles
    from repro.hcpa.serialize import profile_from_json, profile_to_json
    from repro.interp.codegen import build_unit
    from repro.ir.instructions import BinOp
    from repro.kremlib.profiler import KremlinProfiler
    from repro.parallel.transform import plan_transform
    from repro.planner.registry import available_personalities, create_planner
    from repro.report.export import plan_to_csv

    out: dict[str, str] = {}
    for bench in all_benchmarks():
        name = bench.name
        report = KremlinSession(
            compile_options=CompileOptions(filename=f"{name}.c")
        ).analyze(bench.source)
        program = report.program
        analysis = program.analysis
        out[f"check/{name}/verdicts"] = _h(
            repr(sorted(
                (region_id, verdict.tag)
                for region_id, verdict in analysis.verdicts.items()
            ))
            + repr([
                (region.id, region.verdict,
                 region.static_cost and region.static_cost.to_json())
                for region in program.regions
            ])
        )
        source_file = SourceFile(f"{name}.c", bench.source)
        out[f"check/{name}/diagnostics"] = _h(
            "\n".join(d.render(source_file) for d in analysis.diagnostics)
        )
        out[f"check/{name}/summaries"] = _h(
            json.dumps(summaries_to_json(analysis.summaries), sort_keys=True)
        )
        out[f"check/{name}/costs"] = _h(
            json.dumps(costs_to_json(analysis.costs), sort_keys=True)
        )
        out[f"marks/{name}"] = _h(repr([
            (function.name, block.label, index, instr.dep_break,
             instr.break_operand)
            for function in program.module.functions.values()
            for block in function.blocks
            for index, instr in enumerate(block.instructions)
            if isinstance(instr, BinOp) and instr.dep_break is not None
        ]))
        transform = plan_transform(program)
        out[f"parallel/{name}/sites"] = _h(
            repr([
                (site.region_id,
                 [(r.name, r.op, r.is_float) for r in site.reductions])
                for site in transform.sites
            ])
            + repr([(r.region_id, r.reason) for r in transform.refused])
        )
        out[f"codegen/{name}/plain"] = _h(
            _normalize(build_unit(program, "plain").source)
        )
        for depth in (None, 2):
            max_depth = KremlinProfiler(program, depth).max_depth
            for metrics in (False, True):
                unit = build_unit(program, "fused", None, max_depth, metrics)
                key = f"codegen/{name}/fused/d{depth}/m{int(metrics)}"
                out[key] = _h(_normalize(unit.source))
        docs = [profile_to_json(report.profile)]
        for depth in (2, 3):
            profile, _ = KremlinSession(
                profile_options=ProfileOptions(max_depth=depth)
            ).profile(program)
            docs.append(profile_to_json(profile))
        for depth, doc in zip((None, 2, 3), docs):
            out[f"profile/{name}/d{depth}"] = _h(json.dumps(doc, sort_keys=True))
        if name not in _REPLAN_PROGRAMS:
            continue
        for k in (1, 3):
            key = f"replan/{name}/k{k}"
            merged = merge_profiles([profile_from_json(d) for d in docs[:k]])
            aggregated = aggregate_profile(merged)
            out[f"{key}/merged"] = _h(
                json.dumps(profile_to_json(merged), sort_keys=True)
            )
            out[f"{key}/compression"] = str(compression_stats(merged))
            out[f"{key}/aggregate"] = _h(
                repr(
                    sorted(
                        (sid, p.instances, p.work, p.cp, repr(p.sp_numerator),
                         p.self_work, p.iterations, repr(p.coverage))
                        for sid, p in aggregated.profiles.items()
                    )
                )
                + repr(sorted((s, sorted(c)) for s, c in aggregated.children.items()))
            )
            plans = {
                personality: create_planner(personality).plan(
                    aggregated, frozenset()
                )
                for personality in available_personalities()
            }
            for personality, plan in sorted(plans.items()):
                out[f"{key}/plan/{personality}"] = _h(plan_to_csv(plan))
            best = best_configuration(merged, plans["openmp"].region_ids)
            out[f"{key}/best"] = repr((best.time, best.machine.cores))
    return out


def compare(before_path: str, after_path: str) -> int:
    with open(before_path, encoding="utf-8") as handle:
        before = json.load(handle)
    with open(after_path, encoding="utf-8") as handle:
        after = json.load(handle)
    differ = sorted(
        key for key in before.keys() | after.keys()
        if before.get(key) != after.get(key)
    )
    for key in differ:
        print(f"DIFFERS {key}")
    print(f"{len(before.keys() | after.keys()) - len(differ)} identical, "
          f"{len(differ)} differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, out_path = argv
    result = digest(checkout)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"{len(result)} digests -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
