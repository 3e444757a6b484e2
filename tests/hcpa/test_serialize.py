"""Profile save/load round-trip tests."""

import io
import json

import pytest

from repro.hcpa.aggregate import aggregate_profile
from repro.hcpa.serialize import (
    ProfileFormatError,
    load_profile,
    profile_from_json,
    profile_to_json,
    save_profile,
)
from repro.planner import OpenMPPlanner
from tests.conftest import profile_source

SOURCE = """
float a[256];
void kernel() {
  for (int i = 0; i < 256; i++) { a[i] = a[i] * 1.5 + 1.0; }
}
int main() {
  for (int r = 0; r < 5; r++) { kernel(); }
  float s = 0.0;
  for (int i = 0; i < 256; i++) { s += a[i]; }
  return (int) s;
}
"""


@pytest.fixture(scope="module")
def original():
    _, profile, _ = profile_source(SOURCE)
    return profile


class TestRoundTrip:
    def test_json_roundtrip_preserves_dictionary(self, original):
        restored = profile_from_json(profile_to_json(original))
        assert restored.root_char == original.root_char
        assert restored.dictionary.raw_records == original.dictionary.raw_records
        assert len(restored.dictionary) == len(original.dictionary)
        for before, after in zip(
            original.dictionary.entries, restored.dictionary.entries
        ):
            assert (before.static_id, before.work, before.cp, before.children) == (
                after.static_id, after.work, after.cp, after.children
            )

    def test_roundtrip_preserves_region_tree(self, original):
        restored = profile_from_json(profile_to_json(original))
        assert len(restored.regions) == len(original.regions)
        for before, after in zip(original.regions, restored.regions):
            assert before.name == after.name
            assert before.kind == after.kind
            assert before.parent_id == after.parent_id
            assert before.children_ids == after.children_ids
            assert str(before.span) == str(after.span)

    def test_roundtrip_preserves_metadata(self, original):
        restored = profile_from_json(profile_to_json(original))
        assert restored.total_work == original.total_work
        assert restored.instructions_retired == original.instructions_retired
        assert restored.program_name == original.program_name

    def test_file_roundtrip(self, original, tmp_path):
        path = str(tmp_path / "profile.json")
        save_profile(original, path)
        restored = load_profile(path)
        assert restored.total_work == original.total_work

    def test_stream_roundtrip(self, original):
        buffer = io.StringIO()
        save_profile(original, buffer)
        buffer.seek(0)
        restored = load_profile(buffer)
        assert restored.root_char == original.root_char

    def test_planning_identical_after_reload(self, original):
        planner = OpenMPPlanner()
        plan_before = planner.plan(aggregate_profile(original))
        restored = profile_from_json(profile_to_json(original))
        plan_after = planner.plan(aggregate_profile(restored))
        assert plan_before.region_ids == plan_after.region_ids
        assert [i.est_program_speedup for i in plan_before] == pytest.approx(
            [i.est_program_speedup for i in plan_after]
        )

    def test_interning_still_works_after_reload(self, original):
        restored = profile_from_json(profile_to_json(original))
        entry = restored.dictionary.entries[0]
        char = restored.dictionary.intern(
            entry.static_id, entry.work, entry.cp, entry.children
        )
        assert char == entry.char  # reuses the existing character


class TestMalformedInput:
    def test_wrong_format_tag(self, original):
        data = profile_to_json(original)
        data["format"] = "something-else"
        with pytest.raises(ProfileFormatError, match="not a kremlin"):
            profile_from_json(data)

    def test_unknown_version(self, original):
        data = profile_to_json(original)
        data["version"] = 99
        with pytest.raises(ProfileFormatError, match="version"):
            profile_from_json(data)

    def test_root_out_of_range(self, original):
        data = profile_to_json(original)
        data["root_char"] = 10_000
        with pytest.raises(ProfileFormatError, match="root"):
            profile_from_json(data)

    def test_non_leaf_first_dictionary(self, original):
        data = profile_to_json(original)
        data["dictionary"][0]["children"] = [[5, 1]]
        with pytest.raises(ProfileFormatError, match="leaf-first"):
            profile_from_json(data)

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ProfileFormatError, match="JSON object"):
            load_profile(str(path))


_DELETE = object()

#: One structural defect per case, as (path into the document, new value);
#: every one must surface as a ProfileFormatError, never as a bare
#: TypeError/KeyError or a silent accept.
STRUCTURAL_DEFECTS = {
    "document-list": ((), [1, 2, 3]),
    "dict-entry-none": (("dictionary", 0), None),
    "dict-entry-list": (("dictionary", 0), [0, 1, 1, []]),
    "dict-entry-missing-field": (("dictionary", 0, "cp"), _DELETE),
    "dict-static-str": (("dictionary", 0, "static"), "0"),
    "dict-static-unknown-region": (("dictionary", 0, "static"), 10_000),
    "dict-work-str": (("dictionary", 0, "work"), "x"),
    "dict-work-bool": (("dictionary", 0, "work"), True),
    "dict-cp-float": (("dictionary", 0, "cp"), 1.5),
    "dict-children-none": (("dictionary", 0, "children"), None),
    "dict-children-dict": (("dictionary", 0, "children"), {}),
    "dict-child-not-pair": (("dictionary", -1, "children"), [[0]]),
    "dict-child-count-str": (("dictionary", -1, "children"), [[0, "1"]]),
    "dict-child-negative": (("dictionary", -1, "children"), [[-1, 1]]),
    "dictionary-not-list": (("dictionary",), {"0": {}}),
    "regions-not-list": (("regions",), None),
    "region-record-none": (("regions", 0), None),
    "region-record-str": (("regions", 0), "main"),
    "region-bad-kind": (("regions", 0, "kind"), "nest"),
    "region-id-str": (("regions", 0, "id"), "0"),
    "region-name-int": (("regions", 0, "name"), 7),
    "region-loop-depth-str": (("regions", 0, "loop_depth"), "1"),
    "region-parent-self": (("regions", 0, "parent"), 0),
    "region-parent-str": (("regions", 1, "parent"), "0"),
    "region-span-none": (("regions", 0, "span"), None),
    "region-span-str-line": (("regions", 0, "span", "start"), "ab"),
    "region-static-cost-list": (("regions", 0, "static_cost"), [1, 2]),
    "region-verdict-int": (("regions", 0, "verdict"), 3),
    "raw-records-str": (("raw_records",), "12"),
    "root-char-str": (("root_char",), "0"),
    "root-char-float": (("root_char",), 0.0),
    "instructions-retired-none": (("instructions_retired",), None),
    "total-work-str": (("total_work",), "9"),
    "max-depth-str": (("max_depth",), "3"),
    "program-int": (("program",), 4),
}


@pytest.mark.parametrize("defect", sorted(STRUCTURAL_DEFECTS))
def test_structural_defect_is_a_format_error(original, defect):
    path, value = STRUCTURAL_DEFECTS[defect]
    data = json.loads(json.dumps(profile_to_json(original)))
    if path:
        target = data
        for key in path[:-1]:
            target = target[key]
        if value is _DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    else:
        data = value
    with pytest.raises(ProfileFormatError):
        profile_from_json(data)


class TestVerdictRoundTrip:
    def test_verdict_tags_survive_roundtrip(self, original):
        tags = {r.id: r.verdict for r in original.regions}
        # The analyzer resolved the profiled loops, so at least one region
        # carries a real verdict (this program has a doall + a reduction).
        assert any(tag != "?" for tag in tags.values())
        restored = profile_from_json(profile_to_json(original))
        assert {r.id: r.verdict for r in restored.regions} == tags

    def test_legacy_records_default_to_unknown(self, original):
        data = profile_to_json(original)
        for record in data["regions"]:
            record.pop("verdict", None)
        restored = profile_from_json(data)
        assert all(r.verdict == "?" for r in restored.regions)
