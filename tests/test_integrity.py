"""Tests for the checksummed-durability layer (repro.resilience.integrity)."""

import json

import pytest

from repro.resilience import integrity
from repro.resilience.errors import ArtifactCorrupt


class TestFraming:
    def test_frame_unframe_round_trip(self):
        payload = "line one\nline two\n"
        framed = integrity.frame(payload)
        assert framed.startswith(payload)
        assert integrity.FOOTER_PREFIX in framed
        assert integrity.unframe(framed) == payload

    def test_frame_adds_trailing_newline(self):
        framed = integrity.frame("no newline")
        assert integrity.unframe(framed) == "no newline\n"

    def test_empty_payload_round_trips(self):
        assert integrity.unframe(integrity.frame("")) == ""

    def test_unfooted_text_passes_without_require(self):
        legacy = "just some old artifact\n"
        assert integrity.unframe(legacy) == legacy

    def test_unfooted_text_fails_with_require(self):
        with pytest.raises(ArtifactCorrupt, match="footer missing"):
            integrity.unframe("payload\n", require=True)

    def test_flipped_payload_byte_detected(self):
        framed = integrity.frame("abcdef\n")
        tampered = framed.replace("abcdef", "abcdeX")
        with pytest.raises(ArtifactCorrupt, match="sha256 mismatch"):
            integrity.unframe(tampered)

    def test_truncated_payload_detected(self):
        framed = integrity.frame("0123456789\n")
        lines = framed.splitlines(keepends=True)
        # Drop payload bytes but keep the footer: length check trips.
        tampered = lines[0][:4] + "\n" + lines[1]
        with pytest.raises(ArtifactCorrupt, match="bytes"):
            integrity.unframe(tampered)

    def test_every_cut_inside_the_footer_detected(self):
        framed = integrity.frame("payload\n")
        for cut in range(len("payload\n"), len(framed)):
            with pytest.raises(ArtifactCorrupt):
                integrity.unframe(framed[:cut], require=True)

    def test_bytes_after_footer_detected(self):
        framed = integrity.frame("payload\n") + "stray appended junk\n"
        with pytest.raises(ArtifactCorrupt, match="after the"):
            integrity.unframe(framed)

    def test_error_carries_path(self, tmp_path):
        framed = integrity.frame("data\n").replace("data", "dama")
        with pytest.raises(ArtifactCorrupt) as excinfo:
            integrity.unframe(framed, path=tmp_path / "x.json")
        assert excinfo.value.path == tmp_path / "x.json"


class TestAtomicWrites:
    def test_atomic_write_text(self, tmp_path):
        path = tmp_path / "out.txt"
        integrity.atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        # No temp litter left behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_atomic_write_replaces_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        integrity.atomic_write_text(path, "new\n")
        assert path.read_text() == "new\n"

    def test_atomic_write_json_is_plain_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        integrity.atomic_write_json(path, {"version": 3})
        # Manifests must stay loadable by naive json.load (no footer).
        with open(path) as fh:
            assert json.load(fh) == {"version": 3}

    def test_write_checked_read_checked_round_trip(self, tmp_path):
        path = tmp_path / "artifact.jsonl"
        integrity.write_checked(path, "r1\nr2\n")
        assert integrity.read_checked(path) == "r1\nr2\n"


class TestReadCheckedAndQuarantine:
    def test_corrupt_file_quarantined(self, tmp_path):
        path = tmp_path / "artifact.jsonl"
        integrity.write_checked(path, "good payload\n")
        raw = path.read_text().replace("good", "evil")
        path.write_text(raw)
        with pytest.raises(ArtifactCorrupt) as excinfo:
            integrity.read_checked(path)
        assert not path.exists()
        quarantined = excinfo.value.quarantined
        assert quarantined is not None
        assert quarantined.parent.name == "artifact.jsonl.corrupt"
        assert "evil" in quarantined.read_text()

    def test_quarantine_serials_do_not_collide(self, tmp_path):
        moved = []
        for _ in range(3):
            path = tmp_path / "a.json"
            path.write_text("bad")
            moved.append(integrity.quarantine(path))
        assert len({m.name for m in moved}) == 3

    def test_quarantine_missing_file_is_none(self, tmp_path):
        assert integrity.quarantine(tmp_path / "ghost") is None

    def test_quarantine_can_be_disabled(self, tmp_path):
        path = tmp_path / "artifact.jsonl"
        integrity.write_checked(path, "payload\n")
        path.write_text(path.read_text().replace("pay", "poi"))
        with pytest.raises(ArtifactCorrupt):
            integrity.read_checked(path, quarantine_bad=False)
        assert path.exists()

    def test_non_utf8_bytes_are_corruption(self, tmp_path):
        path = tmp_path / "artifact.jsonl"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(ArtifactCorrupt, match="UTF-8"):
            integrity.read_checked(path)
        assert not path.exists()

    def test_legacy_unfooted_file_loads(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text("old format, no footer\n")
        assert integrity.read_checked(path) == "old format, no footer\n"
