import re

import numpy as np
import pytest

from facefollow.dataset import (ManifestError, NegativeRecord, PositiveRecord,
                                parse_negative_manifest, parse_positive_manifest,
                                serialize_negative_manifest,
                                serialize_positive_manifest, validate_dataset)
from facefollow.imaging import GrayImage, Rect, encode_pgm


class TestPositiveManifest:
    def test_single_object_line(self):
        recs = parse_positive_manifest("img/a.png 1 140 100 45 45\n")
        assert recs == [PositiveRecord("img/a.png", (Rect(140, 100, 45, 45),))]

    def test_two_objects(self):
        recs = parse_positive_manifest("img/b.png 2 10 10 5 5 30 30 8 8\n")
        assert len(recs[0].objects) == 2
        assert recs[0].objects[1] == Rect(30, 30, 8, 8)

    def test_count_mismatch_names_line(self):
        text = "ok.png 1 1 1 2 2\nbad.png 3 10 10 5 5 30 30 8 8\n"
        with pytest.raises(ManifestError, match="line 2.*declared 3"):
            parse_positive_manifest(text)

    def test_non_integer_geometry(self):
        with pytest.raises(ManifestError, match="non-integer"):
            parse_positive_manifest("a.png 1 10 10 x 5")

    def test_negative_extent(self):
        with pytest.raises(ManifestError, match="bad geometry"):
            parse_positive_manifest("a.png 1 10 10 -5 5")

    def test_roundtrip_identity(self):
        text = "a.png 1 1 2 3 4\nb.png 2 0 0 9 9 5 5 6 6\n"
        recs = parse_positive_manifest(text)
        assert serialize_positive_manifest(recs) == text
        assert parse_positive_manifest(serialize_positive_manifest(recs)) == recs


class TestNegativeManifest:
    def test_paths_in_order(self):
        recs = parse_negative_manifest("neg/x.png\nneg/y.png\nneg/z.png\n")
        assert [r.image_path for r in recs] == ["neg/x.png", "neg/y.png", "neg/z.png"]

    def test_empty_file(self):
        assert parse_negative_manifest("") == []

    def test_comments_and_blanks_skipped(self):
        text = "# header\nneg/a.png\n\n# middle\nneg/b.png\n"
        recs = parse_negative_manifest(text)
        assert [r.image_path for r in recs] == ["neg/a.png", "neg/b.png"]

    def test_roundtrip_identity(self):
        recs = parse_negative_manifest("p.png\nq.png\n")
        assert parse_negative_manifest(serialize_negative_manifest(recs)) == recs


def write_pgm(path, w, h, value=128):
    img = GrayImage(np.full((h, w), value, dtype=np.uint8))
    path.write_bytes(encode_pgm(img))


class TestValidateDataset:
    def test_clean_dataset(self, tmp_path):
        write_pgm(tmp_path / "pos1.pgm", 64, 64)
        write_pgm(tmp_path / "neg1.pgm", 40, 40)
        pos = [PositiveRecord("pos1.pgm", (Rect(5, 5, 20, 20),))]
        neg = [NegativeRecord("neg1.pgm")]
        report = validate_dataset(pos, neg, 20, 20, str(tmp_path))
        assert report.ok
        assert report.positive_count == 1 and report.negative_count == 1
        assert report.advisories  # tiny sample counts are advisory, not errors

    def test_undersized_negative_flagged(self, tmp_path):
        write_pgm(tmp_path / "neg_small.pgm", 10, 10)
        report = validate_dataset([], [NegativeRecord("neg_small.pgm")],
                                  20, 20, str(tmp_path))
        assert not report.ok
        assert "neg_small.pgm" in report.undersized_negatives[0]
        assert "10x10 < 20x20" in report.undersized_negatives[0]

    def test_rect_out_of_bounds_names_file_and_rect(self, tmp_path):
        write_pgm(tmp_path / "p.pgm", 32, 32)
        pos = [PositiveRecord("p.pgm", (Rect(20, 20, 20, 20),))]
        report = validate_dataset(pos, [], 20, 20, str(tmp_path))
        assert not report.ok
        assert "p.pgm" in report.out_of_bounds[0]
        assert "(20 20 20 20)" in report.out_of_bounds[0]

    def test_missing_file_listed(self, tmp_path):
        report = validate_dataset([PositiveRecord("gone.pgm", ())], [],
                                  20, 20, str(tmp_path))
        assert report.missing == ["gone.pgm"]

    def test_unreadable_image_listed(self, tmp_path):
        (tmp_path / "broken.pgm").write_bytes(b"P5 junk")
        report = validate_dataset([], [NegativeRecord("broken.pgm")],
                                  20, 20, str(tmp_path))
        assert not report.ok and "broken.pgm" in report.unreadable[0]

    def test_bad_root_raises(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            validate_dataset([], [], 20, 20, str(tmp_path / "nope"))

    @pytest.mark.parametrize("w, h, message", [
        (0, 0, "train_w must be an int of at least 1, got 0"),
        (-5, 20, "train_w must be an int of at least 1, got -5"),
        (20.5, 20, "train_w must be an int of at least 1, got 20.5"),
        (20, 0, "train_h must be an int of at least 1, got 0"),
        (20, True, "train_h must be an int of at least 1, got True"),
    ])
    def test_window_size_must_be_an_int_of_at_least_1(self, tmp_path, w, h, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_dataset([], [], w, h, str(tmp_path))

    def test_report_lines_are_deterministic(self, tmp_path):
        write_pgm(tmp_path / "n.pgm", 8, 8)
        neg = [NegativeRecord("n.pgm"), NegativeRecord("missing.pgm")]
        a = validate_dataset([], neg, 20, 20, str(tmp_path)).lines()
        b = validate_dataset([], neg, 20, 20, str(tmp_path)).lines()
        assert a == b
