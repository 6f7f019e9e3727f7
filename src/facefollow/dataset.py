"""Training-manifest parsing and validation.

Positive manifests (.dat) list an image path, an object count and that many
bounding rectangles per line; negative manifests are one background image
path per line.  Validation cross-checks the files on disk against the
training window size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ._rules import _check
from .imaging import PnmParseError, Rect, decode_pnm


class ManifestError(ValueError):
    """Malformed manifest line; message names the line number."""


@dataclass(frozen=True)
class PositiveRecord:
    image_path: str
    objects: tuple[Rect, ...]


@dataclass(frozen=True)
class NegativeRecord:
    image_path: str


@dataclass
class DatasetReport:
    missing: list[str] = field(default_factory=list)
    undersized_negatives: list[str] = field(default_factory=list)  # "path (WxH < w x h)"
    out_of_bounds: list[str] = field(default_factory=list)         # "path rect (...)"
    unreadable: list[str] = field(default_factory=list)
    positive_count: int = 0
    negative_count: int = 0
    advisories: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.missing or self.undersized_negatives
                    or self.out_of_bounds or self.unreadable)

    def lines(self) -> list[str]:
        out = [f"positives: {self.positive_count} records",
               f"negatives: {self.negative_count} records"]
        for label, items in (("missing", self.missing),
                             ("undersized negative", self.undersized_negatives),
                             ("rect out of bounds", self.out_of_bounds),
                             ("unreadable", self.unreadable)):
            out.extend(f"{label}: {item}" for item in items)
        out.extend(f"advisory: {a}" for a in self.advisories)
        return out


def parse_positive_manifest(text: str) -> list[PositiveRecord]:
    """One record per non-empty line: ``path N x1 y1 w1 h1 ... xN yN wN hN``."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = stripped.split()
        if len(toks) < 2:
            raise ManifestError(f"line {lineno}: expected 'path count rects...'")
        path = toks[0]
        try:
            count = int(toks[1])
        except ValueError:
            raise ManifestError(f"line {lineno}: object count {toks[1]!r} not an integer")
        if count < 0:
            raise ManifestError(f"line {lineno}: negative object count {count}")
        coords = toks[2:]
        if len(coords) != 4 * count:
            raise ManifestError(
                f"line {lineno}: declared {count} object(s) but got "
                f"{len(coords)} coordinate(s), expected {4 * count}")
        rects = []
        for i in range(count):
            try:
                x, y, w, h = (int(c) for c in coords[4 * i:4 * i + 4])
            except ValueError:
                raise ManifestError(
                    f"line {lineno}: object {i + 1} has non-integer geometry")
            if w <= 0 or h <= 0 or x < 0 or y < 0:
                raise ManifestError(
                    f"line {lineno}: object {i + 1} has bad geometry "
                    f"({x} {y} {w} {h})")
            rects.append(Rect(x, y, w, h))
        records.append(PositiveRecord(path, tuple(rects)))
    return records


def serialize_positive_manifest(records: list[PositiveRecord]) -> str:
    lines = []
    for r in records:
        parts = [r.image_path, str(len(r.objects))]
        for rect in r.objects:
            parts.extend(str(v) for v in (rect.x, rect.y, rect.w, rect.h))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_negative_manifest(text: str) -> list[NegativeRecord]:
    """One path per line; blank lines and ``#`` comments are skipped."""
    records = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        records.append(NegativeRecord(stripped))
    return records


def serialize_negative_manifest(records: list[NegativeRecord]) -> str:
    return "".join(r.image_path + "\n" for r in records)


# a few thousand positives / five hundred negatives is the usual guidance
ADVISORY_POSITIVES = 1000
ADVISORY_NEGATIVES = 500


def validate_dataset(pos: list[PositiveRecord], neg: list[NegativeRecord],
                     train_w: int, train_h: int, root: str) -> DatasetReport:
    """Check manifests against decodable images under ``root``.

    Sample-count guidance is reported as advisory only; real violations are
    missing files, negatives smaller than the training window, and object
    rects that do not fit inside their image.  A training window size that is
    not an int of at least 1 raises ValueError.
    """
    _check("an int of at least 1", {"train_w": train_w, "train_h": train_h})
    if not os.path.isdir(root):
        raise NotADirectoryError(f"dataset root {root!r} is not a directory")
    report = DatasetReport(positive_count=len(pos), negative_count=len(neg))

    def load(path: str):
        full = os.path.join(root, path)
        if not os.path.isfile(full):
            report.missing.append(path)
            return None
        try:
            with open(full, "rb") as fh:
                return decode_pnm(fh.read())
        except (PnmParseError, OSError) as e:
            report.unreadable.append(f"{path}: {e}")
            return None

    for rec in pos:
        img = load(rec.image_path)
        if img is None:
            continue
        for rect in rec.objects:
            if not rect.fits_in(img.width, img.height):
                report.out_of_bounds.append(
                    f"{rec.image_path} rect ({rect.x} {rect.y} {rect.w} {rect.h}) "
                    f"exceeds {img.width}x{img.height}")

    for rec in neg:
        img = load(rec.image_path)
        if img is None:
            continue
        if img.width < train_w or img.height < train_h:
            report.undersized_negatives.append(
                f"{rec.image_path} ({img.width}x{img.height} < {train_w}x{train_h})")

    if len(pos) < ADVISORY_POSITIVES:
        report.advisories.append(
            f"only {len(pos)} positive records; a few thousand are recommended")
    if len(neg) < ADVISORY_NEGATIVES:
        report.advisories.append(
            f"only {len(neg)} negative records; about {ADVISORY_NEGATIVES} are recommended")
    return report
