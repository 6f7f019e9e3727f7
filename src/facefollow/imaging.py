"""8-bit grayscale rasters, netpbm decode/encode and integral-image tables.

The integral table gives any axis-aligned rectangle sum in four lookups,
which is what makes sliding-window feature evaluation affordable on a
companion computer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

MAX_DIM = 8192  # guards the 64-bit accumulators (255 * 8192^2 fits easily)

# BT.601 luma weights, fixed-point so the PPM->gray mapping is exact.
_LUMA_R, _LUMA_G, _LUMA_B = 299, 587, 114


def _round_half_up(v: float) -> int:
    """The rounding rule for scan and scene geometry: halves round toward
    +infinity, on negative values too (-2.5 -> -2, -0.6 -> -1)."""
    return math.floor(v + 0.5)


class PnmParseError(ValueError):
    """Raised for malformed PGM/PPM input; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned pixel rectangle, top-left origin."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"rect needs positive extent, got {self.w}x{self.h}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"rect origin must be non-negative, got ({self.x},{self.y})")

    @property
    def right(self) -> int:
        return self.x + self.w

    @property
    def bottom(self) -> int:
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    def contains(self, other: "Rect") -> bool:
        return (self.x <= other.x and self.y <= other.y
                and other.right <= self.right and other.bottom <= self.bottom)

    def fits_in(self, width: int, height: int) -> bool:
        return self.right <= width and self.bottom <= height


class GrayImage:
    """Luminance raster; pixel array is (height, width) uint8, frozen after init."""

    __slots__ = ("width", "height", "data")

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError(f"expected 2-d pixel array, got shape {arr.shape}")
        h, w = arr.shape
        if w < 1 or h < 1 or w > MAX_DIM or h > MAX_DIM:
            raise ValueError(f"image dimensions {w}x{h} outside 1..{MAX_DIM}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "width", w)
        object.__setattr__(self, "height", h)

    def __setattr__(self, name, value):
        raise AttributeError("GrayImage is immutable")

    def __eq__(self, other):
        return (isinstance(other, GrayImage)
                and self.width == other.width and self.height == other.height
                and bool(np.array_equal(self.data, other.data)))

    def __repr__(self):
        return f"GrayImage({self.width}x{self.height})"

    def crop(self, r: Rect) -> "GrayImage":
        if not r.fits_in(self.width, self.height):
            raise ValueError(f"crop rect {r} outside {self.width}x{self.height} image")
        return GrayImage(self.data[r.y:r.bottom, r.x:r.right].copy())


class IntegralPair:
    """Plain and squared integral tables with a zero top/left border.

    ``ii[y+1, x+1]`` holds the sum of all pixels in rows <= y and columns
    <= x; ``sq`` is the same over squared pixels.  The border row/column of
    zeros stands in for the s(x,-1) = 0 / ii(-1,y) = 0 conventions of the
    usual cumulative-sum recurrences and keeps the 4-tap lookup branch-free.
    """

    __slots__ = ("width", "height", "ii", "sq")

    def __init__(self, width: int, height: int, ii: np.ndarray, sq: np.ndarray):
        for name, t in (("ii", ii), ("sq", sq)):
            if t.shape != (height + 1, width + 1) or t.dtype != np.int64:
                raise ValueError(f"{name} table must be int64 ({height + 1},{width + 1})")
            t.setflags(write=False)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "ii", ii)
        object.__setattr__(self, "sq", sq)

    def __setattr__(self, name, value):
        raise AttributeError("IntegralPair is immutable")


def integral(img: GrayImage) -> IntegralPair:
    """Build both integral tables in one cumulative sweep per axis.

    Row-cumulative sums first, then column-cumulative: the vectorized form
    of s(x,y) = s(x,y-1) + i(x,y); ii(x,y) = ii(x-1,y) + s(x,y).
    """
    h, w = img.height, img.width
    ii = np.zeros((h + 1, w + 1), dtype=np.int64)
    sq = np.zeros((h + 1, w + 1), dtype=np.int64)
    px = img.data.astype(np.int64)
    np.cumsum(px, axis=1, out=ii[1:, 1:])
    np.cumsum(ii[1:, 1:], axis=0, out=ii[1:, 1:])
    np.cumsum(px * px, axis=1, out=sq[1:, 1:])
    np.cumsum(sq[1:, 1:], axis=0, out=sq[1:, 1:])
    return IntegralPair(w, h, ii, sq)


def rect_sum(ip: IntegralPair, r: Rect, squared: bool = False) -> int:
    """Sum of pixels (or squared pixels) inside ``r`` via four table taps."""
    if not r.fits_in(ip.width, ip.height):
        raise ValueError(f"rect {r} outside {ip.width}x{ip.height} integral table")
    t = ip.sq if squared else ip.ii
    return int(t[r.bottom, r.right] - t[r.y, r.right] - t[r.bottom, r.x] + t[r.y, r.x])


# --- netpbm ----------------------------------------------------------------

# separators (whitespace, '#' comments to end of line), then the digits
_NUMBER = re.compile(rb"(?:\s|#[^\n\r]*)*(\d*)")


def _next_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """The number after the separators at ``pos``, and the offset past it."""
    start, end = _NUMBER.match(data, pos).span(1)
    if start == end:
        raise PnmParseError(f"malformed header: expected {what}", start)
    try:
        return int(data[start:end]), end
    except ValueError as e:  # over the interpreter's digit limit
        raise PnmParseError(f"{what}: {e}", start) from e


def decode_pnm(data: bytes) -> GrayImage:
    """Decode P2/P3/P5/P6 netpbm bytes (maxval <= 255) into a GrayImage.

    Color input is reduced to luminance with integer BT.601 weights,
    rounding half up, so fixtures decode identically everywhere.
    """
    if len(data) < 2:
        raise PnmParseError("malformed header: too short for magic", 0)
    magic = data[:2]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise PnmParseError(f"malformed header: unknown magic {magic!r}", 0)
    ascii_form = magic in (b"P2", b"P3")
    color = magic in (b"P3", b"P6")

    width, pos = _next_int(data, 2, "width")
    height, pos = _next_int(data, pos, "height")
    maxval_at = pos
    maxval, pos = _next_int(data, pos, "maxval")
    if width < 1 or height < 1 or width > MAX_DIM or height > MAX_DIM:
        raise PnmParseError(f"malformed header: bad dimensions {width}x{height}", 2)
    if maxval < 1 or maxval > 255:
        raise PnmParseError(f"maxval {maxval} not in 1..255", maxval_at)

    samples = width * height * (3 if color else 1)
    if ascii_form:
        flat = np.empty(samples, dtype=np.int64)
        for i in range(samples):
            at = pos
            v, pos = _next_int(data, pos, "sample value")
            if v > maxval:
                raise PnmParseError(f"sample {v} exceeds maxval {maxval}", at)
            flat[i] = v
    else:
        # exactly one whitespace byte separates maxval from binary payload
        if not data[pos:pos + 1].isspace():
            raise PnmParseError("malformed header: missing payload separator", pos)
        start = pos + 1
        if len(data) - start < samples:
            raise PnmParseError(
                f"truncated payload: need {samples} bytes, have {len(data) - start}",
                len(data))
        raw = np.frombuffer(data, dtype=np.uint8, count=samples, offset=start)
        if raw.max(initial=0) > maxval:
            raise PnmParseError(f"sample exceeds maxval {maxval}", start)
        flat = raw.astype(np.int64)

    if color:
        rgb = flat.reshape(height, width, 3)
        lum = (_LUMA_R * rgb[:, :, 0] + _LUMA_G * rgb[:, :, 1]
               + _LUMA_B * rgb[:, :, 2] + 500) // 1000
        return GrayImage(lum.astype(np.uint8))
    return GrayImage(flat.reshape(height, width).astype(np.uint8))


def encode_pgm(img: GrayImage) -> bytes:
    """Binary P5 bytes for ``img``."""
    return b"P5\n%d %d\n255\n" % (img.width, img.height) + img.data.tobytes()


def encode_ppm(rgb: np.ndarray) -> bytes:
    """Binary P6 bytes for an (h, w, 3) uint8 array."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError("expected (h, w, 3) uint8 array")
    h, w = rgb.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(rgb).tobytes()


def to_rgb(img: GrayImage) -> np.ndarray:
    """Writable (h, w, 3) copy of a gray image, for annotation."""
    return np.repeat(img.data[:, :, None], 3, axis=2).copy()


def draw_box(rgb: np.ndarray, r: Rect, color: tuple[int, int, int],
             thickness: int = 3) -> None:
    """Paint a rectangle border into an RGB array, clipped to the canvas."""
    h, w = rgb.shape[:2]
    x0, y0 = r.x, r.y
    x1, y1 = min(r.right, w), min(r.bottom, h)
    if x0 >= x1 or y0 >= y1:
        return
    t = thickness
    c = np.array(color, dtype=np.uint8)
    rgb[y0:min(y0 + t, y1), x0:x1] = c
    rgb[max(y1 - t, y0):y1, x0:x1] = c
    rgb[y0:y1, x0:min(x0 + t, x1)] = c
    rgb[y0:y1, max(x1 - t, x0):x1] = c
