"""8-bit grayscale rasters, netpbm decode/encode and integral-image tables.

The integral table gives any axis-aligned rectangle sum in four lookups,
which is what makes sliding-window feature evaluation affordable on a
companion computer.
"""

from __future__ import annotations

import math
import numbers
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


# The settings rules live here because this module imports no other
# facefollow module, so every settings object can import them.

def _is_int(v, minimum: int) -> bool:
    """Every int rule: an int or numpy integer, not a bool, of at least ``minimum``."""
    return ((type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool))
            and v >= minimum)


def _is_finite(v) -> bool:
    """The rule of every finite setting: a real number that is not a bool (an
    int, a float or a numpy number) and not NaN, +-inf or an int beyond float range."""
    try:  # a float skips the slow abstract-class test
        return ((type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool))
                and math.isfinite(v))
    except OverflowError:  # an int beyond float range (abs(v) <= max passes np.float32 inf)
        return False


# keyed by the wording of each rule's message; each takes numbers only
_RULES = {"finite": _is_finite,
          "finite and positive": lambda v: _is_finite(v) and v > 0,
          "finite and non-negative": lambda v: _is_finite(v) and v >= 0,
          "an int of at least 0": lambda v: _is_int(v, 0),
          "an int of at least 1": lambda v: _is_int(v, 1)}


def _check(rule: str, obj, *names: str) -> None:
    """Raise ValueError "{name} must be {rule}, got {value!r}" for the first field
    ``names`` of ``obj`` (or key of a dict ``obj``) that breaks ``rule``."""
    for k in names or obj:
        v = obj[k] if isinstance(obj, dict) else getattr(obj, k)
        if not _RULES[rule](v):
            raise ValueError(f"{k} must be {rule}, got {v!r}")


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
        if not (_is_int(self.x, 0) and _is_int(self.y, 0) and _is_int(self.w, 1)
                and _is_int(self.h, 1)):
            raise ValueError(f"rect needs ints x, y >= 0 and w, h >= 1, got {self!r}")

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
    """Luminance raster; pixel array is (height, width) uint8, frozen after init.

    A uint8 array is taken as it is and an integer array whose values all
    lie in 0..255 is cast; any other dtype (float, bool) or value raises
    ValueError.
    """

    __slots__ = ("width", "height", "data")

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.dtype != np.uint8:
            if arr.dtype.kind not in "iu":
                raise ValueError(f"pixel dtype must be uint8 or an integer type, got {arr.dtype}")
            if arr.size and not 0 <= arr.min() <= arr.max() <= 255:
                raise ValueError(f"pixel values must lie in 0..255, got {arr.min()}..{arr.max()}")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
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
    ``tables`` is the (2, height+1, width+1) int64 block whose planes are
    ``ii`` and ``sq``, as ``integral`` builds it, so one flat offset reaches
    either table; the pair makes it read-only and derives the other fields
    from it.
    """

    __slots__ = ("width", "height", "ii", "sq", "tables")

    def __init__(self, tables: np.ndarray):
        if not (tables.ndim == 3 and tables.shape[0] == 2 and min(tables.shape[1:]) >= 2
                and tables.dtype == np.int64):
            raise ValueError(f"tables must be an int64 (2, height+1, width+1) block with "
                             f"height, width >= 1, got {tables.dtype} {tables.shape}")
        tables.setflags(write=False)
        object.__setattr__(self, "width", tables.shape[2] - 1)
        object.__setattr__(self, "height", tables.shape[1] - 1)
        object.__setattr__(self, "ii", tables[0])
        object.__setattr__(self, "sq", tables[1])
        object.__setattr__(self, "tables", tables)

    def __setattr__(self, name, value):
        raise AttributeError("IntegralPair is immutable")


def integral(img: GrayImage) -> IntegralPair:
    """Build both integral tables in one row pass and one column pass per plane.

    The pixels and their squares are interleaved in one (h, w, 2) int32
    block, and one cumulative sum along its rows takes both at once: a row
    prefix of squares is at most ``MAX_DIM`` * 255**2 = 8192 * 65025 < 2**31,
    so int32 holds it exactly.  Each plane's row prefixes are then widened
    into the interior of its plane of one int64 (2, h+1, w+1) block, whose
    border row and column alone are zeroed, and summed in place down the
    columns: the vectorized form of r(x,y) = r(x-1,y) + i(x,y);
    ii(x,y) = ii(x,y-1) + r(x,y).
    """
    h, w = img.height, img.width
    rows = np.empty((h, w, 2), dtype=np.int32)
    rows[..., 0] = img.data
    np.multiply(img.data, img.data, out=rows[..., 1], dtype=np.int32)
    np.cumsum(rows, axis=1, out=rows)
    tables = np.empty((2, h + 1, w + 1), dtype=np.int64)
    tables[:, 0] = 0
    tables[:, 1:, 0] = 0
    for prefix, t in zip(rows.transpose(2, 0, 1), tables[:, 1:, 1:]):
        np.copyto(t, prefix)
        np.cumsum(t, axis=0, out=t)
    return IntegralPair(tables)


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

    Samples are first scaled from 0..maxval to 0..255 as ``(v * 255 +
    maxval // 2) // maxval``.  Color input is then reduced to luminance with
    integer BT.601 weights, rounding half up, so fixtures decode identically
    everywhere.
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
        # grown as samples are read, so a header cannot reserve what the input lacks
        buf = bytearray()
        for _ in range(samples):
            at = pos
            v, pos = _next_int(data, pos, "sample value")
            if v > maxval:
                raise PnmParseError(f"sample {v} exceeds maxval {maxval}", at)
            buf.append(v)
        flat = np.frombuffer(buf, dtype=np.uint8)
    else:
        # exactly one whitespace byte separates maxval from binary payload
        if not data[pos:pos + 1].isspace():
            raise PnmParseError("malformed header: missing payload separator", pos)
        start = pos + 1
        if len(data) - start < samples:
            raise PnmParseError(
                f"truncated payload: need {samples} bytes, have {len(data) - start}",
                len(data))
        # a copy: the image must not share the caller's buffer
        flat = np.frombuffer(data, dtype=np.uint8, count=samples, offset=start).copy()
        if flat.max(initial=0) > maxval:
            raise PnmParseError(f"sample exceeds maxval {maxval}", start)

    if maxval != 255:
        # samples in 0..maxval become 0..255, rounded half up
        flat = ((flat.astype(np.uint32) * 255 + maxval // 2) // maxval).astype(np.uint8)
    if color:
        # the largest sum, 255 * 1000 + 500, fits easily in uint32; the
        # explicit dtype keeps numpy 1.x from taking uint8 * 299 in uint16
        rgb = flat.reshape(height, width, 3)
        lum = np.multiply(rgb[:, :, 0], _LUMA_R, dtype=np.uint32)
        lum += np.multiply(rgb[:, :, 1], _LUMA_G, dtype=np.uint32)
        lum += np.multiply(rgb[:, :, 2], _LUMA_B, dtype=np.uint32)
        lum += 500
        lum //= 1000
        return GrayImage(lum.astype(np.uint8))
    return GrayImage(flat.reshape(height, width))


def encode_pgm(img: GrayImage) -> bytes:
    """Binary P5 bytes for ``img``."""
    return b"P5\n%d %d\n255\n" % (img.width, img.height) + img.data.tobytes()


def encode_ppm(rgb: np.ndarray) -> bytes:
    """Binary P6 bytes for an (h, w, 3) uint8 array."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError("expected (h, w, 3) uint8 array")
    h, w = rgb.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(rgb).tobytes()


def annotated_ppm(img: GrayImage, boxes) -> bytes:
    """Binary P6 bytes of ``img`` with ``draw_box`` of each ``(rect, color)`` of ``boxes``."""
    rgb = to_rgb(img)
    for r, color in boxes:
        draw_box(rgb, r, color)
    return encode_ppm(rgb)


def to_rgb(img: GrayImage) -> np.ndarray:
    """Writable (h, w, 3) copy of a gray image, for annotation; ``np.stack``
    returns a new array that owns its data."""
    d = img.data
    return np.stack([d, d, d], axis=2)


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
