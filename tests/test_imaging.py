import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from facefollow._rules import _is_finite, _is_int, _round_half_up
from facefollow.imaging import (MAX_DIM, GrayImage, IntegralPair, PnmParseError, Rect,
                                annotated_ppm, decode_pnm, draw_box, encode_pgm, encode_ppm,
                                integral, rect_sum, to_rgb)

from conftest import MODEL_INTS, NOT_FINITE, random_image


def brute_integral(img: GrayImage, squared: bool = False) -> np.ndarray:
    """Independent oracle: triangular-matrix products, no cumulative sums."""
    h, w = img.height, img.width
    px = img.data.astype(np.int64)
    if squared:
        px = px * px
    lower = np.tril(np.ones((h + 1, h), dtype=np.int64), k=-1)
    right = np.triu(np.ones((w, w + 1), dtype=np.int64), k=1)
    return lower @ px @ right


def brute_rect_sum(img: GrayImage, r: Rect, squared: bool = False) -> int:
    px = img.data.astype(np.int64)
    if squared:
        px = px * px
    return int(px[r.y:r.bottom, r.x:r.right].sum())


class TestDecodePnm:
    def test_p5_identity_payload(self):
        img = decode_pnm(b"P5 2 2 255 " + bytes([0, 255, 255, 0]))
        assert (img.width, img.height) == (2, 2)
        assert img.data.tolist() == [[0, 255], [255, 0]]

    def test_p3_white_maps_to_255(self):
        img = decode_pnm(b"P3 1 1 255 255 255 255")
        assert img.data.tolist() == [[255]]

    def test_p6_random_matches_weighted_sum_oracle(self, rng):
        w, h = 9, 5
        rgb = [[tuple(rng.randrange(256) for _ in range(3)) for _ in range(w)]
               for _ in range(h)]
        payload = bytes(c for row in rgb for px in row for c in px)
        img = decode_pnm(b"P6 %d %d 255\n" % (w, h) + payload)
        for y in range(h):
            for x in range(w):
                r, g, b = rgb[y][x]
                expect = (299 * r + 587 * g + 114 * b + 500) // 1000
                assert img.data[y, x] == expect

    @pytest.mark.parametrize("magic", [b"P6", b"P3"])
    def test_color_luma_matches_the_integer_formula(self, rng, magic):
        """Every value 0..255 of each channel alone, then random triples: a
        uint8 sample times 299 or 587 taken in uint16 would overflow."""
        triples = [tuple(v if c == ch else 0 for c in range(3))
                   for ch in range(3) for v in range(256)]
        triples += [tuple(rng.randrange(256) for _ in range(3)) for _ in range(256)]
        flat = [v for t in triples for v in t]
        payload = (bytes(flat) if magic == b"P6"
                   else b" ".join(b"%d" % v for v in flat))
        img = decode_pnm(magic + b" 32 32 255\n" + payload)
        assert img.data.reshape(-1).tolist() == [
            (299 * r + 587 * g + 114 * b + 500) // 1000 for r, g, b in triples]

    def test_p2_samples_scale_to_255(self):
        assert decode_pnm(b"P2 2 1 15 15 0").data.tolist() == [[255, 0]]
        # 25.5 and 76.5 round half up
        assert decode_pnm(b"P2 4 1 10 1 3 5 10").data.tolist() == [[26, 77, 128, 255]]

    def test_p5_maxval_1(self):
        img = decode_pnm(b"P5 2 2 1 " + bytes([0, 1, 1, 0]))
        assert img.data.tolist() == [[0, 255], [255, 0]]

    def test_p6_maxval_100_scales_before_luma(self, rng):
        w, h = 7, 3
        payload = bytes(rng.randrange(101) for _ in range(w * h * 3))
        img = decode_pnm(b"P6 %d %d 100\n" % (w, h) + payload)
        for i in range(w * h):
            r, g, b = ((v * 255 + 50) // 100 for v in payload[3 * i:3 * i + 3])
            assert img.data[i // w, i % w] == (299 * r + 587 * g + 114 * b + 500) // 1000
        white = decode_pnm(b"P6 1 1 100\n" + bytes([100] * 3))
        assert white.data.tolist() == [[255]]

    def test_maxval_255_bytes_decode_unchanged(self):
        payload = bytes(range(256))
        assert decode_pnm(b"P5 16 16 255\n" + payload).data.tobytes() == payload
        ascii_form = b"P2 16 16 255 " + b" ".join(b"%d" % v for v in payload)
        assert decode_pnm(ascii_form).data.tobytes() == payload

    def test_p2_with_comments(self):
        text = b"P2 # comment\n2 1 # another\n255\n7 9\n"
        img = decode_pnm(text)
        assert img.data.tolist() == [[7, 9]]

    def test_bad_magic(self):
        with pytest.raises(PnmParseError, match="magic"):
            decode_pnm(b"P7 1 1 255 x")

    def test_truncated_payload_names_offset(self):
        with pytest.raises(PnmParseError, match="truncated payload.*offset"):
            decode_pnm(b"P5 4 4 255 " + bytes(3))

    def test_maxval_too_large(self):
        with pytest.raises(PnmParseError, match="maxval 65535"):
            decode_pnm(b"P5 1 1 65535 \x00\x00")

    def test_missing_header_field(self):
        with pytest.raises(PnmParseError, match="malformed header"):
            decode_pnm(b"P5 4")

    def test_ascii_sample_above_maxval(self):
        """The offset is that of the separator before the sample."""
        with pytest.raises(PnmParseError) as ei:
            decode_pnm(b"P2 1 1 100 101")
        assert str(ei.value) == "sample 101 exceeds maxval 100 (byte offset 10)"

    def test_non_digit_sample_names_its_offset(self):
        with pytest.raises(PnmParseError) as ei:
            decode_pnm(b"P2 2 1 255 7x")
        assert str(ei.value) == ("malformed header: expected sample value "
                                 "(byte offset 12)")

    def test_ascii_header_reserves_no_memory_for_missing_samples(self):
        """The header names 8192x8192 color samples, the input holds one: the
        decoder fails at the second sample, not at a table of 201M samples."""
        tracemalloc.start()
        try:
            with pytest.raises(PnmParseError) as ei:
                decode_pnm(b"P3 8192 8192 255\n1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(ei.value) == ("malformed header: expected sample value "
                                 "(byte offset 18)")
        assert peak < 1 << 20

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="interpreter has no integer digit limit")
    @pytest.mark.parametrize("data,what,offset", [
        pytest.param(b"P5 " + b"9" * 5000 + b" 1 255 x", "width", 3,
                     id="5000-digit-width"),
        pytest.param(b"P2 1 1 255 " + b"9" * 5001, "sample value", 11,
                     id="5001-digit-sample"),
    ])
    def test_number_over_digit_limit_names_its_offset(self, data, what, offset):
        with pytest.raises(PnmParseError, match=f"^{what}: ") as ei:
            decode_pnm(data)
        assert ei.value.offset == offset

    def test_pgm_roundtrip(self, rng):
        img = random_image(rng, 7, 4)
        assert decode_pnm(encode_pgm(img)) == img

    def test_ppm_roundtrip_gray(self, rng):
        img = random_image(rng, 5, 6)
        again = decode_pnm(encode_ppm(to_rgb(img)))
        assert again == img


class TestIntegral:
    def test_ones_corner_counts_pixels(self):
        img = GrayImage(np.ones((3, 3), dtype=np.uint8))
        ip = integral(img)
        assert ip.ii[3, 3] == 9

    def test_zero_image_all_zero(self):
        ip = integral(GrayImage(np.zeros((4, 6), dtype=np.uint8)))
        assert not ip.ii.any()
        assert not ip.sq.any()

    def test_random_5x7_matches_brute_force(self, rng):
        img = random_image(rng, 5, 7)
        ip = integral(img)
        assert np.array_equal(ip.ii, brute_integral(img))
        assert np.array_equal(ip.sq, brute_integral(img, squared=True))

    def test_zero_border(self, rng):
        ip = integral(random_image(rng, 6, 3))
        assert not ip.ii[0, :].any() and not ip.ii[:, 0].any()
        assert not ip.sq[0, :].any() and not ip.sq[:, 0].any()

    def test_border_is_zero_in_a_reused_block(self, rng):
        """Only the border of the table block is zeroed: an all-255 frame's
        block, freed, is likely the next same-sized call's block."""
        for _ in range(3):
            bright = integral(GrayImage(np.full((40, 50), 255, dtype=np.uint8)))
            assert bright.ii[-1, -1] == 255 * 40 * 50
            del bright
            img = random_image(rng, 50, 40)
            ip = integral(img)
            assert not ip.tables[:, 0, :].any() and not ip.tables[:, :, 0].any()
            assert np.array_equal(ip.ii, brute_integral(img))
            assert np.array_equal(ip.sq, brute_integral(img, squared=True))

    def test_rows_as_wide_as_max_dim_stay_exact(self):
        """The row pass sums in int32: a row of ``MAX_DIM`` pixels of 255
        has squares summing to 8192 * 255**2 < 2**31, while the column
        pass, in int64, passes 2**31 by the fifth such row."""
        data = np.full((5, MAX_DIM), 255, dtype=np.uint8)
        data[1] = np.random.default_rng(5).integers(0, 256, MAX_DIM)
        ip = integral(GrayImage(data))
        px = data.astype(np.int64)
        for table, v in ((ip.ii, px), (ip.sq, px * px)):
            want = np.zeros((6, MAX_DIM + 1), dtype=np.int64)
            want[1:, 1:] = v.cumsum(axis=1).cumsum(axis=0)
            assert np.array_equal(table, want)
        assert ip.sq[1, -1] == MAX_DIM * 255 ** 2 < 2 ** 31 < ip.sq[-1, -1]

    def test_monotone_rows_and_columns(self, rng):
        for _ in range(10):
            ip = integral(random_image(rng, rng.randrange(1, 20),
                                       rng.randrange(1, 20)))
            assert (np.diff(ip.ii, axis=0) >= 0).all()
            assert (np.diff(ip.ii, axis=1) >= 0).all()

    def test_tables_immutable(self, rng):
        ip = integral(random_image(rng, 3, 3))
        with pytest.raises(ValueError):
            ip.ii[0, 0] = 1

    def test_tables_are_the_planes_of_one_block(self, rng):
        ip = integral(random_image(rng, 5, 7))
        assert ip.tables.shape == (2, 8, 6) and ip.tables.dtype == np.int64
        assert ip.ii.base is ip.tables and ip.sq.base is ip.tables
        assert np.array_equal(ip.tables[0], ip.ii) and np.array_equal(ip.tables[1], ip.sq)
        with pytest.raises(ValueError):
            ip.tables[1, 1, 1] = 1

    @pytest.mark.parametrize("shape, dtype", [
        ((8, 6), np.int64),        # one plane, no plane axis
        ((3, 8, 6), np.int64),     # three planes
        ((1, 2, 8, 6), np.int64),  # a fourth axis
        ((2, 8, 6), np.int32),
        ((2, 8, 6), np.float64),
        ((2, 1, 6), np.int64),     # no pixel row
        ((2, 8, 1), np.int64),     # no pixel column
    ])
    def test_pair_rejects_a_block_of_the_wrong_form(self, shape, dtype):
        with pytest.raises(ValueError, match="int64 \\(2, height\\+1, width\\+1\\)"):
            IntegralPair(np.zeros(shape, dtype=dtype))

    def test_pair_reads_its_block_through_read_only_views(self, rng):
        tables = integral(random_image(rng, 5, 7)).tables.copy()
        pair = IntegralPair(tables)
        assert pair.tables is tables and (pair.width, pair.height) == (5, 7)
        assert pair.ii.base is tables and pair.sq.base is tables
        assert np.array_equal(pair.ii, tables[0]) and np.array_equal(pair.sq, tables[1])
        for t in (pair.tables, pair.ii, pair.sq):
            with pytest.raises(ValueError):
                t[1, 1] = 1


class TestRectSum:
    def test_full_rect_on_ones(self):
        ip = integral(GrayImage(np.ones((4, 4), dtype=np.uint8)))
        assert rect_sum(ip, Rect(0, 0, 4, 4)) == 16

    def test_single_pixel_rect(self, rng):
        img = random_image(rng, 6, 6)
        ip = integral(img)
        for _ in range(20):
            x, y = rng.randrange(6), rng.randrange(6)
            assert rect_sum(ip, Rect(x, y, 1, 1)) == int(img.data[y, x])

    def test_random_rects_match_brute_force(self, rng):
        img = random_image(rng, 17, 11)
        ip = integral(img)
        for _ in range(200):
            w = rng.randrange(1, 18)
            h = rng.randrange(1, 12)
            r = Rect(rng.randrange(0, 18 - w), rng.randrange(0, 12 - h), w, h)
            assert rect_sum(ip, r) == brute_rect_sum(img, r)
            assert rect_sum(ip, r, squared=True) == brute_rect_sum(img, r, squared=True)

    def test_tiling_additivity(self, rng):
        img = random_image(rng, 12, 12)
        ip = integral(img)
        whole = Rect(2, 3, 8, 6)
        # 2x3 exact tiling
        tiles = [Rect(2 + i * 4, 3 + j * 2, 4, 2) for i in range(2) for j in range(3)]
        assert sum(rect_sum(ip, t) for t in tiles) == rect_sum(ip, whole)

    def test_out_of_bounds_rect(self, rng):
        ip = integral(random_image(rng, 4, 4))
        with pytest.raises(ValueError, match="outside"):
            rect_sum(ip, Rect(2, 2, 3, 3))


@pytest.mark.parametrize("v,want", [(-2.5, -2), (-1.5, -1), (-0.6, -1), (-0.5, 0),
                                    (0.49, 0), (2.5, 3)])
def test_round_half_up_rounds_halves_toward_plus_infinity(v, want):
    assert _round_half_up(v) == want


class TestTypes:
    def test_rect_validation(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 5)
        with pytest.raises(ValueError):
            Rect(-1, 0, 2, 2)

    def test_gray_image_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((3,), dtype=np.uint8))
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 4), dtype=np.uint8))

    @pytest.mark.parametrize("pixels, message", [
        (np.array([[300, -1]]), "pixel values must lie in 0..255, got -1..300"),
        (np.array([[0, 256]], dtype=np.uint16), "pixel values must lie in 0..255, got 0..256"),
        (np.array([[1.7, 255.9]]), "pixel dtype must be uint8 or an integer type, got float64"),
        (np.array([[math.nan]]), "pixel dtype must be uint8 or an integer type, got float64"),
        (np.array([[True, False]]), "pixel dtype must be uint8 or an integer type, got bool"),
    ])
    def test_gray_image_takes_only_pixels_it_can_hold(self, pixels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GrayImage(pixels)

    def test_gray_image_casts_an_in_range_integer_array(self, rng):
        px = np.array([[rng.randrange(256) for _ in range(7)] for _ in range(5)], dtype=np.int64)
        img = GrayImage(px)
        assert img.data.dtype == np.uint8
        assert img == GrayImage(px.astype(np.uint8))

    def test_gray_image_immutable(self, rng):
        img = random_image(rng, 3, 3)
        with pytest.raises(ValueError):
            img.data[0, 0] = 9
        with pytest.raises(AttributeError):
            img.width = 5

    def test_crop(self, rng):
        img = random_image(rng, 8, 8)
        sub = img.crop(Rect(2, 3, 4, 2))
        assert (sub.width, sub.height) == (4, 2)
        assert np.array_equal(sub.data, img.data[3:5, 2:6])


def test_to_rgb_is_a_writable_copy(rng):
    img = random_image(rng, 7, 5)
    rgb = to_rgb(img)
    assert rgb.shape == (5, 7, 3) and rgb.dtype == np.uint8 and rgb.flags.writeable
    assert not np.shares_memory(rgb, img.data)
    assert all(np.array_equal(rgb[:, :, ch], img.data) for ch in range(3))


def test_draw_box_paints_and_clips(rng):
    rgb = np.zeros((10, 10, 3), dtype=np.uint8)
    draw_box(rgb, Rect(2, 2, 6, 6), (9, 8, 7), thickness=1)
    assert rgb[2, 2].tolist() == [9, 8, 7]
    assert rgb[7, 7].tolist() == [9, 8, 7]
    assert rgb[4, 4].tolist() == [0, 0, 0]
    draw_box(rgb, Rect(8, 8, 50, 50), (1, 1, 1), thickness=1)  # overhangs: no raise
    assert rgb[9, 9].tolist() == [1, 1, 1]


def test_annotated_ppm_draws_each_box_in_order(rng):
    img = random_image(rng, 40, 30)
    boxes = [(Rect(2, 2, 20, 20), (40, 220, 40)), (Rect(10, 10, 8, 8), (220, 40, 40)),
             (Rect(30, 20, 50, 50), (1, 2, 3))]
    rgb = to_rgb(img)
    for r, color in boxes:
        draw_box(rgb, r, color)
    assert annotated_ppm(img, boxes) == encode_ppm(rgb)
    assert annotated_ppm(img, []) == encode_ppm(to_rgb(img))


@pytest.mark.parametrize("value", MODEL_INTS[:-1] + [np.bool_(True), np.float64(2.0), "3"],
                         ids=repr)
def test_is_int_refuses(value):
    assert _is_int(value, 0) is False


@pytest.mark.parametrize("value", [0, 10**400, np.int64(7), np.uint8(255), np.int32(0)], ids=repr)
def test_is_int_takes_ints_and_numpy_ints(value):
    assert _is_int(value, 0) and not _is_int(value, int(value) + 1)


@pytest.mark.parametrize("value", NOT_FINITE + [np.float32("inf"), np.float64("nan"),
                                                np.bool_(True), 1j, "1.0"])
def test_is_finite_refuses(value):
    assert _is_finite(value) is False


@pytest.mark.parametrize("value", [0, -7, 2**1000, 0.5, -1e308, 5e-324,
                                   np.float64(1.5), np.float32(3.0e38), np.int64(-2**63)])
def test_is_finite_takes_real_numbers_within_float_range(value):
    assert _is_finite(value) is True
