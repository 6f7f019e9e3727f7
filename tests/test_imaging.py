import sys

import numpy as np
import pytest

from facefollow.imaging import (GrayImage, PnmParseError, Rect, _round_half_up,
                                decode_pnm, draw_box, encode_pgm, encode_ppm, integral,
                                rect_sum, to_rgb)

from conftest import random_image


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


def test_draw_box_paints_and_clips(rng):
    rgb = np.zeros((10, 10, 3), dtype=np.uint8)
    draw_box(rgb, Rect(2, 2, 6, 6), (9, 8, 7), thickness=1)
    assert rgb[2, 2].tolist() == [9, 8, 7]
    assert rgb[7, 7].tolist() == [9, 8, 7]
    assert rgb[4, 4].tolist() == [0, 0, 0]
    draw_box(rgb, Rect(8, 8, 50, 50), (1, 1, 1), thickness=1)  # overhangs: no raise
    assert rgb[9, 9].tolist() == [1, 1, 1]
