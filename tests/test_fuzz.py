"""Seeded mutation fuzzing of every input boundary.

Each reader gets a few hundred mutations of a valid input: text edits
(delete, insert, replace, duplicate, truncate) and, for JSON documents,
edits of the parsed tree (a node replaced by a value of another type or
range, a key dropped or added).  A reader may accept a mutant or reject it,
but only with its own typed error; anything else escaping fails the test.
"""

import copy
import json
import math
import random

import numpy as np
import pytest

from facefollow.cascade import (CascadeError, CascadeFormatError, import_legacy_xml,
                                parse_cascade, serialize_cascade)
from facefollow.dataset import (ManifestError, PositiveRecord, parse_positive_manifest,
                                serialize_positive_manifest)
from facefollow.imaging import GrayImage, PnmParseError, Rect, decode_pnm
from facefollow.mavlink import (CRC_EXTRA, FrameError, build_velocity_message,
                                decode_frame, encode_frame, x25_crc)
from facefollow.sim import load_run_config
from facefollow.synthetic import build_body_cascade, build_face_cascade

from conftest import fixture_text

N = 300  # mutations per input and kind

DEEP = ["[" * 1000, '{"a": ' * 1000, "[" * 100_000 + "]" * 100_000]

# spliced into inputs: their own syntax, signs, exponents, long numbers,
# digits beyond ASCII and control characters
_TEXT_ATOMS = list('0123456789-+.eE"[]{}:,<>/= \n\t#') + [
    "\x00", "é", "٣", "1" * 30, "-0", "1e999", "NaN", "Infinity", "null",
    "true", "<a>", "</", "&amp;", "&#0;", "<!--"]
_BYTE_ATOMS = [a.encode() for a in _TEXT_ATOMS] + [b"\xff", b"\x80", b"P5", b"P3"]

_JSON_VALUES = [None, True, False, 0, -1, 1, 3, 2 ** 53 + 1, 10 ** 30, -1e308, 1e308,
                0.5, -0.0, math.nan, math.inf, -math.inf, "", "x", "two", [], {},
                [1, 2, 3], [0.0, 0.0, 0.0], {"x": 1}]


def mutate_text(rng: random.Random, s, atoms=_TEXT_ATOMS):
    """1-3 edits of the str or bytes ``s``, splicing in ``atoms`` of its type."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(s) + 1)
        j = min(len(s), i + rng.randint(1, 8))
        op = rng.randrange(5)
        if op == 0:
            s = s[:i] + s[j:]
        elif op == 1:
            s = s[:i] + rng.choice(atoms) + s[i:]
        elif op == 2:
            s = s[:i] + rng.choice(atoms) + s[j:]
        elif op == 3:
            s = s[:j] + s[i:j] * rng.randint(1, 3) + s[j:]
        else:
            s = s[:i]
    return s


def mutate_bytes(rng: random.Random, b: bytes) -> bytes:
    return mutate_text(rng, b, _BYTE_ATOMS)


def _nodes(doc, path=()):
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield from _nodes(v, path + (k,))


def _value(rng: random.Random):
    return copy.deepcopy(rng.choice(_JSON_VALUES))  # later edits may change it


def mutate_tree(rng: random.Random, doc):
    """A copy of the JSON tree ``doc`` with 1-3 edits: a node replaced, or a
    key of an object dropped or added."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_nodes(doc)))
        if not path:
            return _value(rng)
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        op = rng.randrange(4) if isinstance(parent, dict) else 0
        if op <= 1:
            parent[path[-1]] = _value(rng)
        elif op == 2:
            del parent[path[-1]]
        else:
            parent[rng.choice(["extra", "x", "features", "speed"])] = _value(rng)
    return doc


def fuzz(rng, read, seeds, mutants, allowed, check=lambda e: True):
    """Feed ``read`` ``N`` mutants of each seed; some must be accepted and
    some rejected, so that the mutants reach past the first check."""
    accepted = rejected = 0
    for seed in seeds:
        for _ in range(N):
            data = mutants(rng, seed)
            try:
                read(data)
            except allowed as e:
                assert check(e), f"{e!r} on input {data!r:.300}"
                rejected += 1
            else:
                accepted += 1
    assert accepted and rejected, (accepted, rejected)


CASCADE_DOCS = [json.loads(serialize_cascade(build_body_cascade())),
                json.loads(serialize_cascade(build_face_cascade()))]

RUN_DOC = {
    "mode": "rendered", "ticks": 5,
    "camera": {"img_w": 320, "img_h": 240, "focal": 300.0},
    "drone": {"pos": [0.0, 0.0, -2.0], "yaw": 0.1},
    "target": {"pos": [6.0, 1.0, -2.5], "face_w": 0.16, "body_w": 0.5, "body_h": 0.75,
               "waypoints": [[8.0, 0.0, -2.0], [8.0, 2.0, -2.0]], "speed": 0.3},
    "tracker": {"dead_zone": 0.15, "fast_threshold": 0.5, "roll_s": 0.29, "roll_f": 0.8,
                "th_s": 0.22, "th_f": 0.5, "fwd_speed": 0.4, "width_far": 0.1,
                "width_near": 0.18, "allow_backward": False, "loop_dt": 0.25},
    "mission": {"batt_min": 21.0, "failsafe_alt_gain": 5.0, "land_alt_eps": 0.05,
                "pos_eps": 0.2, "climb_speed": 0.5, "return_speed": 0.5,
                "descend_speed": 0.5},
    "battery": {"start": 25.2, "drain_rate": 0.01},
    "user_stop_tick": 3, "home": [0.0, 0.0, 0.0], "takeoff_alt": 1.0,
    "cascades": {"body": "body.json", "face": "face.json"},
    "sink": "udp:127.0.0.1:14550",
}

_CASCADES = {"body.json": build_body_cascade(), "face.json": build_face_cascade()}


def _load_named_cascade(path: str):
    if path not in _CASCADES:
        raise OSError(f"no such file: {path!r}")
    return _CASCADES[path]


def read_run_config(text: str):
    return load_run_config(text, cascade_loader=_load_named_cascade)


def mutate_json(rng: random.Random, doc) -> str:
    """Text edits or tree edits of a JSON seed, half and half."""
    if rng.random() < 0.5:
        return mutate_text(rng, json.dumps(doc))
    return json.dumps(mutate_tree(rng, doc))


def mutate_frame(rng: random.Random, frame: bytes) -> bytes:
    """Byte edits or bytes overwritten in place; half of the mutants are
    signed again, so that the header checks and the payload are read too."""
    if rng.random() < 0.5:
        out = mutate_bytes(rng, frame)
    else:
        out = bytearray(frame)
        for _ in range(rng.randint(1, 4)):
            out[rng.randrange(len(out))] = rng.randrange(256)
    if rng.random() < 0.5 and len(out) > 3:
        crc = x25_crc(bytes((CRC_EXTRA,)), x25_crc(out[1:-2]))
        out = out[:-2] + crc.to_bytes(2, "little")
    return bytes(out)


def _pnm_samples():
    rng = np.random.default_rng(7)
    gray = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    rgb = rng.integers(0, 256, (3, 4, 3), dtype=np.uint8)
    ascii_body = lambda a: " ".join(str(v) for v in a.ravel().tolist()).encode()
    return [
        b"P2\n# comment\n4 3\n255\n" + ascii_body(gray) + b"\n",
        b"P3\n4 3\n255\n" + ascii_body(rgb) + b"\n",
        b"P5\n4 3\n255\n" + gray.tobytes(),
        b"P6 4 3 255\n" + rgb.tobytes(),
    ]


MANIFEST = serialize_positive_manifest([
    PositiveRecord("img/a.pgm", (Rect(1, 2, 24, 24),)),
    PositiveRecord("img/b.pgm", (Rect(0, 0, 30, 40), Rect(50, 60, 20, 20))),
    PositiveRecord("img/c.pgm", ()),
]) + "# trailing comment\n"


def _starts_at_root(e) -> bool:
    return str(e).startswith("$")


class TestSeedsAreValid:
    """Every fuzz seed is accepted as it stands, so mutants start from valid input."""

    def test_seeds(self):
        for doc in CASCADE_DOCS:
            parse_cascade(json.dumps(doc))
        import_legacy_xml(fixture_text("upperbody_20x20.xml"))
        cfg = read_run_config(json.dumps(RUN_DOC))
        assert cfg.sink_dest == RUN_DOC["sink"] and cfg.user_stop_tick == 3
        decode_frame(encode_frame(build_velocity_message(0.4, -0.8, -0.5)))
        for data in _pnm_samples():
            assert isinstance(decode_pnm(data), GrayImage)
        assert len(parse_positive_manifest(MANIFEST)) == 3


class TestFuzz:
    def test_parse_cascade(self, rng):
        fuzz(rng, parse_cascade, CASCADE_DOCS, mutate_json, CascadeError, _starts_at_root)

    def test_import_legacy_xml(self, rng):
        fuzz(rng, import_legacy_xml, [fixture_text("upperbody_20x20.xml")], mutate_text,
             CascadeError)

    def test_load_run_config(self, rng):
        fuzz(rng, read_run_config, [RUN_DOC], mutate_json, CascadeFormatError,
             _starts_at_root)

    def test_decode_frame(self, rng):
        frame = encode_frame(build_velocity_message(0.4, -0.8, -0.5, time_boot_ms=123456),
                             7, sysid=1, compid=1)
        fuzz(rng, decode_frame, [frame], mutate_frame, FrameError)

    def test_decode_pnm(self, rng):
        fuzz(rng, decode_pnm, _pnm_samples(), mutate_bytes, PnmParseError)

    def test_parse_positive_manifest(self, rng):
        fuzz(rng, parse_positive_manifest, [MANIFEST], mutate_text, ManifestError)

    @pytest.mark.parametrize("read", [parse_cascade, read_run_config],
                             ids=["cascade", "run-config"])
    @pytest.mark.parametrize("text", DEEP, ids=["open-arrays", "open-objects",
                                                "closed-arrays"])
    def test_deep_nesting(self, read, text):
        with pytest.raises(CascadeFormatError, match=r"^\$: "):
            read(text)
