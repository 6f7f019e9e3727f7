import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from facefollow.cascade import (Cascade, Stage, WeakClassifier, parse_cascade,
                                serialize_cascade)
from facefollow.cli import main
from facefollow.gated import BODY_COLOR, FACE_COLOR, detect_gated
from facefollow.haar import FeatureKind, FeaturePart, HaarFeature
from facefollow.imaging import (GrayImage, Rect, decode_pnm, draw_box, encode_pgm, encode_ppm,
                                to_rgb)
from facefollow.mavlink import decode_frame
from facefollow.synthetic import (build_body_cascade, build_face_cascade,
                                  render_scene)

from conftest import fixture_path


@pytest.fixture
def cascades(tmp_path):
    body = tmp_path / "body.json"
    face = tmp_path / "face.json"
    body.write_text(serialize_cascade(build_body_cascade()))
    face.write_text(serialize_cascade(build_face_cascade()))
    return str(body), str(face)


@pytest.fixture
def scene_image(tmp_path):
    img = render_scene(320, 240, Rect(150, 100, 16, 16), Rect(133, 71, 50, 75))
    p = tmp_path / "scene.pgm"
    p.write_bytes(encode_pgm(img))
    return str(p), img


class TestDetect:
    def test_gated_csv_matches_library(self, tmp_path, cascades, scene_image):
        body_path, face_path = cascades
        img_path, img = scene_image
        csv = tmp_path / "out.csv"
        out = tmp_path / "out.ppm"
        code = main(["detect", "--body-cascade", body_path,
                     "--face-cascade", face_path, "--image", img_path,
                     "--csv", str(csv), "--out", str(out)])
        assert code == 0
        want = detect_gated(parse_cascade(Path(body_path).read_text()),
                            parse_cascade(Path(face_path).read_text()), img)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "kind,x,y,w,h,score,neighbors"
        got_rows = [ln.split(",") for ln in lines[1:]]
        assert len(got_rows) == 2 * len(want)
        for d, (brow, frow) in zip(want, zip(got_rows[::2], got_rows[1::2])):
            assert brow[0] == "body"
            assert [int(v) for v in brow[1:5]] == [d.body.box.x, d.body.box.y,
                                                   d.body.box.w, d.body.box.h]
            assert frow[0] == "face"
            assert [int(v) for v in frow[1:5]] == [d.face.box.x, d.face.box.y,
                                                   d.face.box.w, d.face.box.h]
        annotated = decode_pnm(out.read_bytes())
        assert (annotated.width, annotated.height) == (320, 240)
        # the image with each body box, then its face box, drawn on it
        rgb = to_rgb(img)
        for d in want:
            draw_box(rgb, d.body.box, BODY_COLOR)
            draw_box(rgb, d.face.box, FACE_COLOR)
        assert want and out.read_bytes() == encode_ppm(rgb)

    def test_blank_image_exits_2_with_header_only_csv(self, tmp_path, cascades):
        body_path, face_path = cascades
        blank = tmp_path / "blank.pgm"
        blank.write_bytes(encode_pgm(GrayImage(np.full((240, 320), 200,
                                                       dtype=np.uint8))))
        csv = tmp_path / "out.csv"
        code = main(["detect", "--body-cascade", body_path,
                     "--face-cascade", face_path, "--image", str(blank),
                     "--csv", str(csv)])
        assert code == 2
        assert csv.read_text() == "kind,x,y,w,h,score,neighbors\n"

    def test_missing_cascade_file_exits_1(self, tmp_path, scene_image, capsys):
        img_path, _ = scene_image
        code = main(["detect", "--body-cascade", str(tmp_path / "nope.json"),
                     "--image", img_path])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_oversized_integer_exits_1(self, tmp_path, cascades, scene_image,
                                       capsys):
        body_path, face_path = cascades
        img_path, _ = scene_image
        big = tmp_path / "big.json"
        with open(body_path) as fh:
            big.write_text(fh.read().replace('"base_w": 12', '"base_w": ' + "1" * 5000))
        code = main(["detect", "--body-cascade", str(big),
                     "--face-cascade", face_path, "--image", img_path])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: $: ")

    def test_deeply_nested_cascade_exits_1(self, tmp_path, scene_image, capsys):
        img_path, _ = scene_image
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 1000)
        code = main(["detect", "--body-cascade", str(deep), "--image", img_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: $: ") and err.count("\n") == 1

    def test_part_clipped_to_a_scaled_window_scans(self, tmp_path, scene_image,
                                                   capsys):
        """At the 6x6 window part 1, scaled by 1.5 with halves rounded up,
        lands at x=5, w=2, one column past the window; the scan clips it
        (and its one stage rejects every window)."""
        img_path, _ = scene_image
        feat = HaarFeature(FeatureKind.TWO_RECT, (
            FeaturePart(Rect(0, 0, 3, 4), 1.0), FeaturePart(Rect(3, 0, 1, 4), -1.0)))
        c = Cascade(4, 4, (feat,), (Stage((WeakClassifier(0, 0.0, 0.0, 1.0),), 2.0),))
        body = tmp_path / "edge.json"
        body.write_text(serialize_cascade(c))
        code = main(["detect", "--body-cascade", str(body), "--image", img_path])
        assert code == 2
        assert capsys.readouterr().err == ""

    def test_imported_fixture_cascades_scan(self, tmp_path, capsys):
        """Both OpenCV-format fixtures hold parts flush with the base
        window's far edges, which the scan clips at some ladder sizes."""
        img = tmp_path / "flat.pgm"
        img.write_bytes(encode_pgm(GrayImage(np.full((72, 96), 128, dtype=np.uint8))))
        paths = []
        for name in ("upperbody_20x20", "face_24x24"):
            paths.append(str(tmp_path / f"{name}.json"))
            assert main(["import-cascade", "--xml", fixture_path(f"{name}.xml"),
                         "--out", paths[-1]]) == 0
        capsys.readouterr()
        code = main(["detect", "--body-cascade", paths[0], "--face-cascade", paths[1],
                     "--image", str(img)])
        assert code in (0, 2)
        assert capsys.readouterr().err == ""

    def test_body_only_mode(self, tmp_path, cascades, scene_image):
        body_path, _ = cascades
        img_path, _ = scene_image
        csv = tmp_path / "b.csv"
        code = main(["detect", "--body-cascade", body_path,
                     "--image", img_path, "--csv", str(csv)])
        assert code == 0
        lines = csv.read_text().strip().splitlines()[1:]
        assert lines and all(ln.startswith("body,") for ln in lines)


def sim_doc(**over):
    doc = {
        "mode": "oracle",
        "ticks": 80,
        "drone": {"pos": [0.0, 0.0, -2.0]},
        "target": {"pos": [4.0, 0.0, -2.0]},
    }
    doc.update(over)
    return doc


class TestTrackSim:
    def test_converging_run_exits_0(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(sim_doc(target={"pos": [6.0, 1.0, -2.5]})))
        trace = tmp_path / "trace.csv"
        code = main(["track-sim", "--config", str(cfg), "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0].startswith("tick,t,")
        assert len(lines) == 81
        for ln in lines[-10:]:
            cols = ln.split(",")
            assert cols[12] == "center" and cols[13] == "center"

    def test_unreachable_width_exits_3(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(sim_doc(
            ticks=40,
            target={"pos": [8.0, 0.0, -2.0]},
            tracker={"fwd_speed": 0.0})))
        trace = tmp_path / "trace.csv"
        code = main(["track-sim", "--config", str(cfg), "--trace", str(trace)])
        assert code == 3

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code = main(["track-sim", "--config", str(cfg),
                     "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: config: $: syntax error at line 1, column 2: ")

    @pytest.mark.parametrize("over,path", [
        ({"tracker": {"dead_zone": "x"}}, "$.tracker.dead_zone"),
        ({"camera": 5}, "$.camera"),
        ({"battery": None}, "$.battery"),
        ({"ticks": 2.7}, "$.ticks"),
        ({"mission": {"loop_dt": 0.1}}, "$.mission"),
        ({"mission": {"climb_speed": -0.5}}, "$.mission"),
        ({"tracker": {"dead_zone": 0.9}}, "$.tracker"),
        ({"target": {"speed": -1.0}}, "$.target"),
        ({"mode": "x"}, "$"),
        ({"mode": "rendered"}, "$"),
        ({"cascades": {"body": "no-such-body.json", "face": "no-such-face.json"}},
         "$.cascades.body"),
        pytest.param('{"ticks": 3,', "$", id="syntax-error"),
        pytest.param('{"ticks": ' + "1" * 5000 + "}", "$", id="5000-digit-integer"),
        pytest.param("[" * 1000, "$", id="nested-1000-deep"),
        ({"tracker": {"fwd_speed": -1.0}}, "$.tracker"),
        ({"camera": {"img_w": 10000}}, "$.camera"),
        ({"ticks": 4, "tracker": {"loop_dt": 1e308}}, "$"),
    ])
    def test_bad_value_exits_1_naming_path(self, tmp_path, capsys, over, path):
        """``over`` is merged into a valid document, or is the raw text."""
        cfg = tmp_path / "run.json"
        cfg.write_text(over if isinstance(over, str) else json.dumps(sim_doc(**over)))
        code = main(["track-sim", "--config", str(cfg),
                     "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: config: {path}: ")

    def test_bad_udp_port_exits_1_before_the_first_tick(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mode": "oracle", "ticks": 3,
                                   "sink": "udp:127.0.0.1:99999"}))
        trace = tmp_path / "t.csv"
        code = main(["track-sim", "--config", str(cfg), "--trace", str(trace)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: bad udp destination 127.0.0.1:99999, want a port in 1..65535\n")
        assert not trace.exists()

    def test_rendered_run_with_frames(self, tmp_path, cascades):
        body_path, face_path = cascades
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(sim_doc(
            mode="rendered", ticks=12,
            cascades={"body": body_path, "face": face_path})))
        trace = tmp_path / "trace.csv"
        frames = tmp_path / "frames"
        code = main(["track-sim", "--config", str(cfg), "--trace", str(trace),
                     "--frames-dir", str(frames)])
        assert code == 0
        dumped = sorted(frames.glob("frame_*.ppm"))
        assert len(dumped) == 12
        # the person stands still 4 m ahead, so every tick writes the same
        # frame, whose bytes are pinned by their digest
        assert {hashlib.sha256(f.read_bytes()).hexdigest() for f in dumped} == {
            "2703451dd8c2c655c9e0b3a24a4042cc655650283ad353f5fc099a6c9cbc9053"}


class TestEncode:
    def test_hex_line_length(self, capsys):
        assert main(["encode-cmd", "--vx", "0", "--vy", "0", "--vz", "0"]) == 0
        line = capsys.readouterr().out.strip()
        assert len(line) == 122

    def test_deterministic(self, capsys):
        args = ["encode-cmd", "--vx", "0.4", "--vy", "-0.8", "--vz", "-0.5",
                "--seq", "9"]
        main(args)
        a = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == a

    def test_output_decodes_to_inputs(self, capsys):
        main(["encode-cmd", "--vx", "0.5", "--vy", "-0.25", "--vz", "0.125"])
        frame = bytes.fromhex(capsys.readouterr().out.strip())
        msg = decode_frame(frame)
        assert (msg.vx, msg.vy, msg.vz) == (0.5, -0.25, 0.125)

    @pytest.mark.parametrize("flag,value,why", [
        ("--vx", "nan", "vx must be finite, got nan"),
        ("--sysid", "999", "sysid must lie in 0..255, got 999"),
        ("--seq", "256", "seq must lie in 0..255, got 256"),
        ("--target-system", "-1", "target_system must lie in 0..255, got -1"),
        ("--time-boot-ms", "-5", "time_boot_ms must lie in 0..4294967295, got -5"),
    ], ids=["vx-nan", "sysid-999", "seq-256", "target-system-minus-1", "time-boot-ms-minus-5"])
    def test_bad_value_exits_1(self, capsys, flag, value, why):
        args = {"--vx": "0", "--vy": "0", "--vz": "0", flag: value}
        code = main(["encode-cmd", *(x for kv in args.items() for x in kv)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {why}\n"


class TestImportCascade:
    def test_fixture_counts_survive(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(["import-cascade", "--xml", fixture_path("upperbody_20x20.xml"),
                     "--out", str(out)])
        assert code == 0
        c = parse_cascade(out.read_text())
        assert len(c.stages) == 3
        assert [len(s.weak) for s in c.stages] == [2, 3, 2]

    def test_bad_xml_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<opencv_storage><cascade></cascade></opencv_storage>")
        code = main(["import-cascade", "--xml", str(bad),
                     "--out", str(tmp_path / "o.json")])
        assert code == 1

    def test_xml_syntax_error_exits_1_with_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<opencv_storage><cascade>")
        code = main(["import-cascade", "--xml", str(bad),
                     "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: $: syntax error at line 1, column 26")

    def test_non_numeric_width_exits_1_naming_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        with open(fixture_path("upperbody_20x20.xml")) as fh:
            bad.write_text(fh.read().replace("<width>20</width>", "<width>abc</width>"))
        code = main(["import-cascade", "--xml", str(bad),
                     "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cascade.width: ")


class TestValidateDataset:
    def test_clean_dataset_exits_0(self, tmp_path, capsys):
        img = GrayImage(np.full((48, 48), 90, dtype=np.uint8))
        (tmp_path / "p.pgm").write_bytes(encode_pgm(img))
        (tmp_path / "n.pgm").write_bytes(encode_pgm(img))
        (tmp_path / "pos.dat").write_text("p.pgm 1 4 4 20 20\n")
        (tmp_path / "bg.txt").write_text("n.pgm\n")
        code = main(["validate-dataset", "--pos", str(tmp_path / "pos.dat"),
                     "--neg", str(tmp_path / "bg.txt"), "--root", str(tmp_path),
                     "-w", "20", "-h", "20"])
        assert code == 0
        assert "positives: 1" in capsys.readouterr().out

    def test_undersized_negative_exits_nonzero_naming_file(self, tmp_path, capsys):
        img = GrayImage(np.full((10, 10), 90, dtype=np.uint8))
        (tmp_path / "tiny.pgm").write_bytes(encode_pgm(img))
        (tmp_path / "pos.dat").write_text("")
        (tmp_path / "bg.txt").write_text("tiny.pgm\n")
        code = main(["validate-dataset", "--pos", str(tmp_path / "pos.dat"),
                     "--neg", str(tmp_path / "bg.txt"), "--root", str(tmp_path),
                     "-w", "20", "-h", "20"])
        assert code == 1
        assert "tiny.pgm" in capsys.readouterr().out

    @pytest.mark.parametrize("w", ["0", "-5"])
    def test_window_below_1_exits_1_naming_train_w(self, tmp_path, capsys, w):
        (tmp_path / "pos.dat").write_text("")
        (tmp_path / "bg.txt").write_text("")
        code = main(["validate-dataset", "--pos", str(tmp_path / "pos.dat"),
                     "--neg", str(tmp_path / "bg.txt"), "--root", str(tmp_path),
                     "-w", w, "-h", "0"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: train_w must be an int of at least 1, got {w}\n")


MISSING_KEYS = "$: missing key(s) ['base_h', 'base_w', 'features', 'stages']"
NOT_UTF_8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize("flag, name, text, message", [
    ("--body-cascade", "bad.json", '{"name": "x"}', f"{MISSING_KEYS} (in bad.json)"),
    ("--body-cascade", "bad.json", b"\xff", f"{NOT_UTF_8} (in bad.json)"),
    ("--face-cascade", "bad.json", '{"name": "x"}', f"{MISSING_KEYS} (in bad.json)"),
    ("--face-cascade", "bad.json", b"\xff", f"{NOT_UTF_8} (in bad.json)"),
    ("--image", "bad.pgm", b"P5 1 1 300\n\0\0",
     "maxval 300 not in 1..255 (byte offset 6) (in bad.pgm)"),
    ("--xml", "bad.xml", "<opencv_storage><cascade>",
     "$: syntax error at line 1, column 26: no element found (in bad.xml)"),
    ("--config", "run.json", '{"ticks": 3,',
     "config: $: syntax error at line 1, column 13: "
     "Expecting property name enclosed in double quotes (in run.json)"),
    ("--config", "run.json",
     '{"mode": "rendered", "cascades": {"body": "bad.json", "face": "bad.json"}}',
     f"config: $.cascades.body: {MISSING_KEYS} (in bad.json) (in run.json)"),
    ("--pos", "pos.dat", "a.pgm x", "line 1: object count 'x' not an integer (in pos.dat)"),
    ("--neg", "bg.txt", b"\xff", f"{NOT_UTF_8} (in bg.txt)"),
], ids=["body-cascade-missing-keys", "body-cascade-not-utf-8", "face-cascade-missing-keys",
        "face-cascade-not-utf-8", "image-maxval", "xml-syntax", "config-syntax",
        "config-names-a-bad-cascade", "pos-count", "neg-not-utf-8"])
def test_bad_input_file_is_named(tmp_path, monkeypatch, cascades, scene_image, capsys, flag,
                                 name, text, message):
    """One bad file behind one file flag of an otherwise valid run: one error
    line that names the file, and a file read through another names both,
    the inner one first."""
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text('{"name": "x"}')  # the cascade a bad config names
    Path("empty.txt").write_text("")
    Path("ok.json").write_text(json.dumps(sim_doc(ticks=3)))
    Path(name).write_bytes(text if isinstance(text, bytes) else text.encode())
    runs = {
        "detect": {"--body-cascade": cascades[0], "--face-cascade": cascades[1],
                   "--image": scene_image[0]},
        "track-sim": {"--config": "ok.json", "--trace": "t.csv"},
        "import-cascade": {"--xml": fixture_path("upperbody_20x20.xml"), "--out": "o.json"},
        "validate-dataset": {"--pos": "empty.txt", "--neg": "empty.txt", "--root": ".",
                             "-w": "20", "-h": "20"},
    }
    command, args = next((c, a) for c, a in runs.items() if flag in a)
    args[flag] = name
    assert main([command, *(x for kv in args.items() for x in kv)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["detect", "track-sim", "import-cascade"])
def test_unwritable_output_exits_1(tmp_path, cascades, scene_image, capsys, command):
    """The output path lies in a directory that does not exist."""
    out = str(tmp_path / "missing" / "out")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(sim_doc(ticks=3)))
    args = {
        "detect": ["--body-cascade", cascades[0], "--image", scene_image[0],
                   "--csv", out],
        "track-sim": ["--config", str(cfg), "--trace", out],
        "import-cascade": ["--xml", fixture_path("upperbody_20x20.xml"), "--out", out],
    }[command]
    assert main([command, *args]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{out}'\n")
