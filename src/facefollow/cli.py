"""Operator command line: detect, track-sim, encode-cmd, import-cascade,
validate-dataset.

Data goes to files or stdout; diagnostics go to stderr.  Exit codes signal
outcomes per subcommand (0 success, 1 error, 2 no detections, 3 not
converged).
"""

from __future__ import annotations

import argparse
import math
import sys

from .cascade import (Cascade, detect_multiscale, group_detections,
                      import_legacy_xml, parse_cascade, serialize_cascade)
from .dataset import parse_negative_manifest, parse_positive_manifest, validate_dataset
from .gated import BODY_COLOR, FACE_COLOR, GateParams, detect_gated
from .imaging import decode_pnm, draw_box, encode_ppm, to_rgb
from .mavlink import build_velocity_message, encode_frame
from .sim import converged, load_run_config, run_closed_loop


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _load_cascade(path: str) -> Cascade:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cascade(fh.read())


def _load_image(path: str):
    with open(path, "rb") as fh:
        return decode_pnm(fh.read())


def cmd_detect(args) -> int:
    body_c = _load_cascade(args.body_cascade)
    face_c = _load_cascade(args.face_cascade) if args.face_cascade else None
    img = _load_image(args.image)
    gate = GateParams()
    rows: list[tuple] = []
    if face_c is not None:
        for d in detect_gated(body_c, face_c, img, gate):
            rows.append(("body", d.body.box, d.body.score, d.body.neighbors))
            rows.append(("face", d.face.box, d.face.score, d.face.neighbors))
    else:
        raw = detect_multiscale(body_c, img, gate.body_scan)
        for d in group_detections(raw, gate.body_scan.min_neighbors,
                                  gate.body_scan.eps):
            rows.append(("body", d.box, d.score, d.neighbors))

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("kind,x,y,w,h,score,neighbors\n")
            for kind, box, score, nb in rows:
                fh.write(f"{kind},{box.x},{box.y},{box.w},{box.h},{score:.6f},{nb}\n")
    if args.out:
        rgb = to_rgb(img)
        for kind, box, _, _ in rows:
            draw_box(rgb, box, BODY_COLOR if kind == "body" else FACE_COLOR)
        with open(args.out, "wb") as fh:
            fh.write(encode_ppm(rgb))
    for kind, box, score, nb in rows:
        print(f"{kind} x={box.x} y={box.y} w={box.w} h={box.h} "
              f"score={score:.3f} neighbors={nb}")
    return 0 if rows else 2


def cmd_track_sim(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = load_run_config(fh.read(), cascade_loader=_load_cascade)
    except (OSError, ValueError) as e:
        return _fail(f"config: {e}")
    trace = run_closed_loop(cfg, frames_dir=args.frames_dir)
    with open(args.trace, "w", encoding="utf-8") as fh:
        fh.write(trace.to_csv())
    ok = converged(trace, cfg)
    print(f"{'converged' if ok else 'not converged'} after {len(trace.rows)} ticks",
          file=sys.stderr)
    return 0 if ok else 3


def cmd_encode(args) -> int:
    if not all(math.isfinite(v) for v in (args.vx, args.vy, args.vz)):
        return _fail("velocities must be finite")
    msg = build_velocity_message(args.vx, args.vy, args.vz,
                                 target_system=args.target_system,
                                 target_component=args.target_component,
                                 time_boot_ms=args.time_boot_ms)
    frame = encode_frame(msg, args.seq, sysid=args.sysid, compid=args.compid)
    print(frame.hex())
    return 0


def cmd_import_cascade(args) -> int:
    with open(args.xml, "r", encoding="utf-8") as fh:
        cascade = import_legacy_xml(fh.read())
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_cascade(cascade))
    print(f"imported {len(cascade.stages)} stage(s), "
          f"{len(cascade.features)} feature(s) -> {args.out}", file=sys.stderr)
    return 0


def cmd_validate_dataset(args) -> int:
    with open(args.pos, "r", encoding="utf-8") as fh:
        pos = parse_positive_manifest(fh.read())
    with open(args.neg, "r", encoding="utf-8") as fh:
        neg = parse_negative_manifest(fh.read())
    report = validate_dataset(pos, neg, args.width, args.height, args.root)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="facefollow",
        description="Cascade person detection, tracking simulation and "
                    "MAVLink command tooling")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("detect", help="run (gated) detection on one image")
    d.add_argument("--body-cascade", required=True)
    d.add_argument("--face-cascade")
    d.add_argument("--image", required=True)
    d.add_argument("--out", help="annotated PPM path")
    d.add_argument("--csv", help="detections CSV path")
    d.set_defaults(fn=cmd_detect)

    t = sub.add_parser("track-sim", help="run the closed-loop simulator")
    t.add_argument("--config", required=True, help="JSON run configuration")
    t.add_argument("--trace", required=True, help="output trace CSV path")
    t.add_argument("--frames-dir", help="dump annotated frames here (rendered mode)")
    t.set_defaults(fn=cmd_track_sim)

    e = sub.add_parser("encode-cmd", help="print one velocity frame as hex")
    e.add_argument("--vx", type=float, required=True)
    e.add_argument("--vy", type=float, required=True)
    e.add_argument("--vz", type=float, required=True)
    e.add_argument("--sysid", type=int, default=255)
    e.add_argument("--compid", type=int, default=0)
    e.add_argument("--target-system", type=int, default=1)
    e.add_argument("--target-component", type=int, default=1)
    e.add_argument("--time-boot-ms", type=int, default=0)
    e.add_argument("--seq", type=int, default=0)
    e.set_defaults(fn=cmd_encode)

    i = sub.add_parser("import-cascade", help="legacy XML cascade to canonical JSON")
    i.add_argument("--xml", required=True)
    i.add_argument("--out", required=True)
    i.set_defaults(fn=cmd_import_cascade)

    # add_help off so -h can mean the training-window height
    v = sub.add_parser("validate-dataset", help="check training manifests",
                       add_help=False)
    v.add_argument("--help", action="help", help="show this help message")
    v.add_argument("--pos", required=True, help="positive .dat manifest")
    v.add_argument("--neg", required=True, help="negative background list")
    v.add_argument("--root", required=True, help="directory paths resolve against")
    v.add_argument("-w", "--width", type=int, required=True)
    v.add_argument("-h", "--height", type=int, required=True)
    v.set_defaults(fn=cmd_validate_dataset)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:  # bad input file or unwritable output
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
