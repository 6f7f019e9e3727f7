"""On-board person tracking pipeline: detection, control, wire format, simulator."""

from .cascade import (Cascade, CascadeFormatError, Detection, ScanParams, Stage,
                      UnsupportedCascadeError, WeakClassifier, Windows, detect_multiscale,
                      eval_window, group_detections, import_legacy_xml,
                      parse_cascade, serialize_cascade)
from .gated import GatedDetection, GateParams, detect_gated, select_target
from .haar import (FeatureKind, FeaturePart, HaarFeature, count_base_features,
                   enumerate_base_features, feature_value)
from .imaging import (GrayImage, IntegralPair, PnmParseError, Rect, decode_pnm,
                      encode_pgm, encode_ppm, integral, rect_sum)
from .mavlink import (CommandSink, FileSink, NullSink, UdpSink, VelocityTargetMessage,
                      build_velocity_message, decode_frame, encode_frame, open_sink,
                      x25_crc)
from .mission import (MissionConfig, MissionPhase, MissionState, Ned, VehicleStatus,
                      step_mission)
from .sim import (CameraModel, RunConfig, SimState, TargetPath, Trace,
                  load_run_config, project_target, run_closed_loop, step_sim)
from .tracker import (TrackerConfig, VelocityCommand, Zone, classify_zone,
                      compute_command)

__version__ = "0.1.0"
