"""Command-line surface tying the modules into runnable workflows.

Subcommands: distill, eval-seg, eval-region, dump-attn, gradcheck, ablate.
Exit codes: 0 success, 1 validation failure, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .affinity import dump_attention_analysis
from .config import parse_config
from .container import read_tensor
from .errors import (ConfigError, ContainerError, EvaluationError, ModeError, ParameterError,
                     ShapeError)
from .gradcheck import run_gradcheck_suite

# every other validation error class derives from ValueError
_VALIDATION_ERRORS = (ValueError, EvaluationError, ModeError)


def _build_parser():
    parser = argparse.ArgumentParser(prog="densedistill",
                                     description="decoupled dense-feature distillation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distill", help="run a full distillation from a config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("eval-seg", help="training-free segmentation mIoU over a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--classes", required=True)

    p = sub.add_parser("eval-region", help="region classification mAcc over a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--regions", choices=["boxes", "masks"], default="boxes")

    p = sub.add_parser("dump-attn", help="attention diagnostics as grey maps + sidecar")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--layers", required=True, help="comma-separated layer indices")
    p.add_argument("--query", required=True, help="image-token index or 'cls'")
    p.add_argument("--out", default="attn-dumps")

    p = sub.add_parser("gradcheck", help="finite-difference sweep over all differentiable ops")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("ablate", help="coupled-vs-decoupled comparison on the synthetic suite")
    p.add_argument("--config", required=True)

    return parser


def _cmd_distill(args):
    from .trainer import distill_run

    cfg = parse_config(args.config)
    result = distill_run(cfg)
    steps = len(result.reports)
    print(f"steps={steps}")
    if result.reports:
        print(result.reports[-1].line(steps - 1))
    print(f"metrics={result.metrics_path}")
    print(f"checkpoint={result.checkpoint_path}")
    return 0


def _eval_records(args):
    """The class embeddings, and per manifest record the image, its segment
    map and the checkpoint student's decoupled dense features; an image or a
    segment map (eval-seg also takes one at image resolution) whose shape
    does not fit the student, or a label that is not a whole number in the
    class file's range, is refused naming its file."""
    from .evalsuite import load_class_embeddings
    from .trainer import image_section, load_student, read_manifest, section
    from .vit import encode_dense

    student, _ = load_student(args.checkpoint)
    records = read_manifest(args.manifest)
    classes = load_class_embeddings(args.classes)
    width = student.embed_dim or student.width
    if classes.vectors.shape[1] != width:
        raise ShapeError(f"{args.classes}: class vectors have width {classes.vectors.shape[1]}, "
                         f"but the checkpoint's dense features have width {width}")

    k, res, grid = classes.vectors.shape[0], student.input_res, (student.grid_side,) * 2
    fits = [grid] if args.command == "eval-region" else [grid, (res, res)]

    def encoded():
        for rec in records:
            image = image_section(rec.image_path, read_tensor(rec.image_path), res)
            segments = section(rec.segments_path, read_tensor(rec.segments_path), "labels")
            if segments.shape not in fits:
                raise ShapeError(f"{rec.segments_path}: section 'labels' has shape "
                                 f"{segments.shape}, expected {' or '.join(map(str, fits))}")
            bad = segments[~((segments >= 0) & (segments < k) & (np.floor(segments) == segments))]
            if bad.size:
                what = "outside" if np.floor(bad[0]) == bad[0] else "expected a whole number in"
                raise ConfigError(f"{rec.segments_path}: section 'labels' holds label {bad[0]}, "
                                  f"{what} the class file's [0, {k})")
            yield image, segments, encode_dense(image, student, "decoupled")

    return classes, encoded()


def _cmd_eval_seg(args):
    from .evalsuite import add_confusion, miou_from_confusion

    classes, encoded = _eval_records(args)
    k = classes.vectors.shape[0]
    cm = np.zeros((k, k), dtype=np.int64)
    for image, segments, enc in encoded:
        cm = add_confusion(cm, enc, classes, segments, out_res=image.shape[-1])
    score, table = miou_from_confusion(cm)
    print("class                     iou")
    for c, iou in sorted(table.items()):
        print(f"{classes.names[c]:<24} {iou:.4f}")
    for c, iou in sorted(table.items()):
        print(f"iou.{classes.names[c]}={iou:.6f}")
    print(f"miou={score:.6f}")
    return 0


def _cmd_eval_region(args):
    from .evalsuite import add_region_confusion, macc_from_confusion, regions_from_labels

    classes, encoded = _eval_records(args)
    k = classes.vectors.shape[0]
    cm = np.zeros((k, k), dtype=np.int64)
    for _, segments, enc in encoded:
        annotated = regions_from_labels(segments)
        regions = [box if args.regions == "boxes" else mask for box, _, mask in annotated]
        cm = add_region_confusion(cm, enc, classes, regions, [lab for _, lab, _ in annotated])
    totals = cm.sum(axis=1)
    present = [c for c in range(k) if totals[c] > 0]
    score = macc_from_confusion(cm)
    print("class                     acc      n")
    for c in present:
        print(f"{classes.names[c]:<24} {cm[c, c] / totals[c]:.4f}   {totals[c]}")
    for c in present:
        print(f"acc.{classes.names[c]}={cm[c, c] / totals[c]:.6f}")
    print(f"macc={score:.6f}")
    return 0


def _cmd_dump_attn(args):
    from .trainer import image_section, load_student

    try:
        layers = [int(part) for part in args.layers.split(",") if part]
    except ValueError:
        raise ParameterError(f"--layers takes comma-separated layer indices, "
                             f"got {args.layers!r}") from None
    if not layers:
        raise ParameterError("need at least one layer index")
    try:
        query = args.query if args.query.lower() == "cls" else int(args.query)
    except ValueError:
        raise ParameterError(f"--query takes an image-token index or 'cls', "
                             f"got {args.query!r}") from None
    student, _ = load_student(args.checkpoint)
    image = image_section(args.image, read_tensor(args.image), student.input_res)
    written = dump_attention_analysis(student, image, layers, query, args.out)
    for path in written:
        print(path)
    return 0


def _cmd_gradcheck(args):
    reports = run_gradcheck_suite(seed=args.seed)
    for report in reports:
        print(report.line())
    ok = all(r.passed for r in reports)
    print(f"gradcheck: {sum(r.passed for r in reports)}/{len(reports)} passed")
    return 0 if ok else 1


def _cmd_ablate(args):
    from .evalsuite import ablation_coupled_vs_decoupled

    cfg = parse_config(args.config)
    report = ablation_coupled_vs_decoupled(cfg)
    print(report.text())
    for key, value in report.summary().items():
        print(f"{key}={value:.6f}")
    return 0


_COMMANDS = {
    "distill": _cmd_distill,
    "eval-seg": _cmd_eval_seg,
    "eval-region": _cmd_eval_region,
    "dump-attn": _cmd_dump_attn,
    "gradcheck": _cmd_gradcheck,
    "ablate": _cmd_ablate,
}


def run_cli(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ContainerError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
