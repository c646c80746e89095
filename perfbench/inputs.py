"""Seeded input generator: writes every file a workload's program run reads.

The workload seed picks one of ``BANK`` recorded input sets (``seed % BANK``),
because the output checks compare against reference values recorded for
each set. Within a set, the seed draws the synthetic images, segment maps,
class colours and box annotations. The run configuration is the workload's
own constant: its ``seed`` field fixes the model initialisation and the
per-step crop grids, so every input set costs the same amount of work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from densedistill.config import RunConfig, echo_config
from densedistill.container import read_tensor, write_tensor
from densedistill.evalsuite import class_prototypes, save_class_embeddings, shipped_ablation_config
from densedistill.regions import CropBox
from densedistill.synthdata import SynthSample, SynthSuite, make_suite, write_suite
from densedistill.trainer import Distiller, read_manifest, save_checkpoint

BANK = 16

# suite shape of shipped_ablation_config(); only the seed differs
DESK_SUITE = dict(side=8, patch=8, num_classes=6, noise=0.08, gray_rate=0.04,
                  flip_rate=0.06, rects=6)
# paper-recipe shape: 560/16 student and 490/14 provider, 35x35 tokens
PAPER_SUITE = dict(side=35, patch=16, num_classes=6)
TINY_PAPER_SUITE = dict(side=4, patch=8, num_classes=3)
TINY_PAPER_MODELS = dict(student_patch=8, student_res=32, student_depth=2, student_width=16,
                         student_heads=2, embed_dim=8, vfm_patch=4, vfm_res=16, vfm_depth=1,
                         vfm_width=8, vfm_heads=2, grid_hi=3)
EVAL_IMAGES = {"full": 4, "tiny": 2}


@dataclass
class Inputs:
    config: str
    manifest: str
    suite_meta: str | None = None
    checkpoint: str | None = None
    classes: str | None = None


def bank_seed(seed):
    return seed % BANK


def desk_config(size):
    cfg, _ = shipped_ablation_config()
    return cfg if size == "full" else replace(cfg, epochs=1)


def paper_config(size, root):
    models = {} if size == "full" else TINY_PAPER_MODELS
    return RunConfig(batch_size=1, epochs=1, manifest=os.path.join(root, "data", "manifest.txt"),
                     checkpoint_dir=os.path.join(root, "ckpt"),
                     report_dir=os.path.join(root, "reports"), **models)


def _write_config(root, cfg):
    path = os.path.join(root, "run.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(echo_config(cfg))
    return path


def write_desk(seed, size, root):
    suite = make_suite(seed=bank_seed(seed), n_images=8 if size == "full" else 2, **DESK_SUITE)
    manifest = write_suite(os.path.join(root, "data"), suite)
    meta = os.path.join(root, "suite.dten")
    sections = [("colors", suite.colors), ("shape", np.array([suite.side, suite.patch], np.int32))]
    for i, sample in enumerate(suite.samples):
        sections.append((f"boxes{i:03d}", np.array(
            [[b.x0, b.y0, b.x1, b.y1, lab] for b, lab in sample.boxes], dtype=np.float64)))
    write_tensor(meta, sections)
    return Inputs(config=_write_config(root, desk_config(size)), manifest=manifest, suite_meta=meta)


def load_desk_suite(inputs):
    """Rebuild the in-memory suite the ablation API takes from the files."""
    meta = read_tensor(inputs.suite_meta)
    side, patch = (int(v) for v in meta["shape"])
    samples = []
    for i, rec in enumerate(read_manifest(inputs.manifest)):
        boxes = [(CropBox(*row[:4]), int(row[4])) for row in meta[f"boxes{i:03d}"]]
        samples.append(SynthSample(image=read_tensor(rec.image_path)["image"],
                                   segments=read_tensor(rec.segments_path)["labels"],
                                   boxes=boxes))
    return SynthSuite(samples=samples, colors=meta["colors"], side=side, patch=patch)


def write_paper_train(seed, size, root, n_images):
    suite_args = PAPER_SUITE if size == "full" else TINY_PAPER_SUITE
    suite = make_suite(seed=bank_seed(seed), n_images=n_images, **suite_args)
    manifest = write_suite(os.path.join(root, "data"), suite)
    return Inputs(config=_write_config(root, paper_config(size, root)), manifest=manifest)


def write_paper_eval(seed, size, root):
    suite_args = PAPER_SUITE if size == "full" else TINY_PAPER_SUITE
    suite = make_suite(seed=bank_seed(seed), n_images=EVAL_IMAGES[size], **suite_args)
    manifest = write_suite(os.path.join(root, "data"), suite)
    cfg = paper_config(size, root)
    distiller = Distiller(cfg)
    checkpoint = os.path.join(root, "checkpoint.dten")
    save_checkpoint(checkpoint, distiller.student)
    classes = os.path.join(root, "classes.dten")
    save_class_embeddings(classes, class_prototypes(distiller.teacher, suite.colors))
    return Inputs(config=_write_config(root, cfg), manifest=manifest,
                  checkpoint=checkpoint, classes=classes)
