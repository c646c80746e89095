"""Decoupled context/content distillation for dense ViT features, with a
built-in reverse-mode gradient engine, training-free evaluation protocols,
and a bit-exact tensor container format."""

from .tensor import Tensor, backward, cosine_matrix, kl_rows, matmul, softmax_rows
from .gradcheck import finite_diff_check, run_gradcheck_suite
from .vit import DenseFeatures, VitParams, encode_cls, encode_dense
from .affinity import (SdAttentionStack, complete_affinity, fuse_sd_attention,
                       synth_sd_attention, vfm_affinity)
from .regions import CropBox, crop_resize, roi_align, sample_grid, weighted_region_pool
from .losses import (LossReport, content_cos_loss, context_loss, context_target, rcc_loss,
                     total_loss)
from .config import RunConfig, parse_config
from .trainer import AdamW, Distiller, distill_run, resolution_pair
from .evalsuite import (ClassEmbeddings, SegResult, ablation_coupled_vs_decoupled,
                        miou, region_classify, segment_training_free, top1_macc)
from .container import read_tensor, write_tensor

__all__ = [
    "AdamW", "ClassEmbeddings", "CropBox",
    "DenseFeatures", "Distiller", "LossReport", "RunConfig",
    "SdAttentionStack", "SegResult", "Tensor",
    "VitParams", "ablation_coupled_vs_decoupled", "backward",
    "complete_affinity", "content_cos_loss", "context_loss", "context_target",
    "cosine_matrix", "crop_resize", "distill_run", "encode_cls", "encode_dense",
    "finite_diff_check", "fuse_sd_attention", "kl_rows", "matmul", "miou",
    "parse_config", "rcc_loss", "read_tensor", "region_classify",
    "resolution_pair", "roi_align", "run_gradcheck_suite", "sample_grid",
    "segment_training_free", "softmax_rows", "synth_sd_attention", "top1_macc",
    "total_loss", "vfm_affinity", "weighted_region_pool", "write_tensor",
]
