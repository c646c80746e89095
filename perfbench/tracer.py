"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function of the eight layer modules
(plus the training methods the metrics need) at every name it is reached
through: a module that did ``from .vit import encode_cls`` holds its own
reference, so each ``densedistill.*`` module attribute that *is* a target
function gets a wrapper of its own. Each call records a span (name, start,
end, parent span, request id) in flat typed arrays kept in memory and
written out by ``write_spans`` at the end of the run. Per-call probes add
the counts the per-layer metrics need (crop hashes, graph records, bytes).

The untimed runs never install a tracer; they use the coarse timers in
``workloads.py`` only.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import pkgutil
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("tensor", "vit", "affinity", "regions", "losses", "trainer", "evalsuite", "container")

# public methods wrapped alongside the module-level functions
METHODS = {
    "trainer": {"Distiller": ("__init__", "step_batch", "loss_for"), "AdamW": ("step",)},
}

# name -> (unit, description); the order is the order printed
METRICS = {
    "tensor.ops": ("count", "from_op records made inside a request (step or scored image), per request"),
    "tensor.graph_free_share": ("share", "from_op records that kept no graph / all from_op records"),
    "tensor.graph_used_share": ("share", "graph nodes backward traverses / graph records made"),
    "tensor.backward_s": ("s", "time in tensor.backward"),
    "tensor.backward_nodes": ("count", "graph nodes backward traverses, per training step"),
    "tensor.softmax_rows_s": ("s", "time in softmax_rows"),
    "tensor.softmax_rows_bytes": ("B", "computed bytes softmax_rows reads and writes (2 x input size)"),
    "tensor.matmul_s": ("s", "time in the forward matmul op"),
    "tensor.matmul_flop": ("flop", "computed forward matmul flops (2mkn)"),
    "tensor.mul_scalar_s": ("s", "time in mul_scalar"),
    "tensor.self_s": ("s", "self time of tensor spans"),
    "vit.student_forward_s": ("s", "encode_dense on the trainable/evaluated student"),
    "vit.teacher_cls_s": ("s", "encode_cls on the frozen teacher"),
    "vit.teacher_cls_calls": ("count", "encode_cls calls on the frozen teacher"),
    "vit.teacher_crop_repeat_share": ("share", "teacher crop forwards inside steps whose crop bytes were seen before"),
    "vit.provider_s": ("s", "encode_dense on the frozen provider"),
    "vit.patch_embed_s": ("s", "time in patch_embed"),
    "vit.attention_block_s": ("s", "time in attention_block (all roles)"),
    "vit.decoupled_block_s": ("s", "time in decoupled_block"),
    "vit.self_s": ("s", "self time of vit spans"),
    "affinity.context_teacher_s": ("s", "time in trainer.context_teacher"),
    "affinity.context_teacher_repeat_share": ("share", "context_teacher calls whose inputs were seen before"),
    "affinity.vfm_affinity_s": ("s", "time in vfm_affinity"),
    "affinity.fuse_s": ("s", "time in fuse_sd_attention"),
    "affinity.complete_s": ("s", "time in complete_affinity"),
    "affinity.synth_sd_s": ("s", "time in synth_sd_attention"),
    "affinity.self_s": ("s", "self time of affinity spans"),
    "regions.crops": ("count", "crops k per sampled image grid (mean)"),
    "regions.crop_resize_s": ("s", "time in crop_resize"),
    "regions.roi_align_s": ("s", "time in roi_align"),
    "regions.roi_align_calls": ("count", "roi_align calls"),
    "regions.weighted_pool_s": ("s", "time in weighted_region_pool"),
    "regions.self_s": ("s", "self time of regions spans"),
    "losses.context_s": ("s", "time in context_loss"),
    "losses.content_s": ("s", "time in content_cos_loss"),
    "losses.rcc_s": ("s", "time in rcc_loss"),
    "losses.self_s": ("s", "self time of losses spans"),
    "trainer.step_s": ("s", "time in Distiller.step_batch"),
    "trainer.forward_s": ("s", "time in distill_forward"),
    "trainer.adamw_s": ("s", "time in AdamW.step"),
    "trainer.prepare_s": ("s", "time in prepare_record and evalsuite.prepare_suite"),
    "trainer.checkpoint_write_s": ("s", "time in save_checkpoint"),
    "trainer.self_s": ("s", "self time of trainer spans"),
    "evalsuite.evaluate_s": ("s", "time in evaluate_on_suite and the eval-seg/eval-region commands"),
    "evalsuite.segment_s": ("s", "time in segment_training_free"),
    "evalsuite.region_classify_s": ("s", "time in region_classify"),
    "evalsuite.class_prototypes_s": ("s", "time in class_prototypes"),
    "evalsuite.self_s": ("s", "self time of evalsuite spans"),
    "container.read_s": ("s", "time in read_tensor"),
    "container.read_bytes": ("B", "file bytes read_tensor read"),
    "container.write_s": ("s", "time in write_tensor"),
    "container.write_bytes": ("B", "file bytes write_tensor wrote"),
    "container.self_s": ("s", "self time of container spans"),
    "trace.requests": ("count", "requests traced (training steps or scored images)"),
    "trace.spans": ("count", "spans recorded"),
    "trace.wall_s": ("s", "traced wall_s"),
    "trace.overhead_s": ("s", "traced wall_s minus untraced wall_s of the same workload"),
}

# per-layer metrics that must be nonzero on each workload: the layers the
# workload exercises (the benchmark's own tests hold every wrapper to this)
EXPECTED_NONZERO = {
    "desk_ablate": (
        "tensor.ops", "tensor.backward_s", "tensor.backward_nodes", "tensor.softmax_rows_s",
        "tensor.matmul_s", "tensor.mul_scalar_s", "vit.student_forward_s", "vit.teacher_cls_s",
        "vit.teacher_cls_calls", "vit.teacher_crop_repeat_share", "vit.provider_s",
        "vit.patch_embed_s", "vit.attention_block_s", "vit.decoupled_block_s",
        "affinity.context_teacher_s", "affinity.context_teacher_repeat_share",
        "affinity.vfm_affinity_s", "affinity.fuse_s", "affinity.complete_s", "affinity.synth_sd_s",
        "regions.crops", "regions.crop_resize_s", "regions.roi_align_s", "regions.roi_align_calls",
        "regions.weighted_pool_s", "losses.context_s", "losses.content_s", "losses.rcc_s",
        "trainer.step_s", "trainer.forward_s", "trainer.adamw_s", "trainer.prepare_s",
        "evalsuite.evaluate_s", "evalsuite.segment_s", "evalsuite.region_classify_s",
        "evalsuite.class_prototypes_s"),
    "paper_train": (
        "tensor.ops", "tensor.backward_s", "tensor.backward_nodes", "tensor.softmax_rows_s",
        "tensor.matmul_s", "tensor.mul_scalar_s", "vit.student_forward_s", "vit.teacher_cls_s",
        "vit.teacher_cls_calls", "vit.provider_s", "vit.patch_embed_s", "vit.attention_block_s",
        "vit.decoupled_block_s", "affinity.context_teacher_s", "affinity.vfm_affinity_s",
        "affinity.fuse_s", "affinity.complete_s", "affinity.synth_sd_s", "regions.crops",
        "regions.crop_resize_s", "regions.roi_align_s", "regions.roi_align_calls",
        "regions.weighted_pool_s", "losses.context_s", "losses.content_s", "losses.rcc_s",
        "trainer.step_s", "trainer.forward_s", "trainer.adamw_s", "trainer.prepare_s",
        "trainer.checkpoint_write_s", "container.read_s", "container.read_bytes",
        "container.write_s", "container.write_bytes"),
    "paper_eval": (
        "tensor.ops", "tensor.softmax_rows_s", "tensor.matmul_s", "tensor.mul_scalar_s",
        "vit.student_forward_s", "vit.patch_embed_s", "vit.attention_block_s",
        "vit.decoupled_block_s", "regions.roi_align_s", "regions.roi_align_calls",
        "evalsuite.evaluate_s", "evalsuite.segment_s", "evalsuite.region_classify_s",
        "container.read_s", "container.read_bytes"),
}


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        h.update(repr(arr.shape).encode())
        h.update(memoryview(arr).cast("B") if arr.flags["C_CONTIGUOUS"] else arr.tobytes())
    return h.digest()


def _data(x):
    """The array behind a Tensor argument (ndarrays pass through)."""
    return x if isinstance(x, np.ndarray) else x.data


def _package_modules():
    """Every densedistill module (``__main__`` runs the CLI, so it is skipped)."""
    import densedistill

    for info in pkgutil.iter_modules(densedistill.__path__):
        if info.name != "__main__":
            importlib.import_module(f"densedistill.{info.name}")
    return {name: mod for name, mod in list(sys.modules.items())
            if name == "densedistill" or name.startswith("densedistill.")}


class Tracer:
    """Spans plus the per-call counters behind the per-layer metrics."""

    def __init__(self):
        self.span_names = []
        self._name_ids = {}
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self._stack = []
        self._child = []
        self.request = -1
        self.request_count = 0
        self.calls = defaultdict(int)       # span name -> calls
        self.incl = defaultdict(float)      # span name -> inclusive seconds
        self.self_time = defaultdict(float)  # span name -> self seconds
        self.binding_calls = defaultdict(int)  # "module.attr" -> calls through that name
        self.counters = defaultdict(float)
        self._seen_crops = set()
        self._seen_context = set()
        self._patched = []   # (owner, attr, original)
        self.targets = {}    # id(original function) -> span name

    # ------------------------------------------------------------------ spans

    def _name_id(self, name):
        sid = self._name_ids.get(name)
        if sid is None:
            sid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return sid

    def _wrap(self, fn, span, binding, probe):
        sid = self._name_id(span)
        stack, child = self._stack, self._child
        starts, ends, names, parents, reqs = (self.starts, self.ends, self.names,
                                              self.parents, self.requests)
        calls, incl, self_time, binding_calls = (self.calls, self.incl, self.self_time,
                                                 self.binding_calls)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            reqs.append(tracer.request)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                kids = child.pop()
                dur = t1 - t0
                if child:
                    child[-1] += dur
                starts[idx] = t0
                ends[idx] = t1
                calls[span] += 1
                incl[span] += dur
                self_time[span] += dur - kids
                binding_calls[binding] += 1
            if probe is not None:
                probe(tracer, args, kwargs, out, dur)
            return out

        return functools.update_wrapper(wrapper, fn)

    # --------------------------------------------------------------- install

    def install(self):
        """Wrap every target at every binding."""
        modules = _package_modules()
        for layer in LAYERS:
            mod = modules[f"densedistill.{layer}"]
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                        and value.__module__ == mod.__name__):
                    self.targets[id(value)] = f"{layer}.{attr}"
        for mod_name, mod in modules.items():
            short = mod_name.split(".", 1)[1] if "." in mod_name else "densedistill"
            for attr, value in list(vars(mod).items()):
                span = self.targets.get(id(value))
                if span is None:
                    continue
                wrapper = self._wrap(value, span, f"{short}.{attr}", PROBES.get(span))
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrapper)
        for layer, classes in METHODS.items():
            mod = modules[f"densedistill.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    span = f"{layer}.{cls_name}.{meth}"
                    wrapper = self._wrap(original, span, span, PROBES.get(span))
                    self._patched.append((cls, meth, original))
                    setattr(cls, meth, wrapper)

    def unbound_targets(self):
        """Package attributes still holding an unwrapped target function."""
        missed = []
        for mod_name, mod in _package_modules().items():
            for attr, value in vars(mod).items():
                if id(value) in self.targets and not hasattr(value, "__wrapped__"):
                    missed.append(f"{mod_name}.{attr}")
        return missed

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --------------------------------------------------------------- results

    def write_spans(self, path):
        """Span table as flat little-endian arrays plus a JSON index."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.starts, self.ends, self.names, self.parents, self.requests):
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"count": len(self.starts), "names": self.span_names,
                       "layout": ["start f8", "end f8", "name i4", "parent i4", "request i4"]},
                      fh)

    def metrics(self, traced_wall_s, untraced_wall_s):
        c, incl, calls = self.counters, self.incl, self.calls
        requests = max(1, self.request_count)
        steps = max(1, int(c["steps"]))
        layer_self = defaultdict(float)
        for span, seconds in self.self_time.items():
            layer_self[span.split(".", 1)[0]] += seconds
        values = {
            "tensor.ops": c["ops_in_request"] / requests,
            "tensor.graph_free_share": (calls["tensor.from_op"] - c["graph_records"])
            / max(1, calls["tensor.from_op"]),
            "tensor.graph_used_share": c["backward_nodes"] / max(1.0, c["graph_records"]),
            "tensor.backward_s": incl["tensor.backward"],
            "tensor.backward_nodes": c["backward_nodes"] / steps if c["steps"] else 0.0,
            "tensor.softmax_rows_s": incl["tensor.softmax_rows"],
            "tensor.softmax_rows_bytes": c["softmax_bytes"],
            "tensor.matmul_s": incl["tensor.matmul"],
            "tensor.matmul_flop": c["matmul_flop"],
            "tensor.mul_scalar_s": incl["tensor.mul_scalar"],
            "vit.student_forward_s": c["student_forward_s"],
            "vit.teacher_cls_s": c["teacher_cls_s"],
            "vit.teacher_cls_calls": c["teacher_cls_calls"],
            "vit.teacher_crop_repeat_share": c["crop_repeats"] / max(1.0, c["crops_encoded"]),
            "vit.provider_s": c["provider_s"],
            "vit.patch_embed_s": incl["vit.patch_embed"],
            "vit.attention_block_s": incl["vit.attention_block"],
            "vit.decoupled_block_s": incl["vit.decoupled_block"],
            "affinity.context_teacher_s": incl["trainer.context_teacher"],
            "affinity.context_teacher_repeat_share": c["context_repeats"]
            / max(1, calls["trainer.context_teacher"]),
            "affinity.vfm_affinity_s": incl["affinity.vfm_affinity"],
            "affinity.fuse_s": incl["affinity.fuse_sd_attention"],
            "affinity.complete_s": incl["affinity.complete_affinity"],
            "affinity.synth_sd_s": incl["affinity.synth_sd_attention"],
            "regions.crops": c["crops_sampled"] / max(1, calls["regions.sample_grid"]),
            "regions.crop_resize_s": incl["regions.crop_resize"],
            "regions.roi_align_s": incl["regions.roi_align"],
            "regions.roi_align_calls": calls["regions.roi_align"],
            "regions.weighted_pool_s": incl["regions.weighted_region_pool"],
            "losses.context_s": incl["losses.context_loss"],
            "losses.content_s": incl["losses.content_cos_loss"],
            "losses.rcc_s": incl["losses.rcc_loss"],
            "trainer.step_s": incl["trainer.Distiller.step_batch"],
            "trainer.forward_s": incl["trainer.distill_forward"],
            "trainer.adamw_s": incl["trainer.AdamW.step"],
            "trainer.prepare_s": incl["trainer.prepare_record"] + incl["evalsuite.prepare_suite"],
            "trainer.checkpoint_write_s": incl["trainer.save_checkpoint"],
            "evalsuite.evaluate_s": incl["evalsuite.evaluate_on_suite"] + c["eval_command_s"],
            "evalsuite.segment_s": incl["evalsuite.segment_training_free"],
            "evalsuite.region_classify_s": incl["evalsuite.region_classify"],
            "evalsuite.class_prototypes_s": incl["evalsuite.class_prototypes"],
            "container.read_s": incl["container.read_tensor"],
            "container.read_bytes": c["read_bytes"],
            "container.write_s": incl["container.write_tensor"],
            "container.write_bytes": c["write_bytes"],
            "trace.requests": self.request_count,
            "trace.spans": len(self.starts),
            "trace.wall_s": traced_wall_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = layer_self[layer]
        return {name: {"value": float(values[name]), "unit": unit}
                for name, (unit, _) in METRICS.items()}

    # ------------------------------------------------------------- requests

    def begin_request(self):
        self.request = self.request_count
        self.request_count += 1

    def end_request(self):
        self.request = -1


# --------------------------------------------------------------------- probes


def _probe_from_op(tracer, args, kwargs, out, dur):
    if out._backward is not None:
        tracer.counters["graph_records"] += 1
    if tracer.request >= 0:
        tracer.counters["ops_in_request"] += 1


def _probe_trace(tracer, args, kwargs, out, dur):
    tracer.counters["backward_nodes"] += sum(1 for node in out if node._parents)


def _probe_softmax(tracer, args, kwargs, out, dur):
    tracer.counters["softmax_bytes"] += 2 * _data(args[0]).nbytes


def _probe_matmul(tracer, args, kwargs, out, dur):
    (m, k), n = _data(args[0]).shape, _data(args[1]).shape[1]
    tracer.counters["matmul_flop"] += 2.0 * m * k * n


def _probe_encode_dense(tracer, args, kwargs, out, dur):
    params = args[1] if len(args) > 1 else kwargs["params"]
    tracer.counters["provider_s" if params.frozen else "student_forward_s"] += dur


def _probe_encode_cls(tracer, args, kwargs, out, dur):
    params = args[1] if len(args) > 1 else kwargs["params"]
    if not params.frozen:
        return
    tracer.counters["teacher_cls_s"] += dur
    tracer.counters["teacher_cls_calls"] += 1
    if tracer.request >= 0:
        key = _digest(_data(args[0]))
        tracer.counters["crops_encoded"] += 1
        if key in tracer._seen_crops:
            tracer.counters["crop_repeats"] += 1
        tracer._seen_crops.add(key)


def _probe_context_teacher(tracer, args, kwargs, out, dur):
    vfm_tokens, sd_stack = args[0], args[1]
    key = _digest(vfm_tokens, sd_stack.maps) if sd_stack is not None else _digest(vfm_tokens)
    if key in tracer._seen_context:
        tracer.counters["context_repeats"] += 1
    tracer._seen_context.add(key)


def _probe_sample_grid(tracer, args, kwargs, out, dur):
    tracer.counters["crops_sampled"] += len(out)


def _probe_read(tracer, args, kwargs, out, dur):
    tracer.counters["read_bytes"] += os.path.getsize(args[0])


def _probe_write(tracer, args, kwargs, out, dur):
    tracer.counters["write_bytes"] += os.path.getsize(args[0])


PROBES = {
    "tensor.from_op": _probe_from_op,
    "tensor.trace": _probe_trace,
    "tensor.softmax_rows": _probe_softmax,
    "tensor.matmul": _probe_matmul,
    "vit.encode_dense": _probe_encode_dense,
    "vit.encode_cls": _probe_encode_cls,
    "trainer.context_teacher": _probe_context_teacher,
    "regions.sample_grid": _probe_sample_grid,
    "container.read_tensor": _probe_read,
    "container.write_tensor": _probe_write,
}
