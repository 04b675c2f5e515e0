"""Per-layer metrics of the traced run, joined by name to the analyzer.

Busy times and call counts are per op, averaged over the traced ops.  GMAC/s
divides the MACs that sunac.analysis.count_macs predicts for a layer at the
workload's duration (times the source count for per-source layers) by the
layer's busy time; for the numerics kernels the MACs come from the call
shapes instead.
"""

from __future__ import annotations

from collections import defaultdict

from sunac import analysis

# transformer_block spans are keyed by the layer name the caller passes.
_REFINE = "numerics.tblock.extractor.refine"
_DEC_TBLOCK = "numerics.tblock.decoder."

# name -> (unit, which way is better); the order is the print order.
PER_LAYER = {
    "codec.encode.busy_s": ("s", "lower"),
    "codec.encode.gmac_s": ("GMAC/s", "higher"),
    "codec.decode.busy_s": ("s", "lower"),
    "codec.decode.calls": ("count", "lower"),
    "codec.decode.gmac_s": ("GMAC/s", "higher"),
    "numerics.conv1d.busy_s": ("s", "lower"),
    "numerics.conv1d.calls": ("count", "lower"),
    "numerics.conv1d.gmac_s": ("GMAC/s", "higher"),
    "numerics.conv1d.computed_mb": ("MB", "lower"),
    "numerics.conv_transpose.busy_s": ("s", "lower"),
    "numerics.conv_transpose.gmac_s": ("GMAC/s", "higher"),
    "numerics.snake.busy_s": ("s", "lower"),
    "numerics.tblock.decoder.busy_s": ("s", "lower"),
    "numerics.tblock.decoder.gmac_s": ("GMAC/s", "higher"),
    "extractor.cross_prompt.busy_s": ("s", "lower"),
    "extractor.cross_prompt.gmac_s": ("GMAC/s", "higher"),
    "extractor.film.busy_s": ("s", "lower"),
    "extractor.film.gmac_s": ("GMAC/s", "higher"),
    "extractor.refine.busy_s": ("s", "lower"),
    "extractor.refine.gmac_s": ("GMAC/s", "higher"),
    "rvq.quantize.busy_s": ("s", "lower"),
    "rvq.quantize.gmac_s": ("GMAC/s", "higher"),
    "rvq.codes_to_features.busy_s": ("s", "lower"),
    "rvq.zero_code_share": ("ratio", "lower"),
    "bitstream.pack.busy_s": ("s", "lower"),
    "bitstream.unpack.busy_s": ("s", "lower"),
    "bitstream.bytes": ("B", "lower"),
    "assignment.mask_reconstruct.busy_s": ("s", "lower"),
    "assignment.best_assignment.busy_s": ("s", "lower"),
    "assignment.perms_scored": ("count", "lower"),
    "split.const_s": ("s", "lower"),
    "split.per_source_s": ("s", "lower"),
    "split.per_source_share": ("ratio", "lower"),
    "split.per_source_share_predicted": ("ratio", "lower"),
    "setup.init_weights_s": ("s", "lower"),
    "setup.rss_mb": ("MiB", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.layer_share": ("ratio", "higher"),
}


def predicted_macs(workload) -> dict[str, int]:
    """Analyzer MACs per op for each timed call, by the join rules:
    encoder.* -> codec.encode, decoder.* -> codec.decode once per source,
    extractor.cross.* -> cross_prompt, extractor.film and
    extractor.refine{0,1}.* -> film and refine, rvq -> rvq.quantize.
    A TransformerNode's .attn and .ff rows add up onto its one call."""
    spec = "SUNAC" if workload.decode else "SUNAC-encoder-only"
    report = analysis.count_macs(analysis.builtin_specs()[spec],
                                 workload.duration_s)
    n_src = len(workload.prompts)

    def rows(prefix):
        return sum(c.macs for c in report.layers if c.name.startswith(prefix))

    return {
        "codec.encode": rows("encoder."),
        "codec.decode": n_src * rows("decoder."),
        "numerics.tblock.decoder": n_src * rows("decoder.transformer"),
        "extractor.cross_prompt": rows("extractor.cross."),
        "extractor.film": n_src * rows("extractor.film"),
        "extractor.refine": n_src * rows("extractor.refine"),
        "rvq.quantize": n_src * rows("rvq"),
        "per_source_share": (n_src * report.per_source_macs
                             / report.total_macs(n_src)),
    }


def layer_metrics(workload, traced_ops, first_op, untraced_op_s,
                  traced_op_s, setup) -> dict[str, float]:
    """traced_ops is a list of (op wall seconds, spans) pairs; first_op is the
    run's first op, whose seed and therefore codes are fixed by the workload
    seed; setup holds init_weights_s and rss_mb of the in-process set-up."""
    n_ops = len(traced_ops)
    busy = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    top_busy = defaultdict(float)
    op_total = 0.0
    for op_s, spans in traced_ops:
        op_total += op_s
        for span in spans:
            busy[span.name] += span.seconds
            calls[span.name] += 1
            for key, value in span.counts.items():
                counts[span.name, key] += value
            if span.top:
                top_busy[span.name] += span.seconds
    busy = {k: v / n_ops for k, v in busy.items()}

    def busy_of(prefix):
        return sum((v for k, v in busy.items() if k.startswith(prefix)), 0.0)

    def gmac(macs, seconds):
        return macs / 1e9 / seconds if seconds > 0 else 0.0

    macs = predicted_macs(workload)
    conv, convt = "numerics.conv1d", "numerics.conv_transpose"
    const_s = busy_of("codec.encode") + busy_of("extractor.cross_prompt")
    per_source_s = (busy_of("extractor.film") + busy_of(_REFINE)
                    + busy_of("rvq.quantize") + busy_of("codec.decode")
                    + top_busy["rvq.codes_to_features"] / n_ops)
    return {
        "codec.encode.busy_s": busy_of("codec.encode"),
        "codec.encode.gmac_s": gmac(macs["codec.encode"],
                                    busy_of("codec.encode")),
        "codec.decode.busy_s": busy_of("codec.decode"),
        "codec.decode.calls": calls["codec.decode"] / n_ops,
        "codec.decode.gmac_s": gmac(macs["codec.decode"],
                                    busy_of("codec.decode")),
        "numerics.conv1d.busy_s": busy_of(conv),
        "numerics.conv1d.calls": calls[conv] / n_ops,
        "numerics.conv1d.gmac_s": gmac(counts[conv, "macs"] / n_ops,
                                       busy_of(conv)),
        "numerics.conv1d.computed_mb": counts[conv, "bytes"] / n_ops / 1e6,
        "numerics.conv_transpose.busy_s": busy_of(convt),
        "numerics.conv_transpose.gmac_s": gmac(counts[convt, "macs"] / n_ops,
                                               busy_of(convt)),
        "numerics.snake.busy_s": busy_of("numerics.snake"),
        "numerics.tblock.decoder.busy_s": busy_of(_DEC_TBLOCK),
        "numerics.tblock.decoder.gmac_s": gmac(
            macs["numerics.tblock.decoder"], busy_of(_DEC_TBLOCK)),
        "extractor.cross_prompt.busy_s": busy_of("extractor.cross_prompt"),
        "extractor.cross_prompt.gmac_s": gmac(
            macs["extractor.cross_prompt"], busy_of("extractor.cross_prompt")),
        "extractor.film.busy_s": busy_of("extractor.film"),
        "extractor.film.gmac_s": gmac(macs["extractor.film"],
                                      busy_of("extractor.film")),
        "extractor.refine.busy_s": busy_of(_REFINE),
        "extractor.refine.gmac_s": gmac(macs["extractor.refine"],
                                        busy_of(_REFINE)),
        "rvq.quantize.busy_s": busy_of("rvq.quantize"),
        "rvq.quantize.gmac_s": gmac(macs["rvq.quantize"],
                                    busy_of("rvq.quantize")),
        "rvq.codes_to_features.busy_s": busy_of("rvq.codes_to_features"),
        "rvq.zero_code_share": float((first_op.codes == 0).mean()),
        "bitstream.pack.busy_s": busy_of("bitstream.pack"),
        "bitstream.unpack.busy_s": busy_of("bitstream.unpack"),
        "bitstream.bytes": first_op.n_bytes,
        "assignment.mask_reconstruct.busy_s": busy_of(
            "assignment.mask_reconstruct"),
        "assignment.best_assignment.busy_s": busy_of(
            "assignment.best_assignment"),
        "assignment.perms_scored": (
            counts["assignment.restricted_permutations", "perms"] / n_ops),
        "split.const_s": const_s,
        "split.per_source_s": per_source_s,
        "split.per_source_share": per_source_s / (const_s + per_source_s),
        "split.per_source_share_predicted": macs["per_source_share"],
        "setup.init_weights_s": setup["init_weights_s"],
        "setup.rss_mb": setup["rss_mb"],
        "trace.overhead_share": (traced_op_s - untraced_op_s) / untraced_op_s,
        "trace.layer_share": sum(top_busy.values()) / op_total,
    }
