"""Command-line front end.

Subcommands cover the full loop: synthesize fixture mixtures, encode a
mixture into a per-source code stream, decode or extract sources back to
WAV, score estimates against a mixture manifest, and print the cost
tables.  Exit status 0 is success, 2 is a usage or input problem, 3 is a
corrupt stream or weight file.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import sys

import numpy as np

from . import analysis, codec, fixtures, pipeline
from .audio import _atomic_write_bytes, _check_wav_rate, read_wav, write_wav
from .bitstream import read_stream, write_stream
from .errors import CorruptStreamError, InvalidArgumentError, SunacError
from .extractor import parse_prompts

__all__ = ["main", "entry"]

SEED_ENV_VAR = "SUNAC_SEED"


def _load_config(path: str | None) -> codec.ModelConfig:
    if path is None:
        return codec.default_config("SUNAC")
    with open(path, "rb") as fh:
        return codec.ModelConfig.from_json(fh.read())


def _resolve_seed(config: codec.ModelConfig) -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return config.seed
    try:
        return int(raw)
    except ValueError:
        raise InvalidArgumentError(
            f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


def _load_store(weights_path: str | None,
                config: codec.ModelConfig) -> codec.WeightStore:
    if weights_path is not None:
        return codec.load_weights(weights_path, config)
    return codec.init_weights(config, _resolve_seed(config))


def _write_sources(sources, stem: str, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, (buf, ptype) in enumerate(sources):
        name = f"{stem}.src{i}.wav"
        write_wav(os.path.join(out_dir, name), buf)
        entries.append({"file": name, "prompt_type": ptype.value})
    sidecar = {
        "sample_rate": sources[0][0].sample_rate,
        "n_samples": sources[0][0].n_samples,
        "sources": entries,
    }
    _atomic_write_bytes(os.path.join(out_dir, f"{stem}.sources.json"),
                        (json.dumps(sidecar, indent=2) + "\n").encode("utf-8"))
    return sidecar


def _cmd_encode(args) -> int:
    config = _load_config(args.config)
    store = _load_store(args.weights, config)
    audio = read_wav(args.mixture)
    prompts = parse_prompts(args.prompts)
    stream = pipeline.encode_mixture(audio, prompts, config, store,
                                     n_active=args.codebooks)
    write_stream(stream, args.output)
    print(f"wrote {args.output}: {stream.n_sources} source(s), "
          f"{stream.n_frames} frames, {os.path.getsize(args.output)} bytes")
    return 0


def _cmd_decode(args) -> int:
    config = _load_config(args.config)
    store = _load_store(args.weights, config)
    stream = read_stream(args.stream)
    sources = pipeline.decode_stream(stream, config, store)
    stem = os.path.splitext(os.path.basename(args.stream))[0]
    sidecar = _write_sources(sources, stem, args.output_dir)
    for entry_ in sidecar["sources"]:
        print(f"wrote {os.path.join(args.output_dir, entry_['file'])} "
              f"({entry_['prompt_type']})")
    return 0


def _save_npy(path: str, array: np.ndarray) -> None:
    sink = io.BytesIO()
    np.save(sink, array)
    _atomic_write_bytes(path, sink.getvalue())


def _cmd_extract(args) -> int:
    """Debug path: dump the per-prompt extracted feature maps, pre-quantizer."""
    config = _load_config(args.config)
    store = _load_store(args.weights, config)
    audio = read_wav(args.mixture)
    prompts = parse_prompts(args.prompts)
    maps = pipeline.extract_features(audio, prompts, config, store)
    os.makedirs(args.output_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.mixture))[0]
    for i, (fmap, ptype) in enumerate(zip(maps, prompts)):
        name = f"{stem}.src{i}.{ptype.value}.npy"
        _save_npy(os.path.join(args.output_dir, name), fmap)
        print(f"wrote {os.path.join(args.output_dir, name)}: "
              f"{fmap.shape[0]}x{fmap.shape[1]} features")
    return 0


def _cmd_fixtures(args) -> int:
    if (args.manifest is None) == (args.types is None):
        raise InvalidArgumentError(
            "pass exactly one of --manifest (render an existing recipe) or "
            "--types with --seed (derive a new one)"
        )
    if args.manifest is not None:
        manifest = fixtures.load_manifest(args.manifest)
    else:
        if args.seed is None:
            raise InvalidArgumentError("--types needs --seed")
        manifest = fixtures.make_mixture(
            parse_prompts(args.types), seed=args.seed,
            duration_s=args.duration, sample_rate=args.rate,
            allow_four_sources=args.allow_four_sources,
        )
    _check_wav_rate(manifest.sample_rate)
    rendered = fixtures.realize(manifest)
    os.makedirs(args.output_dir, exist_ok=True)
    fixtures.save_manifest(manifest, os.path.join(args.output_dir, "manifest.json"))
    write_wav(os.path.join(args.output_dir, "mixture.wav"), rendered.mixture)
    for i, (buf, ptype) in enumerate(rendered.sources):
        write_wav(os.path.join(args.output_dir, f"src{i}.wav"), buf)
        print(f"wrote src{i}.wav ({ptype.value})")
    print(f"wrote mixture.wav and manifest.json to {args.output_dir}")
    return 0


def _estimate_paths(est_dir: str) -> list[str]:
    if not os.path.isdir(est_dir):
        raise InvalidArgumentError(f"{est_dir} is not a directory")
    paths = sorted(glob.glob(os.path.join(est_dir, "*.wav")))
    if not paths:
        raise InvalidArgumentError(f"no .wav files in {est_dir}")
    return paths


def _cmd_eval(args) -> int:
    manifest = fixtures.load_manifest(args.refs)
    paths = _estimate_paths(args.est)
    estimates = [read_wav(path) for path in paths]
    if len(estimates) != len(manifest.sources):
        raise InvalidArgumentError(
            f"manifest describes {len(manifest.sources)} sources but "
            f"{args.est} holds {len(estimates)} estimate files"
        )
    for path, est in zip(paths, estimates):
        if est.sample_rate != manifest.sample_rate:
            raise InvalidArgumentError(
                f"{path} is {est.sample_rate} Hz but the manifest says "
                f"{manifest.sample_rate} Hz"
            )
    report = pipeline.evaluate_manifest(manifest, estimates, mode=args.mode)
    if args.format == "json":
        payload = {
            "mode": report.mode,
            "permutation": list(report.assignment.permutation),
            "mean_si_sdr_db": report.mean_si_sdr_db,
            "estimate_files": [os.path.basename(p) for p in paths],
            "rows": [
                {
                    "ref_index": row.ref_index,
                    "prompt_type": row.prompt_type.value,
                    "estimate_index": row.estimate_index,
                    "si_sdr_db": row.si_sdr_db,
                }
                for row in report.rows
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in report.lines():
            print(line)
    return 0


def _cmd_analyze(args) -> int:
    if args.arch is not None:
        by_lower = {name.lower(): name for name in analysis.BUILTIN_ORDER}
        key = by_lower.get(args.arch.lower())
        if key is None:
            raise InvalidArgumentError(
                f"unknown architecture {args.arch!r}, expected one of "
                f"{', '.join(analysis.BUILTIN_ORDER)}"
            )
        row = analysis.count_macs(analysis.builtin_specs()[key],
                                  args.duration, args.rate)
        row.total_macs(args.sources)  # rejects an unusable count in either format
        if args.format == "json":
            payload = row.to_dict(args.sources)
            layers = payload.pop("layers")
            payload.update(n_sources=args.sources, layers=layers)
            print(json.dumps(payload, indent=2))
        else:
            print(f"{row.arch}: {row.params / 1e6:.2f}M params, "
                  f"{row.const_macs / 1e9:.2f}G const + "
                  f"{row.per_source_macs / 1e9:.2f}G per source "
                  f"({args.duration:g} s at {args.rate} Hz)")
            for c in row.layers:
                print(f"  {c.name:<28} {c.kind:<18} {c.tag:<10} "
                      f"{c.macs / 1e6:>10.2f}M {c.scaling}")
        return 0
    report = analysis.compare_report(args.duration, args.sources, args.rate)
    if args.format == "json":
        print(analysis.report_to_json(report), end="")
    else:
        print(analysis.format_report_text(report), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunac",
        description="Prompt-conditioned neural audio codec tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--config", help="model config JSON (default: built-in)")
        p.add_argument("--weights", help="weight store file (default: seeded init)")

    p = sub.add_parser("encode", help="encode a mixture WAV into a code stream")
    p.add_argument("mixture", help="mixture WAV file")
    p.add_argument("--prompts", required=True,
                   help="comma-separated source prompts, e.g. speech,music")
    p.add_argument("--output", "-o", required=True, help="stream file to write")
    p.add_argument("--codebooks", type=int, default=None,
                   help="active codebooks per source (default: all)")
    add_model_args(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a code stream to WAV sources")
    p.add_argument("stream", help="stream file to read")
    p.add_argument("--output-dir", "-o", default=".", help="directory for WAVs")
    add_model_args(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("extract",
                       help="dump per-prompt extracted feature maps (debug)")
    p.add_argument("mixture", help="mixture WAV file")
    p.add_argument("--prompts", required=True,
                   help="comma-separated source prompts")
    p.add_argument("--output-dir", "-o", default=".",
                   help="directory for .npy feature files")
    add_model_args(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("fixtures", help="render a fixture mixture to WAVs")
    p.add_argument("--manifest", help="existing mixture manifest JSON to render")
    p.add_argument("--types",
                   help="comma-separated source types, e.g. speech,speech,music")
    p.add_argument("--seed", type=int, help="base seed when deriving from --types")
    p.add_argument("--duration", type=float, default=1.0, help="seconds")
    p.add_argument("--rate", type=int, default=16000, help="sample rate in Hz")
    p.add_argument("--allow-four-sources", action="store_true")
    p.add_argument("--output-dir", "-o", required=True)
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("eval", help="score estimates against a fixture manifest")
    p.add_argument("--refs", required=True, help="mixture manifest JSON")
    p.add_argument("--est", required=True,
                   help="directory of estimate WAVs (sorted by name)")
    p.add_argument("--mode", choices=pipeline.EVAL_MODES, default="direct")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="print parameter and MAC cost tables")
    p.add_argument("--arch", default=None,
                   help="detail one architecture instead of the table")
    p.add_argument("--duration", type=float, default=1.0, help="seconds")
    p.add_argument("--sources", type=int, default=1,
                   help="source count for totals")
    p.add_argument("--rate", type=int, default=16000, help="sample rate in Hz")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorruptStreamError as exc:
        print(f"sunac: corrupt input: {exc}", file=sys.stderr)
        return 3
    except SunacError as exc:
        print(f"sunac: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"sunac: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
