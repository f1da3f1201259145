"""Command line front end.

Exit codes, each failure printed as one line on stderr:

    0  success
    1  usage or configuration problem (an empty path, both or neither of --data and --synthetic)
    2  data problem (manifest, feature files, checkpoint contents, a
       non-finite input value, a text input that is not UTF-8)
    3  numerical failure (overflow, invalid value, divide by zero; failed gradient check)
    4  I/O failure (a path that cannot be read or written)
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import TrainConfig, apply_overrides, load_config
from .data import MODALITIES, RAW_DIMS, generate, load_features, save_dataset
from .errors import ConfigError, DataError, NumericError, ShapeError
from .fusion import write_predictions
from .train import (
    dump_edges,
    evaluate,
    gradcheck,
    gradcheck_model_config,
    model_from_checkpoint,
    # not called here (eval scores through evaluate); the benchmark's
    # tracer wraps this name, so it stays bound
    predict_scores,  # noqa: F401
    probe_unimodal,
    train,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _path(value: str) -> str:
    """The argparse type of every path flag: an empty path is an error,
    not the working directory and not an absent flag."""
    if not value:
        raise argparse.ArgumentTypeError("empty path")
    return value


def _config_fields():
    """Every TrainConfig field with a flag; ``out_dir`` is train's ``--out``."""
    return [f for f in fields(TrainConfig) if f.name != "out_dir"]


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=_path, metavar="FILE", help="key=value config file")
    for f in _config_fields():
        help_text, kind = f.metadata["help"], type(f.default)
        if kind is bool:
            p.add_argument(f"--no-{f.name}", dest=f.name, action="store_const",
                           const=False, help=f"disable {help_text}")
        else:
            p.add_argument(f"--{f.name.replace('_', '-')}", type=kind,
                           choices=f.metadata["choices"], help=help_text)


def _build_config(args, base: TrainConfig | None = None) -> TrainConfig:
    config = base if base is not None else TrainConfig()
    if args.config:  # the file layers on the command's base, as the flags do
        config = load_config(args.config, config)
    apply_overrides(config, {f.name: getattr(args, f.name) for f in _config_fields()
                             if getattr(args, f.name) is not None})
    config.validate()
    return config


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", type=_path, metavar="MANIFEST", help="dataset manifest csv")
    source.add_argument("--synthetic", type=int, metavar="N",
                        help="generate N synthetic samples instead of loading")
    p.add_argument("--data-seed", type=int, default=0, dest="data_seed")


def _load_samples(args, dims=None):
    if args.data:
        return load_features(args.data, dims=dims)
    if dims is not None and dims != RAW_DIMS:
        raise ConfigError(f"--synthetic draws raw feature dims {_tags(RAW_DIMS)}, "
                          f"the checkpoint expects {_tags(dims)}")
    return generate(args.synthetic, args.data_seed)


def _tags(dims) -> dict[str, int]:
    return {m.tag: dims[m] for m in MODALITIES}


def _load_checkpoint_and_samples(args):
    """The checkpoint's model, then the samples, read at its raw feature dims."""
    model, _, _ = model_from_checkpoint(args.checkpoint)
    return model, _load_samples(args, dims=model.raw_dims)


def _check_output(path: str) -> None:
    """Fail before any work when ``path`` cannot be written as a file: it
    is an existing directory, or it lies under a file.  Creates its parent
    directories, as the writer would."""
    if Path(path).is_dir():
        raise IsADirectoryError(f"output path {path} is a directory")
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def _cmd_gen_data(args) -> int:
    samples = generate(args.n, args.seed)
    manifest = save_dataset(samples, args.out)
    print(f"wrote {len(samples)} samples to {manifest}")
    return 0


def _cmd_train(args) -> int:
    config = _build_config(args)
    if args.out:
        config.out_dir = args.out
    samples = _load_samples(args)
    result = train(config, samples)
    print(f"trained {result.steps} steps on {len(result.splits[0])} samples")
    if result.best_val_mae is not None:
        print(f"best val mae: {result.best_val_mae:.6f}")
    if result.splits[2]:
        which, step = (("final", result.steps) if result.best_params is None
                       else ("best-val", result.best_step))
        print(f"test: {evaluate(result.kept_model(), result.splits[2])[0].to_dict()}")
        print(f"test scored with {which} parameters (step {step})")
    if result.checkpoint_path is not None:
        print(f"checkpoint: {result.checkpoint_path}")
        print(f"log: {result.log_path}")
    return 0


def _cmd_eval(args) -> int:
    if args.predictions:
        _check_output(args.predictions)
    model, samples = _load_checkpoint_and_samples(args)
    report, (ids, scores, labels) = evaluate(model, samples)
    print(f"eval: {report.to_dict()}")
    if args.predictions:
        write_predictions(args.predictions, ids, scores, labels)
        print(f"predictions: {args.predictions}")
    return 0


def _cmd_gradcheck(args) -> int:
    config = _build_config(args, base=gradcheck_model_config())
    # the audit batch and probes follow the model's seed, wherever it was set
    report = gradcheck(config, n_probes=args.probes, seed=config.seed, tol=args.tol)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 3


def _cmd_dump_edges(args) -> int:
    _check_output(args.out)
    model, samples = _load_checkpoint_and_samples(args)
    records = dump_edges(model, samples, out_path=args.out)
    print(f"wrote {len(records)} edge records to {args.out}")
    return 0


def _cmd_probe_unimodal(args) -> int:
    model, samples = _load_checkpoint_and_samples(args)
    report = probe_unimodal(model, samples, seed=args.seed)
    for line in report.lines():
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="modal-distill",
                     description="Decoupled multimodal sentiment regression")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--out", type=_path, required=True, metavar="DIR")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--out", type=_path, metavar="DIR", help="artifact directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", type=_path, required=True)
    p.add_argument("--predictions", type=_path, metavar="CSV",
                   help="write per-sample predictions")
    _add_data_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    _add_config_flags(p)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("dump-edges", help="record distillation graphs as JSONL")
    p.add_argument("--checkpoint", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True, metavar="JSONL")
    _add_data_flags(p)
    p.set_defaults(func=_cmd_dump_edges)

    p = sub.add_parser("probe-unimodal", help="linear probes on shared-space features")
    p.add_argument("--checkpoint", type=_path, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_data_flags(p)
    p.set_defaults(func=_cmd_probe_unimodal)

    return parser


# every character str.splitlines() breaks at, printed as its escape
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _fail(code: int, message: str) -> int:
    """Print ``message`` as one stderr line, whatever paths or values it
    quotes, and return the exit code."""
    print(message.translate(_LINE_BREAKS), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0 through here
        return int(exc.code or 0)
    except ConfigError as exc:
        return _fail(1, f"error: {exc}")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ConfigError as exc:
        return _fail(1, f"error: {exc}")
    except DataError as exc:
        return _fail(2, f"data error: {exc}")
    except UnicodeDecodeError as exc:  # a config file or manifest holding binary
        return _fail(2, f"data error: an input file is not UTF-8 text: {exc}")
    except (NumericError, ShapeError, FloatingPointError) as exc:
        return _fail(3, f"numeric error: {exc}")
    except OSError as exc:  # the message names the path
        return _fail(4, f"I/O error: {exc}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
