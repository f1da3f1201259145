"""Command line front end.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 numerical failure (divergence or a failed gradient check).
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import MODES, TrainConfig, apply_overrides, load_config
from .data import generate, load_features, save_dataset
from .errors import ConfigError, DataError, NumericError, ShapeError
from .fusion import write_predictions
from .graph_distill import EDGE_MODES
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

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    p.add_argument("--lambda1", type=float, help="decoupling loss weight")
    p.add_argument("--lambda2", type=float, help="distillation loss weight")
    p.add_argument("--gamma", type=float, help="margin+orthogonality weight")
    p.add_argument("--alpha", type=float, help="cosine margin")
    p.add_argument("--lr", type=float)
    p.add_argument("--d", type=int, help="common feature dim")
    p.add_argument("--heads", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--max-steps", type=int, dest="max_steps")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--edge-mode", choices=EDGE_MODES, dest="edge_mode")
    p.add_argument("--no-fd", action="store_true", help="disable feature decoupling")
    p.add_argument("--no-homogd", action="store_true", help="disable shared-space distillation")
    p.add_argument("--no-ca", action="store_true", help="disable crossmodal attention")
    p.add_argument("--no-heterogd", action="store_true", help="disable private-space distillation")


_FLAG_FIELDS = ("lambda1", "lambda2", "gamma", "alpha", "lr", "d", "heads",
                "batch_size", "epochs", "max_steps", "seed", "mode", "edge_mode")


def _build_config(args, base: TrainConfig | None = None) -> TrainConfig:
    if getattr(args, "config", None):
        config = load_config(args.config)
    elif base is not None:
        config = base
    else:
        config = TrainConfig()
    overrides = {name: getattr(args, name) for name in _FLAG_FIELDS
                 if getattr(args, name, None) is not None}
    apply_overrides(config, {k: str(v) for k, v in overrides.items()})
    if args.no_fd:
        config.fd = False
    if args.no_homogd:
        config.homogd = False
    if args.no_ca:
        config.ca = False
    if args.no_heterogd:
        config.heterogd = False
    config.validate()
    return config


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", metavar="MANIFEST", help="dataset manifest csv")
    p.add_argument("--synthetic", type=int, metavar="N",
                   help="generate N synthetic samples instead of loading")
    p.add_argument("--data-seed", type=int, default=0, dest="data_seed")


def _load_samples(args, dims=None):
    if getattr(args, "data", None):
        return load_features(args.data, dims=dims)
    if getattr(args, "synthetic", None):
        return generate(args.synthetic, args.data_seed)
    raise ConfigError("need a data source: --data MANIFEST or --synthetic N")


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
    print(f"train: {result.final_train.to_dict()}")
    if result.best_val_mae is not None:
        print(f"best val mae: {result.best_val_mae:.6f}")
    if result.splits[2]:
        print(f"test: {evaluate(result.model, result.splits[2])[0].to_dict()}")
    if result.checkpoint_path is not None:
        print(f"checkpoint: {result.checkpoint_path}")
        print(f"log: {result.log_path}")
    return 0


def _cmd_eval(args) -> int:
    model, _, _ = model_from_checkpoint(args.checkpoint)
    samples = _load_samples(args, dims=model.raw_dims)
    report, (ids, scores, labels) = evaluate(model, samples)
    print(f"eval: {report.to_dict()}")
    if args.predictions:
        write_predictions(args.predictions, ids, list(scores), list(labels))
        print(f"predictions: {args.predictions}")
    return 0


def _cmd_gradcheck(args) -> int:
    config = _build_config(args, base=gradcheck_model_config(args.seed or 0))
    report = gradcheck(config, n_probes=args.probes, seed=args.seed or 0,
                       tol=args.tol)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 3


def _cmd_dump_edges(args) -> int:
    model, _, _ = model_from_checkpoint(args.checkpoint)
    samples = _load_samples(args, dims=model.raw_dims)
    records = dump_edges(model, samples, out_path=args.out)
    print(f"wrote {len(records)} edge records to {args.out}")
    return 0


def _cmd_probe_unimodal(args) -> int:
    model, _, _ = model_from_checkpoint(args.checkpoint)
    samples = _load_samples(args, dims=model.raw_dims)
    report = probe_unimodal(model, samples, seed=args.seed or 0)
    for line in report.lines():
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="modal-distill",
                     description="Decoupled multimodal sentiment regression")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--out", metavar="DIR", help="artifact directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--predictions", metavar="CSV", help="write per-sample predictions")
    _add_data_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    _add_config_flags(p)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("dump-edges", help="record distillation graphs as JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, metavar="JSONL")
    _add_data_flags(p)
    p.set_defaults(func=_cmd_dump_edges)

    p = sub.add_parser("probe-unimodal", help="linear probes on shared-space features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_data_flags(p)
    p.set_defaults(func=_cmd_probe_unimodal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0 through here
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ShapeError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
