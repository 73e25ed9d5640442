"""Command line front end.

Exit codes: 0 success, 1 configuration or usage problems, 2 data or parse
problems, 3 proposer/provider failures.

Every command is a fresh process, so start-up is paid on each run. A module
that some command does not run is imported inside the command or function
that needs it, not at module level: `benchgen` in `_cmd_benchgen`, the
detector in `detect` and `eval`, the training pipeline in the two training
commands, the invariant language in the commands that read or write
invariants (`relations infer` loads neither it nor refinement), numpy only
in the opt-in HMM sequence model (`relations infer` at its defaults loads
none), the bundle builders (`sources`, with the DDL tokenizer) only in
`schema parse` and `benchgen`, the remote proposer (`remote`) only when the
configuration selects it, and `urllib.request` only when it sends a request.
`detect` and `eval` load no training module. For the same reason the
package's records, the configuration included, are plain `__slots__`
classes on `values.Record`, not dataclasses, whose decorator execs each
class's generated methods at import, and `relations infer` loads no
`dataclasses` at all; only `dsl.Invariant`, which callers copy with
`dataclasses.replace`, stays one.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys

from . import __version__
from .binlog import ingest_binlog, read_binlog_file
from .config import PipelineConfig, load_config
from .errors import (
    ApivetError,
    ConfigError,
    ExtractionError,
    IngestError,
    MetricsError,
    ParseError,
    ProposalError,
    ReplayError,
    SchemaError,
)
from .fileio import read_file, read_json, write_chunks, write_json
from .logstore import read_label_file, read_log_file
from .relations import (
    admit_relationships,
    diagram_to_dict,
    load_relationships,
    save_relationships,
)
from .schema import load_bundle, merge_bundle, save_bundle


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def _read_calls(path: str, depth_limit: int) -> list:
    """One API entity per entry of a {name: {arguments, response}} file."""
    from .sources import flatten_api_signature

    return [
        flatten_api_signature(
            name, sig.get("arguments", {}), sig.get("response", {}), depth_limit
        )
        for name, sig in sorted(read_json(path).items())
    ]


def _load_document(path: str, loader):
    """`loader(path)` for any input file.

    A file that cannot be read exits 1; bad syntax (nesting too deep to
    decode included), a wrong shape or, under --strict, a bad record exits 2
    naming the file.
    """
    try:
        return loader(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}")
    except (
        AttributeError,
        LookupError,
        RecursionError,
        TypeError,
        ValueError,
        SchemaError,
        ParseError,
        IngestError,
        MetricsError,
        ReplayError,
    ) as exc:
        raise ApivetError(f"malformed {path}: {type(exc).__name__}: {exc}") from None


def _config_for(args) -> PipelineConfig:
    """The configuration file's, or the default, with the command's
    --strict, --proposer and --seed applied: a new record, so its checks
    run on the overridden fields."""
    config = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    fields = {name: getattr(config, name) for name in config._fields}
    if getattr(args, "strict", False):
        fields["mode"] = "strict"
    if getattr(args, "proposer", None):
        fields["proposer"] = args.proposer
    if getattr(args, "seed", None) is not None:
        fields["hmm_seed"] = args.seed
    return PipelineConfig(**fields)


def _load_relationships(args, bundle):
    return _load_document(
        args.relations, lambda p: admit_relationships(bundle, load_relationships(p))
    )


def _load_tables(args, bundle, config):
    def load(path):
        rows = read_binlog_file(path, mode=config.mode)
        return ingest_binlog(rows, bundle, mode=config.mode)

    return _load_document(args.binlog, load)


# --- commands ----------------------------------------------------------------


def _cmd_schema_parse(args) -> int:
    from .sources import load_env_descriptor, parse_create_table

    entities = []
    if args.ddl:
        entities.extend(_load_document(args.ddl, lambda p: parse_create_table(read_file(p))))
    if args.calls:
        if args.depth < 1:
            raise ConfigError("--depth must be at least 1")
        entities.extend(_load_document(args.calls, lambda p: _read_calls(p, args.depth)))
    if args.env:
        entities.append(_load_document(
            args.env, lambda p: load_env_descriptor(read_json(p), name=args.env_name)
        ))
    if not entities:
        raise ConfigError("nothing to parse: pass --ddl, --calls, or --env")
    bundle = merge_bundle(entities)
    save_bundle(bundle, args.out)
    print(f"wrote {len(bundle.entities)} entities to {args.out}")
    return 0


def _cmd_relations_infer(args) -> int:
    from .pipeline import run_inference

    config = _config_for(args)
    bundle = _load_document(args.bundle, load_bundle)
    corpus = _load_document(args.logs, lambda p: read_log_file(p, mode=config.mode))
    tables = _load_tables(args, bundle, config)
    report = run_inference(bundle, corpus, tables, config)
    save_relationships(report.relationships, args.out)
    if args.diagram:
        write_json(diagram_to_dict(bundle, report.relationships), args.diagram)
    print(
        f"accepted {len(report.relationships)} of {report.proposed} proposed "
        f"relationships; wrote {args.out}"
    )
    return 0


def _cmd_invariants_generate(args) -> int:
    from .dsl import write_invariant_file
    from .pipeline import run_generation

    config = _config_for(args)
    bundle = _load_document(args.bundle, load_bundle)
    corpus = _load_document(args.logs, lambda p: read_log_file(p, mode=config.mode))
    tables = _load_tables(args, bundle, config)
    relationships = _load_relationships(args, bundle)
    result = run_generation(bundle, corpus, tables, relationships, config)
    write_invariant_file(result.invariants, args.out)
    if args.outcomes:
        write_json(
            [
                {
                    "focal": focal,
                    "candidate": outcome.text,
                    "status": outcome.status,
                    "attempts": outcome.attempts,
                    "reason": outcome.reason,
                    "invariant_id": outcome.invariant.id if outcome.invariant else None,
                }
                for focal, outcome in result.outcomes
            ],
            args.outcomes,
        )
    discarded = sum(1 for _, o in result.outcomes if o.status == "discarded")
    print(
        f"accepted {len(result.invariants)} invariants "
        f"({discarded} discarded, {result.refine_calls} refinement calls); "
        f"wrote {args.out}"
    )
    return 0


def _cmd_detect(args) -> int:
    from .detector import admit_invariants, check_corpus, write_report
    from .dsl import read_invariant_file

    config = _config_for(args)
    bundle = _load_document(args.bundle, load_bundle)
    corpus = _load_document(args.logs, lambda p: read_log_file(p, mode=config.mode))
    tables = _load_tables(args, bundle, config)
    relationships = _load_relationships(args, bundle)
    # vetted here too, so that a refused invariant names its file
    invariants = _load_document(
        args.invariants,
        lambda p: admit_invariants(bundle, relationships, read_invariant_file(p)),
    )
    result = check_corpus(bundle, corpus, tables, relationships, invariants)
    write_report(result, len(invariants), args.out)
    if args.dump_joined:
        _dump_joined(bundle, corpus, tables, relationships, invariants, args.dump_joined)
    print(
        f"checked {result.logs_processed} logs against {len(invariants)} "
        f"invariants: {len(result.violations)} violation(s); wrote {args.out}"
    )
    return 0


def _dump_joined(bundle, corpus, tables, relationships, invariants, path) -> None:
    """Debug dump: one JSON line per call of each API some invariant is
    about, with every binding of that API's relationships. Detection joins
    only the bindings some invariant quantifies over, so this may hold more
    than any check read."""
    from .joins import JoinStores, iter_joined_groups, joined_schema_for

    stores = JoinStores(bundle, corpus, tables)

    def lines():
        # each group is written before the next is requested: its DB
        # bindings are views into the sweeping cursor
        for focal_name in sorted({inv.focal for inv in invariants}):
            schema = joined_schema_for(bundle, focal_name, relationships)
            for group in iter_joined_groups(stores, schema):
                yield json.dumps(
                    {
                        "log_id": group.log_id,
                        "api": focal_name,
                        "focal": group.focal,
                        "bindings": {
                            name: list(rows) for name, rows in group.bindings.items()
                        },
                    },
                    sort_keys=True,
                ) + "\n"

    write_chunks(lines(), path)


def _cmd_eval(args) -> int:
    from .detector import (
        evaluate_metrics,
        flagged_ids,
        metrics_to_dict,
        read_report,
        write_metrics,
    )

    if args.window < 1:
        raise ConfigError("--window must be at least 1")
    flagged = _load_document(args.report, lambda p: flagged_ids(read_report(p)))
    labels = _load_document(args.labels, lambda p: read_label_file(p, mode="strict"))
    unlabelled = sorted(flagged.difference(record.log_id for record in labels))
    if unlabelled:  # a flag no label holds cannot be scored
        raise ApivetError(f"malformed {args.report}: no label holds log_id {unlabelled[0]}")
    metrics = evaluate_metrics(flagged, labels, window_size=args.window)
    write_metrics(metrics, args.out)
    summary = metrics_to_dict(metrics)
    print(
        "tp={tp} fp={fp} tn={tn} fn={fn} precision={precision} "
        "recall={recall}".format(**summary)
    )
    return 0


def _cmd_benchgen(args) -> int:
    from .benchgen import (
        TAMPER_KINDS,
        generate_normal,
        inject_cross_user,
        inject_double_refund,
        inject_field_tamper,
        write_bench,
    )

    bench = generate_normal(
        args.sessions,
        args.seed,
        base_time=args.base_time,
        first_index=args.first_index,
    )
    if args.double_refund:
        bench = inject_double_refund(bench, args.double_refund, args.seed + 1)
    if args.cross_user:
        bench = inject_cross_user(bench, args.cross_user, args.seed + 2)
    if args.tamper:
        kinds = (
            TAMPER_KINDS
            if args.tamper_kinds is None
            else tuple(k for k in args.tamper_kinds.split(",") if k)
        )
        bench = inject_field_tamper(bench, kinds, per_kind=args.tamper, seed=args.seed + 3)
    paths = write_bench(bench, args.out)
    attacks = sum(1 for e in bench.api_events if e["label"] == "attack")
    print(
        f"wrote {len(bench.api_events)} calls ({attacks} attack) across "
        f"{len(bench.sessions)} sessions to {args.out}"
    )
    for name in ("logs", "labels", "binlog", "bundle"):
        print(f"  {name}: {paths[name]}")
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # the docstring's last paragraph is for maintainers, not for --help
    parser = _Parser(prog="apivet", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--version", action="version", version=f"apivet {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument(
        "--workdir", help="resolve all relative paths under this directory"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    schema = sub.add_parser("schema", help="schema bundle operations")
    schema_sub = schema.add_subparsers(dest="subcommand", required=True)
    sp = schema_sub.add_parser("parse", help="build a bundle from DDL and signatures")
    sp.add_argument("--ddl", help="SQL file with CREATE TABLE statements")
    sp.add_argument("--calls", help="JSON file of API signature samples")
    sp.add_argument("--env", help="JSON environment descriptor")
    sp.add_argument("--env-name", default="Env", help="environment entity name")
    sp.add_argument("--depth", type=int, default=3, help="flattening depth limit")
    sp.add_argument("--out", required=True, help="bundle output path")
    sp.set_defaults(func=_cmd_schema_parse)

    relations = sub.add_parser("relations", help="relationship operations")
    relations_sub = relations.add_subparsers(dest="subcommand", required=True)
    ri = relations_sub.add_parser("infer", help="infer and filter relationships")
    _common_inputs(ri)
    _training_options(ri)
    ri.add_argument("--seed", type=int, help="override sequence model training seed")
    ri.add_argument("--out", required=True, help="relationships output path")
    ri.add_argument("--diagram", help="optional diagram JSON output")
    ri.set_defaults(func=_cmd_relations_infer)

    invariants = sub.add_parser("invariants", help="invariant operations")
    invariants_sub = invariants.add_subparsers(dest="subcommand", required=True)
    ig = invariants_sub.add_parser("generate", help="propose and refine invariants")
    _common_inputs(ig)
    _training_options(ig)
    ig.add_argument("--relations", required=True, help="relationships JSON path")
    ig.add_argument("--out", required=True, help="invariant file output path")
    ig.add_argument("--outcomes", help="optional per-candidate outcome JSON")
    ig.set_defaults(func=_cmd_invariants_generate)

    detect = sub.add_parser("detect", help="check a corpus against invariants")
    _common_inputs(detect)
    detect.add_argument("--relations", required=True, help="relationships JSON path")
    detect.add_argument("--invariants", required=True, help="invariant file path")
    detect.add_argument("--out", required=True, help="report output path")
    detect.add_argument(
        "--dump-joined", metavar="PATH", help="debug: write joined groups as JSONL"
    )
    detect.set_defaults(func=_cmd_detect)

    shorthand = sub.add_parser("eval", help="score a report against labels")
    shorthand.add_argument("--report", required=True, help="detection report path")
    shorthand.add_argument("--labels", required=True, help="label sidecar path")
    shorthand.add_argument("--out", required=True, help="metrics output path")
    shorthand.add_argument("--window", type=int, default=20, help="normal window size")
    shorthand.set_defaults(func=_cmd_eval)

    bench = sub.add_parser("benchgen", help="generate a labeled benchmark")
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--sessions", type=int, required=True, help="session count")
    bench.add_argument("--seed", type=int, default=0, help="generation seed")
    bench.add_argument("--base-time", type=int, default=1_700_000_000_000)
    bench.add_argument("--first-index", type=int, default=0)
    bench.add_argument("--double-refund", type=int, default=0, metavar="N")
    bench.add_argument("--cross-user", type=int, default=0, metavar="N")
    bench.add_argument("--tamper", type=int, default=0, metavar="PER_KIND")
    bench.add_argument("--tamper-kinds", help="comma list of tamper kinds")
    bench.set_defaults(func=_cmd_benchgen)

    return parser


def _common_inputs(parser) -> None:
    parser.add_argument("--bundle", required=True, help="schema bundle path")
    parser.add_argument("--logs", required=True, help="log JSONL path")
    parser.add_argument("--binlog", required=True, help="row-change JSONL path")
    parser.add_argument("--config", help="pipeline configuration JSON")
    parser.add_argument("--strict", action="store_true", help="fail on bad input")


def _training_options(parser) -> None:
    parser.add_argument(
        "--proposer", choices=("stub", "remote"), help="override configured proposer"
    )


def main(argv=None) -> int:
    # A command's records are acyclic, so reference counting frees them and
    # a cyclic collection finds next to nothing, yet full and generational
    # passes over a growing heap cost a tenth of a detect run. Pause the
    # collector for the command and give the caller back the state it had;
    # library calls never touch it.
    collecting = gc.isenabled()
    gc.disable()
    previous_dir = None
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if args.workdir:
            previous_dir = os.getcwd()
            try:
                os.chdir(args.workdir)
            except OSError as exc:
                previous_dir = None
                raise ConfigError(f"cannot enter workdir {args.workdir}: {exc}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ProposalError, ExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ApivetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if previous_dir is not None:
            os.chdir(previous_dir)
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
