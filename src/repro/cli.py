"""Command-line interface for the probabilistic XML warehouse.

The CLI covers the read-only operations a user typically wants against a
serialized prob-tree document (see :mod:`repro.xmlio` for the format):

.. code-block:: console

    $ python -m repro.cli worlds warehouse.xml --top 3
    $ python -m repro.cli query warehouse.xml "/catalog/movie/title"
    $ python -m repro.cli probability warehouse.xml "//movie"
    $ python -m repro.cli stats warehouse.xml
    $ python -m repro.cli validate warehouse.xml --dtd "catalog: movie*, source?"
    $ python -m repro.cli serve warehouse.xml --shards 4 --port 8080

``serve`` starts the process-sharded service (:mod:`repro.service`): shard
worker subprocesses behind a scatter/gather router and an asyncio JSON
front-end; ``shard`` is the worker entry point the router spawns.

DTDs are given in a compact textual syntax, one rule per ``;``-separated
segment: ``parent: child*, child2?, child3+, child4`` (the bare form means
"exactly one").
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path
from typing import List, Optional

from repro.core.context import AUTO_COLUMNAR_NODES, ExecutionContext
from repro.core.engine import ProbXMLWarehouse
from repro.formulas.sampling import PricingPolicy
from repro.dtd.dtd import DTD, ChildConstraint
from repro.utils.errors import DTDError, ProbXMLError
from repro.xmlio.parse import probtree_from_xml


def parse_dtd_spec(spec: str) -> DTD:
    """Parse the compact DTD syntax used by the CLI.

    ``"catalog: movie*, source?; movie: title"`` means: a ``catalog`` node may
    have any number of ``movie`` children and at most one ``source`` child; a
    ``movie`` node has exactly one ``title`` child.
    """
    dtd = DTD()
    for rule in spec.split(";"):
        rule = rule.strip()
        if not rule:
            continue
        if ":" not in rule:
            raise DTDError(f"malformed DTD rule (missing ':'): {rule!r}")
        parent, children = rule.split(":", 1)
        parent = parent.strip()
        if not parent:
            raise DTDError(f"malformed DTD rule (empty parent): {rule!r}")
        for item in children.split(","):
            item = item.strip()
            if not item:
                continue
            if item.endswith("*"):
                constraint = ChildConstraint.any_number(item[:-1].strip())
            elif item.endswith("?"):
                constraint = ChildConstraint.optional(item[:-1].strip())
            elif item.endswith("+"):
                constraint = ChildConstraint.at_least_one(item[:-1].strip())
            else:
                constraint = ChildConstraint.exactly(item, 1)
            dtd.add_constraint(parent, constraint)
    if not dtd.domain():
        raise DTDError(f"the DTD specification {spec!r} defines no rule")
    return dtd


def _load(arguments: argparse.Namespace) -> ProbXMLWarehouse:
    """Build the warehouse for one CLI invocation.

    All commands run through one :class:`ExecutionContext` carrying the
    ``--engine`` / ``--matcher`` policy; ``--stats`` prints its counters
    after the command so cache behaviour is observable from the shell.
    """
    text = Path(arguments.document).read_text()
    context = ExecutionContext(
        engine=arguments.engine,
        matcher=arguments.matcher,
        max_cached_answers=getattr(arguments, "max_cached_answers", None),
        pricing=_pricing_policy(arguments),
    )
    return ProbXMLWarehouse(
        probtree_from_xml(text),
        context=context,
        isolation=getattr(arguments, "isolation", "snapshot"),
    )


def _pricing_policy(arguments: argparse.Namespace) -> PricingPolicy:
    """The pricing policy of one invocation (defaults where flags are absent)."""
    return PricingPolicy().merged(
        max_expansions=getattr(arguments, "max_expansions", None),
        epsilon=getattr(arguments, "epsilon", None),
        confidence=getattr(arguments, "confidence", None),
        max_samples=getattr(arguments, "max_samples", None),
        seed=getattr(arguments, "sample_seed", None),
    )


def _maybe_print_stats(arguments: argparse.Namespace, warehouse, output) -> None:
    if getattr(arguments, "stats", False):
        for key, value in warehouse.stats.as_dict().items():
            print(f"stats.{key}: {value}", file=output)


def _command_stats(arguments: argparse.Namespace, output) -> int:
    warehouse = _load(arguments)
    probtree = warehouse.probtree
    print(f"nodes          : {probtree.node_count()}", file=output)
    print(f"literals       : {probtree.literal_count()}", file=output)
    print(f"size |T|       : {probtree.size()}", file=output)
    print(f"events declared: {len(probtree.distribution)}", file=output)
    print(f"events used    : {len(probtree.used_events())}", file=output)
    _maybe_print_stats(arguments, warehouse, output)
    return 0


def _command_worlds(arguments: argparse.Namespace, output) -> int:
    warehouse = _load(arguments)
    for world, probability in warehouse.most_probable_worlds(arguments.top):
        print(f"p = {probability:.6f}  {world.to_nested()}", file=output)
    _maybe_print_stats(arguments, warehouse, output)
    return 0


def _command_query(arguments: argparse.Namespace, output) -> int:
    warehouse = _load(arguments)
    if arguments.top is not None:
        answers = warehouse.top_answers(arguments.path, count=arguments.top)
    else:
        answers = warehouse.query(arguments.path)
    if not answers:
        print("no answers", file=output)
        return 1
    for answer in answers:
        print(f"p = {answer.probability:.6f}  {answer.tree.to_nested()}", file=output)
    _maybe_print_stats(arguments, warehouse, output)
    return 0


def _command_probability(arguments: argparse.Namespace, output) -> int:
    warehouse = _load(arguments)
    if arguments.engine in ("sample", "auto-sample"):
        estimate = warehouse.probability_anytime(arguments.path)
        print(f"{estimate.estimate:.6f}", file=output)
        if estimate.exact:
            print("exact (small formula: no sampling needed)", file=output)
        else:
            level = round(estimate.confidence * 100)
            print(
                f"{level}% CI [{estimate.low:.6f}; {estimate.high:.6f}] "
                f"from {estimate.samples} samples",
                file=output,
            )
    else:
        probability = warehouse.probability(arguments.path)
        print(f"{probability:.6f}", file=output)
    _maybe_print_stats(arguments, warehouse, output)
    return 0


def _command_validate(arguments: argparse.Namespace, output) -> int:
    warehouse = _load(arguments)
    dtd = parse_dtd_spec(arguments.dtd)
    satisfiable = warehouse.dtd_satisfiable(dtd)
    valid = warehouse.dtd_valid(dtd)
    probability = warehouse.dtd_probability(dtd)
    print(f"satisfiable: {satisfiable}", file=output)
    print(f"valid      : {valid}", file=output)
    print(f"P(valid)   : {probability:.6f}", file=output)
    _maybe_print_stats(arguments, warehouse, output)
    if valid:
        return 0
    return 0 if satisfiable else 1


def _command_shard(arguments: argparse.Namespace, output) -> int:
    """Serve one shard over stdin/stdout (spawned by the service router)."""
    from repro.service.worker import worker_main

    return worker_main()


def _command_serve(arguments: argparse.Namespace, output) -> int:
    """Run the sharded warehouse service with an HTTP JSON front-end."""
    from repro.service.http import ServiceFrontend
    from repro.service.router import ShardedWarehouse

    documents = []
    for path in arguments.documents:
        text = Path(path).read_text()
        documents.append((Path(path).stem, probtree_from_xml(text)))
    with ShardedWarehouse(
        shards=arguments.shards,
        engine=arguments.engine,
        matcher=arguments.matcher,
        max_cached_answers=getattr(arguments, "max_cached_answers", None),
        pricing=_pricing_policy(arguments),
        formula_pool_node_limit=arguments.formula_pool_node_limit,
        isolation=getattr(arguments, "isolation", "snapshot"),
    ) as warehouse:
        for name, probtree in documents:
            warehouse.add_document(name, probtree)
        frontend = ServiceFrontend(
            warehouse, host=arguments.host, port=arguments.port
        ).start()
        print(
            f"serving {len(documents)} document(s) on "
            f"{arguments.shards} shard(s) at "
            f"http://{frontend.host}:{frontend.port}",
            file=output,
        )
        output.flush()
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            frontend.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Query and inspect probabilistic XML (prob-tree) documents.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--engine",
        choices=("formula", "enumerate", "sample", "auto-sample"),
        default="formula",
        help="probability engine: 'formula' (Shannon expansion over event "
        "formulas, the default; bounded by --max-expansions), 'enumerate' "
        "(materialize possible worlds), 'sample' (seeded anytime "
        "Monte-Carlo estimates with confidence intervals) or 'auto-sample' "
        "(budgeted-exact first, degrading to sampling on a tripped budget)",
    )
    common.add_argument(
        "--matcher",
        choices=("naive",),
        default=None,
        help="tree-pattern matcher: omit for the fast path (compiled plans "
        "over a structural index, or vectorized interval merges over a "
        f"flat-array snapshot for documents of {AUTO_COLUMNAR_NODES} nodes "
        "and more when numpy is installed), or 'naive' for the direct "
        "backtracking oracle",
    )
    common.add_argument(
        "--stats",
        action="store_true",
        help="print the execution context's cache/plan counters after the command",
    )
    common.add_argument(
        "--max-cached-answers",
        type=int,
        default=None,
        metavar="N",
        help="per-document LRU bound on cached answer entries "
        "(default: the context's generous built-in bound)",
    )
    common.add_argument(
        "--max-expansions",
        type=int,
        default=None,
        metavar="N",
        help="Shannon-expansion budget of the exact engine; past it the "
        "command fails with a typed BudgetExceededError (exit 2) instead of "
        "hanging, or falls back to sampling under --engine auto-sample "
        "(default: unbounded for 'formula', a generous built-in bound for "
        "the 'auto-sample' exact attempt)",
    )
    common.add_argument(
        "--epsilon",
        type=float,
        default=None,
        metavar="E",
        help="target confidence-interval half-width of the sampling engines "
        "(default: 0.005, i.e. a 0.01-wide interval)",
    )
    common.add_argument(
        "--confidence",
        type=float,
        default=None,
        metavar="C",
        help="confidence level of the sampling engines' intervals (default: 0.95)",
    )
    common.add_argument(
        "--max-samples",
        type=int,
        default=None,
        metavar="N",
        help="cap on Monte-Carlo worlds drawn per estimate (default: 200000)",
    )
    common.add_argument(
        "--sample-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="Monte-Carlo seed; estimates are deterministic per seed (default: 0)",
    )
    common.add_argument(
        "--isolation",
        choices=("snapshot", "lock"),
        default="snapshot",
        help=(
            "warehouse concurrency mode: 'snapshot' pins an MVCC view per "
            "read, 'lock' serializes everything behind one gate (default: "
            "snapshot)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats = subparsers.add_parser(
        "stats", help="size statistics of a prob-tree document", parents=[common]
    )
    stats.add_argument("document", help="path to a <probtree> XML file")
    stats.set_defaults(handler=_command_stats)

    worlds = subparsers.add_parser(
        "worlds", help="most probable possible worlds", parents=[common]
    )
    worlds.add_argument("document")
    worlds.add_argument("--top", type=int, default=3, help="how many worlds to show")
    worlds.set_defaults(handler=_command_worlds)

    query = subparsers.add_parser("query", help="evaluate a path query", parents=[common])
    query.add_argument("document")
    query.add_argument("path", help="path query, e.g. /catalog/movie//title")
    query.add_argument("--top", type=int, default=None, help="rank and keep the top K answers")
    query.set_defaults(handler=_command_query)

    probability = subparsers.add_parser(
        "probability",
        help="probability that a path query has an answer",
        parents=[common],
    )
    probability.add_argument("document")
    probability.add_argument("path")
    probability.set_defaults(handler=_command_probability)

    validate = subparsers.add_parser(
        "validate", help="check the document against a DTD", parents=[common]
    )
    validate.add_argument("document")
    validate.add_argument("--dtd", required=True, help='e.g. "catalog: movie*, source?"')
    validate.set_defaults(handler=_command_validate)

    serve = subparsers.add_parser(
        "serve",
        help="serve documents over HTTP via the process-sharded service",
        parents=[common],
    )
    serve.add_argument(
        "documents", nargs="+", help="one or more <probtree> XML files"
    )
    serve.add_argument(
        "--shards", type=int, default=4, help="shard worker processes (default: 4)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 for ephemeral)"
    )
    serve.add_argument(
        "--formula-pool-node-limit",
        type=int,
        default=None,
        metavar="N",
        help="per-worker formula-pool node bound; past it a worker runs the "
        "mark-and-sweep pool GC and only restarts its formula layer if the "
        "pool is still oversized afterwards (default: the library bound)",
    )
    serve.set_defaults(handler=_command_serve)

    shard = subparsers.add_parser(
        "shard",
        help="serve one shard over stdin/stdout (used by the service router)",
    )
    shard.set_defaults(handler=_command_shard)

    return parser


def main(argv: Optional[List[str]] = None, output=None) -> int:
    """CLI entry point; returns the process exit code."""
    output = output if output is not None else sys.stdout
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments, output)
    except (ProbXMLError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
