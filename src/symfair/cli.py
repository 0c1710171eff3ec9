"""Command-line entry point.

Exit codes are stable: 0 success or satisfied, 1 violated / infeasible /
not found / not applicable, 2 file, parse, or option error, 3 search budget
exhausted, 4 internal error (a bug: an unexpected exception, or a constructed
partition that fails its symEF1 check), reported as one line on stderr.
Input errors reach ``main`` as :class:`ParseError` or :class:`OSError`; a bare
``ValueError`` from inside the library is a bug and exits 4.
On success ``solve`` and ``mnw`` write nothing to stdout except a partition in
the n-line file format, so their output pipes straight back into ``check``;
diagnostics (provenance, heuristic stats, welfare, progress) go to stderr.
``color --k`` prints its k color classes, one per line, in the same 1-based
format: a partition that ``check`` accepts only when k equals n.
``solve --strategy=auto`` runs the closed form, the greedy builder and then the
complete search, in that order for every n; the closed form answers every
two-agent instance, and only the complete search can report ``INFEASIBLE``.
``--strategy=coloring`` alone runs the exact coloring, a sufficient condition.

A command loads only the package modules it uses. It looks each engine name up
on this module (``_engines.k_color``); the first lookup of a name takes it from
the package, which imports the name's module, and keeps it here. ``check``
loads ``core`` alone. ``solve`` loads each stage's engine when the stage runs:
``constructive`` (closed form), ``heuristic`` (greedy builder), ``exact``
(complete search; it imports only ``core``) or ``tuples`` (coloring), so no
``auto`` solve loads ``tuples``. ``graph`` and ``color`` load ``tuples``;
``enumerate``, ``mnw`` and ``export-ip`` load ``exact``; ``simulate`` loads
``sim``. The saving is mostly the time to compile a module's source, so it is
smaller where bytecode caches are written and reused.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator, Sequence, TextIO

from . import _HOME, __version__
from .core import (
    BudgetExceededError,
    Instance,
    ParseError,
    Partition,
    SearchLimits,
    first_ef1_violation,
    first_symef1_violation,
    first_symefx_violation,
    format_partition,
    is_balanced,
    is_symef1,
    nash_welfare,
    order_items,
    parse_instance,
    parse_partition,
)

EXIT_OK = 0
EXIT_UNSAT = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

def __getattr__(name: str):
    # PEP 562: runs only for a name not set here, so a test's or a tracer's
    # patch is found first and never overwritten.
    if _HOME.get(name) not in ("constructive", "exact", "heuristic", "tuples"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


# Every engine call goes through this module, so a name's first lookup runs
# ``__getattr__`` and imports its engine. Under ``python -m symfair.cli`` this
# is ``__main__`` itself, not a second copy of the module.
_engines = sys.modules[__name__]


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError:
        print("BUDGET_EXCEEDED")
        return EXIT_BUDGET
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every ``main``.

    ``parse_args`` makes a fresh ``Namespace`` on every call, so no option
    value or handler carries over from one call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="symfair",
        description="Verify and construct partitions of indivisible goods that "
        "every agent accepts under envy-freeness up to one good, whichever "
        "bundle they end up with.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a partition against an instance")
    p.add_argument("instance")
    p.add_argument("partition")
    p.add_argument(
        "--mode", choices=["symef1", "symefx", "ef1", "balanced"], default="symef1"
    )
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("solve", help="construct a symEF1 partition")
    p.add_argument("instance")
    p.add_argument(
        "--strategy",
        choices=["auto", "constructive", "coloring", "heuristic", "exact"],
        default="auto",
    )
    p.add_argument(
        "--order",
        choices=["index", "desc-total-value", "random"],
        default="index",
        help="item order for the heuristic",
    )
    p.add_argument("--seed", type=int, default=None, help="seed for --order=random")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("graph", help="emit the item conflict graph as DOT")
    p.add_argument("instance")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("color", help="exactly k-color the item conflict graph")
    p.add_argument("instance")
    p.add_argument("--k", type=int, required=True)
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_color)

    p = sub.add_parser("enumerate", help="list every distinct symEF1 partition")
    p.add_argument("instance")
    p.add_argument("--force", action="store_true", help="ignore the n^m size guard")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("mnw", help="maximum Nash welfare assignment by brute force")
    p.add_argument("instance")
    p.add_argument("--force", action="store_true", help="ignore the n^m size guard")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_mnw)

    p = sub.add_parser("export-ip", help="write the feasibility program in LP format")
    p.add_argument("instance")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_export_ip)

    p = sub.add_parser("simulate", help="incidence statistics over random instances")
    p.add_argument("--n", required=True, help="agent counts, e.g. 3,4,5")
    p.add_argument("--m", required=True, help="item counts, e.g. 5..10,15")
    p.add_argument("--max-value", required=True, help="maximum item values, e.g. 10,10000")
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="-")
    p.add_argument("--workers", type=int, default=None)
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    defaults = SearchLimits()
    p.add_argument("--node-budget", type=int, default=defaults.node_budget)
    p.add_argument("--time-budget", type=float, default=defaults.time_budget)


@contextmanager
def _input_error() -> Iterator[None]:
    """Report a ValueError from validating command-line input as exit 2.

    Wrap only validation, never a computation: a ValueError from inside the
    library is a bug and must reach ``main`` as one (exit 4).
    """
    try:
        yield
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _limits(args) -> SearchLimits:
    with _input_error():
        return SearchLimits(node_budget=args.node_budget, time_budget=args.time_budget)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_instance(path: str) -> Instance:
    return parse_instance(_read_text(path))


def _read_partition(path: str, inst: Instance) -> Partition:
    return parse_partition(_read_text(path), n=inst.n, m=inst.m)


def _open_out(path: str) -> ContextManager[TextIO]:
    """The ``--out`` target, opened now: stdout for ``-``, else the file, truncated."""
    return nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8")


def _write_out(path: str, text: str) -> None:
    with _open_out(path) as fh:
        fh.write(text)


def _cmd_check(args) -> int:
    inst = _read_instance(args.instance)
    partition = _read_partition(args.partition, inst)
    if args.mode == "balanced":
        if is_balanced(partition):
            print("SATISFIED")
            return EXIT_OK
        sizes = partition.sizes()
        print(f"VIOLATED max_size={max(sizes)} min_size={min(sizes)}")
        return EXIT_UNSAT
    finder = {
        "symef1": first_symef1_violation,
        "symefx": first_symefx_violation,
        "ef1": first_ef1_violation,
    }[args.mode]
    witness = finder(inst, partition)
    if witness is None:
        print("SATISFIED")
        return EXIT_OK
    i, k, l, lhs, rhs = witness
    print(f"VIOLATED i={i + 1} k={k + 1} l={l + 1}: {lhs} < {rhs}")
    return EXIT_UNSAT


def _solve_stage(
    inst: Instance, stage: str, limits: SearchLimits, order: str = "index",
    seed: int | None = None,
) -> tuple[Partition | None, str]:
    """One stage attempt: (partition, status token).

    ``order`` and ``seed`` choose the greedy builder's item order (``order_items``).
    A stage looks up its engine's names only when it runs, so a solve loads no
    engine of a stage it does not reach.
    """
    if stage == "constructive":
        if _engines.detect_groups(inst) is not None:
            partition = _engines.grouped_allocation(inst)
        elif inst.n == 2:
            partition = _engines.two_agent_partition(inst)
        else:
            return None, "NOT_APPLICABLE"
        return partition, "constructive (closed form)"
    if stage == "coloring":
        coloring = _engines.k_color(_engines.build_item_graph(inst), inst.n, limits)
        if coloring is None:
            return None, "NOT_APPLICABLE"
        return _engines.coloring_to_partition(coloring, inst.n), "coloring (sufficient condition)"
    if stage == "heuristic":
        result = _engines.greedy_symef1(inst, order_items(inst, order, seed))
        stats = result.stats
        print(
            f"case1={stats.placed_case1} case2={stats.placed_case2} "
            f"case3={stats.placed_case3}",
            file=sys.stderr,
        )
        if result.partition is None:
            return None, "NOT_FOUND"
        return result.partition, "heuristic (greedy search)"
    outcome = _engines.exact_symef1(inst, limits)
    if outcome.status is _engines.ExactStatus.FOUND:
        return outcome.partition, "exact (complete search)"
    if outcome.status is _engines.ExactStatus.PROVED_INFEASIBLE:
        return None, "INFEASIBLE"
    return None, "BUDGET_EXCEEDED"


# The polynomial stages, then the complete search; the same order for every n.
AUTO_STAGES = ("constructive", "heuristic", "exact")


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    limits = _limits(args)
    stages = AUTO_STAGES if args.strategy == "auto" else (args.strategy,)
    for stage in stages:
        partition, token = _solve_stage(inst, stage, limits, args.order, args.seed)
        if partition is not None:
            _verify(inst, partition, stage)
            print(f"solved by: {token}", file=sys.stderr)
            sys.stdout.write(format_partition(partition))
            return EXIT_OK
    print(token)
    return EXIT_BUDGET if token == "BUDGET_EXCEEDED" else EXIT_UNSAT


def _verify(inst: Instance, partition: Partition, stage: str) -> None:
    """Refuse to print a stage's partition unless it passes the symEF1 check.

    An explicit test rather than an ``assert``, so it also runs under ``python -O``.
    """
    try:
        ok = is_symef1(inst, partition)
    except ValueError:  # wrong bundle count or item cover
        ok = False
    if not ok:
        raise RuntimeError(f"the {stage} stage returned a partition that is not symEF1")


def _cmd_graph(args) -> int:
    inst = _read_instance(args.instance)
    _write_out(args.out, _engines.graph_to_dot(_engines.build_item_graph(inst)))
    return EXIT_OK


def _cmd_color(args) -> int:
    if args.k < 1:
        raise ParseError("--k must be at least 1")
    limits = _limits(args)
    inst = _read_instance(args.instance)
    coloring = _engines.k_color(_engines.build_item_graph(inst), args.k, limits)
    if coloring is None:
        print(f"INFEASIBLE k={args.k}")
        return EXIT_UNSAT
    # Bundles for the used colors only (one if m = 0), then blank lines in chunks.
    used = max(coloring, default=1)
    sys.stdout.write(format_partition(_engines.coloring_to_partition(coloring, used)))
    for start in range(used, args.k, 65536):
        sys.stdout.write("\n" * min(65536, args.k - start))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    inst = _read_instance(args.instance)
    partitions = _engines.enumerate_symef1(inst, _limits(args), force=args.force)
    rendered = sorted(_render_bundles(p) for p in partitions)
    for line in rendered:
        print(line)
    print(f"count={len(rendered)}", file=sys.stderr)
    return EXIT_OK


def _cmd_mnw(args) -> int:
    inst = _read_instance(args.instance)
    assignment = _engines.max_nash_welfare(inst, _limits(args), force=args.force)
    sys.stdout.write(format_partition(assignment.partition))
    print(f"nash_welfare={nash_welfare(inst, assignment)}", file=sys.stderr)
    return EXIT_OK


def _cmd_export_ip(args) -> int:
    inst = _read_instance(args.instance)
    _write_out(args.out, _engines.export_ip(inst))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .sim import SimConfig, emit_csv, run_simulation

    if args.workers is not None and args.workers < 1:
        raise ParseError("--workers must be at least 1")
    with _input_error():
        cfg = SimConfig(
            n_list=_parse_int_list(args.n),
            m_list=_parse_int_list(args.m),
            M_list=_parse_int_list(args.max_value),
            replications=args.reps,
            master_seed=args.seed,
            limits=_limits(args),
        )
    # Open --out before the first cell, so a bad path exits 2 before a long run.
    with _open_out(args.out) as fh:
        reports = run_simulation(
            cfg, workers=args.workers, progress=lambda msg: print(msg, file=sys.stderr)
        )
        fh.write(emit_csv(reports))
    return EXIT_OK


def _render_bundles(partition: Partition) -> str:
    """The bundles on one line, ' | ' between them and '-' for an empty one."""
    return " | ".join(line or "-" for line in format_partition(partition).splitlines())


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers with inclusive a..b ranges, a <= b, e.g. '5..10,15'."""
    values: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, hi = map(int, chunk.split("..", 1))
            if hi < lo:
                raise ValueError(f"reversed range {chunk!r} in integer list {text!r}")
            values.extend(range(lo, hi + 1))
        else:
            values.append(int(chunk))
    if not values:
        raise ValueError(f"empty integer list: {text!r}")
    return tuple(values)


if __name__ == "__main__":
    sys.exit(main())
