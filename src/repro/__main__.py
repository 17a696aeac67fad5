"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``formats`` — list the format library (Table 1 descriptors),
* ``show FORMAT`` — print one descriptor in Table 1 notation,
* ``synthesize SRC DST`` — print the generated inspector (Python and,
  with ``--c``, the C unit the C tier compiles) plus the synthesis
  decision log; ``--backend numpy`` prints the vectorized lowering,
* ``convert IN.mtx OUT.mtx --to FORMAT`` — convert a Matrix Market file
  through a synthesized inspector (multi-step planning with ``--plan``),
* ``plan SRC DST`` — print the planner's cheapest conversion route with
  per-step predicted costs; ``--matrix FILE.mtx`` switches to
  matrix-aware planning (profiled stats + learned costs) and also runs
  the plan, reporting measured seconds and prediction error per step;
  ``--tune`` additionally auto-tunes the destination family's
  parameterization (BCSR block size, DIA search strategy),
* ``kernel FORMAT KIND`` — print a generated executor kernel,
* ``passes`` — list the registered optimization passes (canonical order,
  opt-in flags) and lowering backends with their capability declarations;
  any listed pass name is valid for ``--disable-pass``,
* ``fuzz`` — property-based differential fuzzing: adversarial and
  malformed inputs through every synthesizable format pair x backend x
  optimize flag, with minimal-case shrinking and a JSON failure report
  (``--trace`` adds per-combo span attribution); a run left with no
  available backend exits 1,
* ``trace SRC DST`` — run one traced conversion on a random matrix and
  print its span tree (synthesis phases, per-statement runtime timing);
  ``--out DIR`` writes Chrome-trace / JSONL / Prometheus artifacts;
  ``trace --id TRACE_ID --addr HOST:PORT`` instead fetches a recorded
  request trace from a live daemon's flight recorder (``--format
  tree|json|chrome``),
* ``stats`` — print the unified telemetry snapshot (``--format
  json|prom|table``); the same numbers as the ``REPRO_CACHE_STATS_FILE``
  dump; ``--addr HOST:PORT`` / ``--unix PATH`` scrapes a live daemon's
  ``/stats`` instead,
* ``cache warm`` — build every planner pair's C library (under
  ``$REPRO_CBACKEND_DIR``) as its first call would, so a later process
  compiles nothing; ``--jobs N`` builds in N worker processes,
* ``serve`` — run the conversion-as-a-service daemon: a JSON HTTP API
  (TCP or ``--unix`` socket) with validation-gated admission, request
  coalescing on synthesis fingerprints, a bounded worker pool,
  request-scoped tracing with a flight recorder (``/debug/requests``,
  ``/debug/trace/<id>``, ``/debug/slowlog``), a live Prometheus
  ``/metrics`` endpoint with trace exemplars, and ``--access-log PATH``
  structured JSONL request logging,
* ``tail ADDR`` — follow a live daemon's request log (trace id, pair,
  backend, cache outcome, latency per request).

``--profile`` (any command) prints the telemetry table of ``repro stats``
to stderr on exit: synthesis time per phase (``repro_synthesis_seconds``,
labelled compose/solve/build/optimize/codegen, plus ``total`` per
cache-missing synthesis) and per optimization pass, IR memo hits and
misses per operation, inspector-cache hits and misses, and the span
aggregates when tracing.

For the paper's evaluation sweep use ``python benchmarks/run_experiments.py``.
"""

from __future__ import annotations

import argparse
import sys

from repro import get_format, all_formats
from repro.synthesis import synthesize


def cmd_formats(args) -> int:
    if getattr(args, "formats_command", None) == "compose":
        return _cmd_formats_compose(args)
    show_levels = bool(getattr(args, "levels", False))
    for fmt in all_formats():
        if show_levels:
            spec = fmt.levels.spec() if fmt.levels is not None else "-"
            print(f"{fmt.name:8s} rank {fmt.rank}  [{spec}]  "
                  f"{fmt.description}")
        else:
            print(f"{fmt.name:8s} rank {fmt.rank}  {fmt.description}")
    return 0


def _cmd_formats_compose(args) -> int:
    from repro.formats import parse_spec
    from repro.formats.levels import LevelError

    try:
        comp = parse_spec(args.spec, name=args.name)
        fmt = comp.build()
    except LevelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.save:
        from repro.io import save_descriptor

        save_descriptor(fmt, args.save)
        print(f"wrote {args.save}", file=sys.stderr)
    if args.json:
        import json

        from repro.io import descriptor_to_dict

        print(json.dumps(descriptor_to_dict(fmt), indent=2))
    else:
        print(fmt.display())
    return 0


def cmd_show(args) -> int:
    from repro.io import descriptor_to_dict, resolve_format

    fmt = resolve_format(args.format)
    if args.json:
        import json

        print(json.dumps(descriptor_to_dict(fmt), indent=2))
    else:
        print(fmt.display())
    return 0


#: The heading ``--c`` prints above a program's C listing.
C_LABEL = (
    "/* the C unit the c tier compiles, without its runtime header "
    "(repro.spf.codegen.c_emit.RUNTIME_H) */"
)


def cmd_synthesize(args) -> int:
    from repro.io import resolve_format

    conv = synthesize(
        resolve_format(args.src),
        resolve_format(args.dst),
        optimize=not args.no_optimize,
        binary_search=args.binary_search,
        backend=args.backend,
    )
    print(conv.source)
    if args.c:
        print(C_LABEL)
        print(conv.c_source)
    if args.notes:
        print("# synthesis decisions:")
        for note in conv.notes:
            print("#  -", note)
    return 0


def cmd_convert(args) -> int:
    from repro.io import read_matrix, write_matrix
    from repro import convert
    from repro.planner import default_planner

    matrix = read_matrix(args.input)
    print(f"read {matrix} from {args.input}", file=sys.stderr)
    # Files carry no sortedness promise: the gate names the order it
    # finds (assume_sorted=None), so unsorted input routes through the
    # sorting COO descriptor instead of being rejected.
    disabled = tuple(args.disable_pass)
    try:
        if args.plan:
            from repro.verify import gate

            if disabled:
                from repro.planner import ConversionPlanner

                planner = ConversionPlanner(
                    backend=args.backend, disabled_passes=disabled
                )
            else:
                planner = default_planner(args.backend)
            src, _ = gate.check_input(
                matrix, level=args.validate, assume_sorted=None
            )
            plan = planner.plan(src, args.to)
            print(f"plan: {plan}", file=sys.stderr)
            result, _ = planner.execute_plan(
                plan, matrix, validate=args.validate
            )
        else:
            result = convert(
                matrix,
                args.to,
                binary_search=args.binary_search,
                backend=args.backend,
                assume_sorted=None,
                disabled_passes=disabled,
                validate=args.validate,
            )
    except ValueError as exc:
        # Unknown --disable-pass names surface here with the registered
        # pass list already in the message.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verify:
        from repro.errors import ValidationError

        try:
            result.check_against_dense(matrix)
        except ValidationError as exc:
            print(f"VERIFICATION FAILED: {exc}", file=sys.stderr)
            return 1
        print("verified against the input's stored entries",
              file=sys.stderr)
    # Persist the result's stored entries as sorted COO coordinates.
    write_matrix(result.sorted_lexicographic(), args.output,
                 comment=f"converted to {args.to} by repro")
    print(f"wrote {args.output} ({result})", file=sys.stderr)
    return 0


def _stage_matrix(matrix, src: str):
    """Re-materialize a read matrix as a ``src``-format container.

    Assembled from the COO's entries by the format's composition —
    independent of the synthesized conversions the plan will exercise.
    """
    from repro.formats.bindings import assemble_container
    from repro.runtime import container_class

    src = src.upper()
    if src == "COO":
        return matrix
    cls = container_class(src)
    if cls is None:
        raise ValueError(f"cannot stage a matrix as source format {src!r}")
    return assemble_container(cls, matrix, format_name=src)


def cmd_plan(args) -> int:
    import json

    from repro.planner import ConversionPlanner, matrix_stats

    src, dst = args.src.upper(), args.to.upper()
    planner = ConversionPlanner(backend=args.backend)
    payload: dict = {
        "schema": "repro-plan/1",
        "src": src,
        "dst": dst,
        "backend": planner.backend,
        "matrix_aware": bool(args.matrix),
    }

    container = None
    stats = None
    if args.matrix:
        from repro.io import read_matrix

        matrix = read_matrix(args.matrix)
        print(f"read {matrix} from {args.matrix}", file=sys.stderr)
        container = _stage_matrix(matrix, src)
        stats = matrix_stats(container)
        payload["stats"] = stats.to_dict()

    if args.tune:
        if container is None:
            print("error: --tune requires --matrix", file=sys.stderr)
            return 2
        from repro.planner.tune import TUNABLE, TuneError, tune

        family = dst.rstrip("0123456789")
        if family not in TUNABLE:
            print(f"error: destination {dst} is not tunable "
                  f"(tunable families: {', '.join(TUNABLE)})",
                  file=sys.stderr)
            return 2
        try:
            tuned = tune(
                container, family,
                backend=args.backend,
                store=planner.cost_store,
                stats=stats,
            )
        except TuneError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        payload["tune"] = tuned.to_dict()
        dst = tuned.best.candidate.dst
        payload["dst"] = dst

    plan = planner.plan(src, dst, stats=stats)
    payload["route"] = list(plan.formats)
    payload["steps"] = [
        {"src": s.src, "dst": s.dst, "predicted": s.cost}
        for s in plan.steps
    ]
    payload["total_predicted"] = plan.total_cost

    if container is not None:
        _, timings = planner.execute_plan(
            plan, container, validate=args.validate, original=container
        )
        calibration = planner.cost_store.calibration()
        total_seconds = sum(t.seconds for t in timings)
        for entry, timing in zip(payload["steps"], timings):
            entry["seconds"] = timing.seconds
            if calibration is not None and timing.seconds > 0:
                entry["prediction_error"] = (
                    timing.predicted * calibration - timing.seconds
                ) / timing.seconds
        payload["total_seconds"] = total_seconds
        payload["calibration"] = calibration

    if args.json:
        print(json.dumps(payload, indent=2))
        return 0

    if "tune" in payload:
        best = payload["tune"]["best"]
        print(f"tuned {payload['tune']['family']}: {best['label']} "
              f"(predicted {best['predicted']:.3g}"
              + (f", measured {best['seconds'] * 1e3:.3f} ms"
                 if best["seconds"] is not None else "")
              + (", learned" if best["learned"] else "")
              + ")")
        for cand in payload["tune"]["candidates"][1:]:
            measured = (
                f"{cand['seconds'] * 1e3:.3f} ms" if cand["seconds"]
                is not None else "unmeasured"
            )
            print(f"  also ran: {cand['label']:20s} "
                  f"predicted {cand['predicted']:<12.4g} {measured}")
    mode = "matrix-aware" if payload["matrix_aware"] else "structural"
    print(f"plan ({mode}): {' -> '.join(payload['route'])}   "
          f"total predicted {payload['total_predicted']:.4g}")
    for entry in payload["steps"]:
        line = (f"  {entry['src']:6s} -> {entry['dst']:6s} "
                f"predicted {entry['predicted']:<12.4g}")
        if "seconds" in entry:
            line += f" measured {entry['seconds'] * 1e3:8.3f} ms"
            if "prediction_error" in entry:
                line += f"  prediction error {entry['prediction_error']:+.0%}"
        print(line)
    if "total_seconds" in payload:
        print(f"  total measured {payload['total_seconds'] * 1e3:.3f} ms")
    return 0


def cmd_passes(args) -> int:
    from repro.backends import all_backends
    from repro.pipeline import PASSES

    if args.json:
        import json

        print(json.dumps({
            "passes": [p.describe() for p in PASSES.passes()],
            "backends": [b.describe() for b in all_backends()],
        }, indent=2))
        return 0
    print("optimization passes (canonical order):")
    for p in PASSES.passes():
        flag = "opt-in " if p.opt_in else "default"
        print(f"  {p.order:4d}  {p.name:16s} [{flag}] {p.description}")
    print("lowering backends:")
    for b in all_backends():
        caps = b.capabilities
        ranks = ",".join(str(r) for r in caps.ranks)
        strategies = ",".join(caps.strategies) or "-"
        print(f"  {b.name:8s} ranks={ranks:5s} "
              f"vectorized={str(caps.vectorized).lower():5s} "
              f"strategies={strategies}")
        print(f"           {b.description}")
    return 0


def cmd_kernel(args) -> int:
    from repro.kernels import synthesize_kernel

    kernel = synthesize_kernel(get_format(args.format), args.kind)
    print(kernel.source)
    if args.c:
        print(C_LABEL)
        print(kernel.c_source)
    return 0


def cmd_fuzz(args) -> int:
    from repro.verify import fuzz, fuzz_random_formats

    from repro.backends import backend_names

    if args.backend == "both":
        backends = tuple(backend_names())
    else:
        backends = tuple(
            b.strip() for b in args.backend.split(",") if b.strip()
        )
        unknown = sorted(set(backends) - set(backend_names()))
        if unknown:
            print(
                f"error: unknown backend(s) {', '.join(unknown)}; "
                f"registered: {', '.join(backend_names())}",
                file=sys.stderr,
            )
            return 2
    optimize_levels = {
        "both": (True, False), "on": (True,), "off": (False,)
    }[args.optimize]
    ranks = {"both": (2, 3), "2": (2,), "3": (3,)}[args.rank]
    if args.random_formats:
        # --cases counts random compositions here, each fuzzed in every
        # synthesizable direction on every backend and optimize level.
        report = fuzz_random_formats(
            count=200 if args.cases is None else args.cases,
            seed=args.seed,
            backends=backends,
            optimize_levels=optimize_levels,
            max_failures=args.max_failures,
        )
    else:
        report = fuzz(
            cases=args.cases,
            seed=args.seed,
            backends=backends,
            optimize_levels=optimize_levels,
            ranks=ranks,
            shrink=not args.no_shrink,
            max_failures=args.max_failures,
            trace=True if args.trace else None,
        )
    print(report.summary())
    if args.report:
        import json

        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote failure report to {args.report}", file=sys.stderr)
    return 0 if report.ok else 1


def _serve_client(args):
    """A ServeClient for ``--addr``/``--unix`` flags, or None."""
    from repro.serve import ServeClient, parse_address

    if getattr(args, "unix", None):
        return ServeClient(args.unix)
    if getattr(args, "addr", None):
        return ServeClient(parse_address(args.addr))
    return None


def _render_remote_tree(node: dict, indent: int = 0) -> str:
    """Render a ``/debug/trace/<id>`` span-tree document like
    :meth:`repro.obs.Span.render` (same alignment, remote data)."""
    attrs = ", ".join(
        f"{k}={v}" for k, v in sorted(node.get("attrs", {}).items())
    )
    thread = node.get("thread")
    if thread:
        attrs = f"thread={thread}" + (f", {attrs}" if attrs else "")
    suffix = f"  [{attrs}]" if attrs else ""
    lines = [
        f"{'  ' * indent}{node['name']:<{max(1, 44 - 2 * indent)}s}"
        f"{node.get('dur_us', 0.0) / 1e3:10.3f} ms{suffix}"
    ]
    for child in node.get("children", ()):
        lines.append(_render_remote_tree(child, indent + 1))
    return "\n".join(lines)


def _cmd_trace_remote(args) -> int:
    import json

    from repro.serve import ServeError

    client = _serve_client(args)
    if client is None:
        print("error: --id needs --addr HOST:PORT or --unix PATH",
              file=sys.stderr)
        return 2
    try:
        doc = client.debug_trace(
            args.id, format="chrome" if args.format == "chrome" else None
        )
    except (ServeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "chrome":
        print(json.dumps(doc, indent=1))
    elif args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        request = doc.get("request", {})
        print(
            f"# trace {doc.get('trace_id', args.id)}: "
            f"{request.get('pair', '')} status {request.get('status')} "
            f"{request.get('seconds', 0.0) * 1e3:.3f} ms "
            f"cache={request.get('cache', '') or '-'}",
            file=sys.stderr,
        )
        print(_render_remote_tree(doc["root"]))
    return 0


def cmd_trace(args) -> int:
    import repro.obs as obs
    from repro import convert
    from repro.datagen import random_uniform
    from repro.planner import convert_via_plan
    from repro.synthesis import clear_memo

    if args.id:
        return _cmd_trace_remote(args)
    if not args.src or not args.dst:
        print("error: trace needs SRC DST (or --id TRACE_ID with "
              "--addr/--unix)", file=sys.stderr)
        return 2
    matrix = random_uniform(
        args.rows, args.cols, args.nnz, seed=args.seed
    )
    src = args.src.upper()
    if src not in ("COO", "SCOO"):
        # Stage the requested source container without polluting the trace.
        matrix = convert_via_plan(
            matrix, src, backend=args.backend, trace=False
        )
    # The trace exists to show the synthesis stages, so force a live
    # synthesis: a memo hit would replace the compose/build/per-pass spans
    # with a bare cache.lookup span.
    clear_memo()
    try:
        result = convert(
            matrix, args.dst.upper(), backend=args.backend,
            validate=args.validate, trace=True,
            disabled_passes=tuple(args.disable_pass),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# traced {matrix.__class__.__name__} -> {result}",
          file=sys.stderr)
    for root in obs.TRACER.finished_roots():
        print(root.render())
    if args.out:
        paths = obs.write_all(args.out)
        for kind, path in sorted(paths.items()):
            print(f"wrote {kind}: {path}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    import json

    import repro.obs as obs

    client = _serve_client(args)
    if client is not None:
        from repro.serve import ServeError

        try:
            snapshot = client.stats()
        except (ServeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    elif args.input:
        with open(args.input, encoding="utf-8") as fh:
            snapshot = json.load(fh)
    else:
        snapshot = obs.unified_snapshot()
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.format == "prom":
        print(obs.prometheus_text(snapshot), end="")
    else:  # table
        print(obs.table_text(snapshot))
    return 0


def cmd_cache(args) -> int:
    from repro.synthesis import warm

    summary = warm(jobs=args.jobs)
    print(
        f"warmed {summary['synthesized']} conversions "
        f"({summary['unsynthesizable']} pairs have no direct synthesis)",
        file=sys.stderr,
    )
    if summary["unbuilt"]:
        print(f"built no C libraries: {summary['unbuilt']}",
              file=sys.stderr)
    return 0


def cmd_tail(args) -> int:
    """Follow a live daemon's recent-request table (``repro tail``)."""
    import datetime
    import time as _time

    from repro.serve import ServeClient, ServeError, parse_address

    try:
        client = ServeClient(parse_address(args.addr))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    last_ts = 0.0
    while True:
        try:
            doc = client.debug_requests(limit=args.limit)
        except (ServeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # /debug/requests is newest-first; print oldest-first, only rows
        # we have not shown yet.
        for row in reversed(doc.get("requests", [])):
            if row["ts"] <= last_ts:
                continue
            last_ts = row["ts"]
            stamp = datetime.datetime.fromtimestamp(
                row["ts"]
            ).strftime("%H:%M:%S")
            flag = f"  [{row['reason']}]" if row.get("reason") else ""
            what = row.get("pair") or row.get("endpoint", "")
            print(
                f"{stamp} {row['trace_id']:<16s} {row['status']} "
                f"{what:<14s} {row.get('backend', ''):<7s} "
                f"{row.get('cache', '') or '-':<10s} "
                f"{row['seconds'] * 1e3:9.3f} ms{flag}"
            )
        if args.once:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_serve(args) -> int:
    from repro.serve import ConversionServer

    server = ConversionServer(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        workers=args.workers,
        backlog=args.backlog,
        backend=args.backend,
        validate=args.validate,
        record=not args.no_record,
        slow_ms=args.slow_ms,
        access_log=args.access_log,
    )
    # Background-start first so the *bound* address (port 0 = ephemeral)
    # is printable, then park the main thread on the server thread.
    server.start_in_background()
    where = (
        server.address
        if isinstance(server.address, str)
        else "http://{}:{}".format(*server.address)
    )
    print(
        f"repro serve: listening on {where} "
        f"({server.workers} workers, backend={args.backend}, "
        f"validate={args.validate}); endpoints: POST /convert, "
        f"GET /metrics /stats /healthz"
        + ("" if args.no_record
           else " /debug/requests /debug/trace/<id> /debug/slowlog"),
        file=sys.stderr,
    )
    try:
        while server._thread is not None and server._thread.is_alive():
            server._thread.join(timeout=1.0)
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
        server.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print a phase-attributed timing report to stderr on exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Backend choices come from the registry so third-party backends
    # registered before main() are immediately selectable.
    from repro.backends import DEFAULT_BACKEND, backend_names

    BACKENDS = list(backend_names())

    p_formats = sub.add_parser("formats", help="list the format library")
    fmt_sub = p_formats.add_subparsers(dest="formats_command")
    p_fmt_list = fmt_sub.add_parser(
        "list", help="list formats (same as bare `repro formats`)"
    )
    p_fmt_list.add_argument(
        "--levels", action="store_true",
        help="show each format's level-composition spec",
    )
    p_fmt_compose = fmt_sub.add_parser(
        "compose",
        help="build a descriptor from a level-composition spec, e.g. "
             '"dense(i), compressed(j)" or '
             '"singleton(i), singleton(j) @ morton"',
    )
    p_fmt_compose.add_argument(
        "spec", help="comma-separated level terms, optional `@ ordering`"
    )
    p_fmt_compose.add_argument("--name", default="COMPOSED",
                               help="format name (default COMPOSED)")
    p_fmt_compose.add_argument("--json", action="store_true",
                               help="dump the descriptor as JSON")
    p_fmt_compose.add_argument("--save", metavar="PATH",
                               help="write the descriptor JSON to PATH")

    p_show = sub.add_parser("show", help="print one descriptor")
    p_show.add_argument("format",
                        help="library format name or descriptor .json path")
    p_show.add_argument("--json", action="store_true",
                        help="dump the descriptor as JSON")

    p_synth = sub.add_parser("synthesize", help="print a generated inspector")
    p_synth.add_argument("src",
                         help="library format name or descriptor .json path")
    p_synth.add_argument("dst",
                         help="library format name or descriptor .json path")
    p_synth.add_argument("--no-optimize", action="store_true")
    p_synth.add_argument("--binary-search", action="store_true")
    p_synth.add_argument("--c", action="store_true",
                         help="also print the C unit the c tier compiles")
    p_synth.add_argument("--notes", action="store_true",
                         help="print the synthesis decision log")
    p_synth.add_argument("--backend", choices=BACKENDS,
                         default=DEFAULT_BACKEND,
                         help="lowering backend for the inspector")

    p_conv = sub.add_parser("convert", help="convert a MatrixMarket file")
    p_conv.add_argument("input")
    p_conv.add_argument("output")
    p_conv.add_argument("--to", required=True, help="destination format")
    p_conv.add_argument("--binary-search", action="store_true")
    p_conv.add_argument("--plan", action="store_true",
                        help="use the multi-step planner")
    p_conv.add_argument("--verify", action="store_true",
                        help="check the result's invariants and stored "
                             "entries against the input's")
    p_conv.add_argument("--backend", choices=BACKENDS,
                        default=DEFAULT_BACKEND,
                        help="lowering backend for the inspector")
    p_conv.add_argument("--validate", choices=["off", "inputs", "full"],
                        default="inputs",
                        help="runtime validation gate: check inputs "
                             "(default), also outputs (full), or nothing")
    p_conv.add_argument("--disable-pass", metavar="NAME", action="append",
                        default=[],
                        help="drop an optimization pass by name "
                             "(repeatable; see `repro passes`)")

    p_plan = sub.add_parser(
        "plan",
        help="print (and with --matrix, run) the cheapest conversion "
             "route between two formats",
    )
    p_plan.add_argument("src", help="source format name")
    p_plan.add_argument("to", metavar="dst", help="destination format name")
    p_plan.add_argument("--matrix", metavar="FILE.mtx",
                        help="profile this matrix for matrix-aware "
                             "planning, then run and time the plan")
    p_plan.add_argument("--tune", action="store_true",
                        help="auto-tune the destination family's "
                             "parameterization first (needs --matrix)")
    p_plan.add_argument("--backend", choices=BACKENDS,
                        default=DEFAULT_BACKEND,
                        help="lowering backend for the inspectors")
    p_plan.add_argument("--validate", choices=["off", "inputs", "full"],
                        default="off",
                        help="validation gate while running the plan "
                             "(default off)")
    p_plan.add_argument("--json", action="store_true",
                        help="emit the repro-plan/1 JSON document")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: adversarial inputs through every "
             "format pair, cross-checked against the generated entries, "
             "hand-written baselines, and the reference backends",
    )
    p_fuzz.add_argument("--cases", type=int, default=None,
                        help="conversion-case budget (default: one case "
                             "per pair/backend/optimize combo); with "
                             "--random-formats, the number of compositions "
                             "(default 200)")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--backend", default="both", metavar="NAME[,NAME]",
                        help="backend to fuzz: a registered name, a "
                             "comma-separated list (cross-checked against "
                             "each other), or 'both' for all registered "
                             "(default)")
    p_fuzz.add_argument("--optimize", choices=["on", "off", "both"],
                        default="both",
                        help="which optimize flags to fuzz (default both)")
    p_fuzz.add_argument("--rank", choices=["2", "3", "both"], default="both")
    p_fuzz.add_argument("--random-formats", action="store_true",
                        help="fuzz randomly generated level compositions "
                             "instead of the library pairs (--cases counts "
                             "compositions)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    p_fuzz.add_argument("--max-failures", type=int, default=25,
                        help="stop after this many failures")
    p_fuzz.add_argument("--report", metavar="PATH",
                        help="write a machine-readable JSON failure report")
    p_fuzz.add_argument("--trace", action="store_true",
                        help="trace every case (spans + per-combo wall "
                             "time in the JSON report)")

    p_trace = sub.add_parser(
        "trace",
        help="run one traced conversion on a random matrix and print "
             "its span tree (synthesis phases + per-statement runtime); "
             "--id TRACE_ID fetches a recorded trace from a live daemon",
    )
    p_trace.add_argument("src", nargs="?", help="source format name")
    p_trace.add_argument("dst", nargs="?", help="destination format name")
    p_trace.add_argument("--id", metavar="TRACE_ID",
                         help="fetch this trace from a live daemon's "
                              "flight recorder (needs --addr or --unix)")
    p_trace.add_argument("--addr", metavar="HOST:PORT",
                         help="daemon TCP address for --id")
    p_trace.add_argument("--unix", metavar="PATH",
                         help="daemon unix-socket path for --id")
    p_trace.add_argument("--format", choices=["tree", "json", "chrome"],
                         default="tree",
                         help="--id output: rendered tree (default), the "
                              "span-tree JSON, or Chrome trace-event JSON")
    p_trace.add_argument("--backend", choices=BACKENDS,
                         default=DEFAULT_BACKEND)
    p_trace.add_argument("--rows", type=int, default=64)
    p_trace.add_argument("--cols", type=int, default=64)
    p_trace.add_argument("--nnz", type=int, default=256)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--validate", choices=["off", "inputs", "full"],
                         default="inputs")
    p_trace.add_argument("--out", metavar="DIR",
                         help="also write trace.json / events.jsonl / "
                              "metrics.prom / stats.json there")
    p_trace.add_argument("--disable-pass", metavar="NAME", action="append",
                         default=[],
                         help="drop an optimization pass by name "
                              "(repeatable; see `repro passes`)")

    p_stats = sub.add_parser(
        "stats",
        help="print the unified telemetry snapshot (typed metrics, span "
             "aggregates, cache shape)",
    )
    p_stats.add_argument("--format", choices=["table", "json", "prom"],
                         default="table")
    p_stats.add_argument("--input", metavar="FILE",
                         help="render a previously dumped stats.json "
                              "instead of this process's registries")
    p_stats.add_argument("--addr", metavar="HOST:PORT",
                         help="scrape a live daemon's /stats over TCP "
                              "instead of this process's registries")
    p_stats.add_argument("--unix", metavar="PATH",
                         help="scrape a live daemon's /stats over a "
                              "unix socket")

    p_passes = sub.add_parser(
        "passes",
        help="list registered optimization passes and lowering backends "
             "with their capability declarations",
    )
    p_passes.add_argument("--json", action="store_true",
                          help="dump the registries as JSON")

    p_kern = sub.add_parser("kernel", help="print a generated executor")
    p_kern.add_argument("format")
    p_kern.add_argument("kind", choices=["spmv", "spmv_t", "row_sums",
                                         "scale", "value_sum"])
    p_kern.add_argument("--c", action="store_true",
                        help="also print the C unit the c tier compiles")

    p_cache = sub.add_parser(
        "cache", help="build the C tier's compiled libraries ahead of time"
    )
    cache_sub = p_cache.add_subparsers(dest="action", required=True)
    p_warm = cache_sub.add_parser(
        "warm",
        help="build every planner pair's C library, as its first call "
        "would",
    )
    p_warm.add_argument("--jobs", type=int, default=1,
                        help="worker processes for parallel compiles")

    p_serve = sub.add_parser(
        "serve",
        help="run the conversion-as-a-service daemon (JSON HTTP API, "
             "request coalescing, worker pool, live /metrics)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8757,
                         help="TCP port (0 picks an ephemeral one)")
    p_serve.add_argument("--unix", metavar="PATH",
                         help="serve on a unix socket instead of TCP")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="conversion worker threads "
                              "(default: min(8, cpu count))")
    p_serve.add_argument("--backlog", type=int, default=64,
                         help="queued requests beyond the workers before "
                              "load-shedding with 503 (default 64)")
    p_serve.add_argument("--backend", choices=BACKENDS,
                         default=DEFAULT_BACKEND,
                         help="default lowering backend (per-request "
                              "override via the request document)")
    p_serve.add_argument("--validate", choices=["off", "inputs", "full"],
                         default="inputs",
                         help="validation gate for requests that do "
                              "not specify one; a request may only ask "
                              "for this level or a stricter one")
    p_serve.add_argument("--access-log", metavar="PATH",
                         help="append one JSON line per request (trace "
                              "id, status, latency, pair, cache outcome)")
    p_serve.add_argument("--slow-ms", type=float, default=250.0,
                         help="latency above which the flight recorder "
                              "retains a request's trace (default 250)")
    p_serve.add_argument("--no-record", action="store_true",
                         help="disable the in-memory flight recorder "
                              "(and with it the /debug endpoints)")

    p_tail = sub.add_parser(
        "tail",
        help="follow a live daemon's request log (the flight recorder's "
             "recent-request table)",
    )
    p_tail.add_argument("addr", metavar="ADDR",
                        help="HOST:PORT or a unix-socket path")
    p_tail.add_argument("--interval", type=float, default=2.0,
                        help="poll interval in seconds (default 2)")
    p_tail.add_argument("--limit", type=int, default=50,
                        help="rows fetched per poll (default 50)")
    p_tail.add_argument("--once", action="store_true",
                        help="print the current table once and exit")

    args = parser.parse_args(argv)
    handlers = {
        "formats": cmd_formats,
        "show": cmd_show,
        "synthesize": cmd_synthesize,
        "convert": cmd_convert,
        "plan": cmd_plan,
        "passes": cmd_passes,
        "kernel": cmd_kernel,
        "fuzz": cmd_fuzz,
        "trace": cmd_trace,
        "stats": cmd_stats,
        "cache": cmd_cache,
        "serve": cmd_serve,
        "tail": cmd_tail,
    }
    status = handlers[args.command](args)
    if args.profile:
        import repro.obs as obs

        print(obs.table_text(), file=sys.stderr)
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
