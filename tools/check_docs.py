#!/usr/bin/env python
"""Docs smoke check: README/docs stay executable and current.

What it enforces (CI `docs` job; run locally with
``python tools/check_docs.py`` from the repo root):

1. every ``python -m repro...`` command in README.md's ``sh`` blocks
   *parses* against the real argparse parsers (flags that drift out of
   the CLIs fail here), and the ``python`` block in README.md actually
   executes;
2. the ``--help`` texts of both CLIs still advertise the flags the
   docs promise (``--workers``/``--json``/``--replay``),
   the library CLI advertises the ``dynamic`` subcommand, and that
   subcommand documents its knobs (``--mode``/``--stream``/...);
3. every ``repro.*`` module named in the README paper->code map
   imports, and so does every ``repro.*`` reference in
   ``docs/architecture.md`` (the simulation-layers doc);
4. ``docs/performance.md`` names the real knob values — metering
   modes, replay modes, dynamic-session modes, execution
   engines and ``on_max_rounds`` modes are read from the code, not
   hard-coded here — and the dynamic and columnar layers are
   documented in both docs;
5. ``docs/robustness.md`` names every real fault kind, the failure-
   report/snapshot surfaces and the current ``SNAPSHOT_VERSION``
   number, and is linked from README and the architecture tour;
6. a tiny end-to-end CLI sweep runs (serial and ``--workers 2``),
   agrees with itself, and reports that the pooled run used processes.

Exit code 0 = docs are honest.
"""

from __future__ import annotations

import importlib
import io
import json
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

FAILURES: list[str] = []


def fail(msg: str) -> None:
    FAILURES.append(msg)
    print(f"FAIL {msg}")


def ok(msg: str) -> None:
    print(f"ok   {msg}")


def fenced_blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.DOTALL)


def doc_commands(blocks: list[str]) -> list[list[str]]:
    """Extract ``python -m repro...`` invocations, merging ``\\`` continuations."""
    commands = []
    for block in blocks:
        merged = block.replace("\\\n", " ")
        for line in merged.splitlines():
            line = line.strip()
            if line.startswith("python -m repro"):
                commands.append(shlex.split(line))
    return commands


def check_readme_commands(readme: str) -> None:
    from repro.cli import _build_parser as lib_parser
    from repro.experiments.cli import main as experiments_main

    # experiments.cli builds its parser inside main(); parse via a
    # --list probe plus real parses below.  repro.cli exposes a builder.
    for argv in doc_commands(fenced_blocks(readme, "sh")):
        module, args = argv[2], argv[3:]
        try:
            if module == "repro.cli":
                lib_parser().parse_args(args)
            elif module == "repro.experiments.cli":
                # parse-only against the CLI's real parser (no
                # execution — some documented runs are expensive), then
                # resolve experiment names against the real registry.
                from repro.experiments import EXPERIMENT_MODULES
                from repro.experiments.cli import _build_parser as exp_parser

                parsed = exp_parser().parse_args(args)
                unknown = [
                    e for e in parsed.experiments if e not in EXPERIMENT_MODULES
                ]
                if unknown:
                    raise SystemExit(f"unknown experiments {unknown}")
            elif module == "repro.experiments.exp_scaling":
                pass  # module main(), no flags to validate
            else:
                raise SystemExit(f"undocumented module {module}")
        except SystemExit as exc:
            if exc.code not in (0, None):
                fail(f"README command does not parse: {' '.join(argv)} ({exc})")
                continue
        ok(f"parses: {' '.join(argv[:6])}{' ...' if len(argv) > 6 else ''}")
    # the experiments CLI itself still runs
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = experiments_main(["--list"])
    if code != 0 or "scaling" not in buf.getvalue():
        fail("python -m repro.experiments.cli --list broken or missing 'scaling'")
    else:
        ok("experiments CLI --list runs and knows 'scaling'")


def check_readme_python_blocks(readme: str) -> None:
    for i, block in enumerate(fenced_blocks(readme, "python")):
        try:
            with redirect_stdout(io.StringIO()):
                exec(compile(block, f"<README python block {i}>", "exec"), {})
            ok(f"README python block {i} executes")
        except Exception as exc:
            fail(f"README python block {i} raises {type(exc).__name__}: {exc}")


def check_help_texts() -> None:
    from repro.cli import _build_parser

    import argparse

    promised = ["--workers", "--json", "--replay"]
    parser = _build_parser()
    sweep_parser = None
    dynamic_parser = None
    serve_parser = None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            sweep_parser = action.choices.get("sweep")
            dynamic_parser = action.choices.get("dynamic")
            serve_parser = action.choices.get("serve")
    if sweep_parser is None:
        fail("repro.cli has no 'sweep' subcommand")
        return
    help_text = sweep_parser.format_help()
    for flag in promised + ["--engine"]:
        if flag not in help_text:
            fail(f"repro.cli sweep --help no longer documents {flag}")
        else:
            ok(f"repro.cli sweep --help documents {flag}")

    if "dynamic" not in parser.format_help():
        fail("repro.cli --help no longer advertises the 'dynamic' subcommand")
    else:
        ok("repro.cli --help advertises the 'dynamic' subcommand")
    if dynamic_parser is None:
        fail("repro.cli has no 'dynamic' subcommand")
        return
    dynamic_help = dynamic_parser.format_help()
    for flag in ("--mode", "--stream", "--batches", "--edits-per-batch",
                 "--verify", "--snapshot", "--restore", "--json"):
        if flag not in dynamic_help:
            fail(f"repro.cli dynamic --help no longer documents {flag}")
        else:
            ok(f"repro.cli dynamic --help documents {flag}")

    # the serving host rides the same CLI: the subcommand is
    # advertised and documents the knobs performance.md promises.
    if "serve" not in parser.format_help():
        fail("repro.cli --help no longer advertises the 'serve' subcommand")
    else:
        ok("repro.cli --help advertises the 'serve' subcommand")
    if serve_parser is None:
        fail("repro.cli has no 'serve' subcommand")
        return
    serve_help = serve_parser.format_help()
    for flag in ("--sessions", "--workers", "--checkpoint-every",
                 "--stream", "--mode", "--batches", "--edits-per-batch",
                 "--verify", "--json"):
        if flag not in serve_help:
            fail(f"repro.cli serve --help no longer documents {flag}")
        else:
            ok(f"repro.cli serve --help documents {flag}")

    vc_parser = None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            vc_parser = action.choices.get("vc")
    if vc_parser is None:
        fail("repro.cli has no 'vc' subcommand")
        return
    vc_help = vc_parser.format_help()
    for flag in ("--fault", "--fault-rate", "--fault-rounds", "--fault-seed",
                 "--engine"):
        if flag not in vc_help:
            fail(f"repro.cli vc --help no longer documents {flag}")
        else:
            ok(f"repro.cli vc --help documents {flag}")
    # the engine choices themselves are read from the code, not
    # hard-coded: both subcommands must offer every runtime engine.
    from repro.simulator.runtime import ENGINES

    for sub_name, sub_help in (("vc", vc_help), ("sweep", help_text)):
        for eng in ENGINES:
            if eng not in sub_help:
                fail(f"repro.cli {sub_name} --help no longer offers "
                     f"engine {eng!r}")
            else:
                ok(f"repro.cli {sub_name} --help offers engine {eng!r}")
    from repro.simulator.faults import FAULT_KINDS

    for kind in FAULT_KINDS:
        if kind not in vc_help:
            fail(f"repro.cli vc --help no longer offers fault kind {kind!r}")
        else:
            ok(f"repro.cli vc --help offers fault kind {kind!r}")

    from repro.experiments.cli import _build_parser as exp_parser

    exp_help = exp_parser().format_help()
    for flag in promised + ["--fault-kinds"]:
        if flag not in exp_help:
            fail(f"repro.experiments.cli --help no longer documents {flag}")
        else:
            ok(f"repro.experiments.cli --help documents {flag}")


def check_repro_references(text: str, label: str) -> None:
    """Every backticked ``repro.*`` reference in ``text`` must import
    (as a module, or as an attribute of its parent module)."""
    modules = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
    if not modules:
        fail(f"{label} names no repro modules")
    for name in sorted(modules):
        # entries name modules or module.attr; import the longest
        # importable prefix and require the attr to exist on it.
        parts = name.split(".")
        try:
            mod, attr = name, None
            try:
                importlib.import_module(mod)
            except ModuleNotFoundError:
                mod, attr = ".".join(parts[:-1]), parts[-1]
                loaded = importlib.import_module(mod)
                if not hasattr(loaded, attr):
                    raise
            ok(f"{label} target importable: {name}")
        except Exception:
            fail(f"{label} names {name} but it does not import")


def check_paper_code_map(readme: str) -> None:
    check_repro_references(readme, "README paper->code map")


def check_architecture_doc() -> None:
    doc_path = REPO / "docs" / "architecture.md"
    if not doc_path.exists():
        fail("docs/architecture.md missing")
        return
    doc = doc_path.read_text()
    check_repro_references(doc, "architecture.md")
    # The doc documents both replay data flows; it must name the knob
    # values and both consumers.
    from repro._util.memo import REPLAY_MODES

    for mode in REPLAY_MODES:
        if f'`replay="{mode}"`' in doc or f"`{mode}`" in doc or f'"{mode}"' in doc:
            ok(f"architecture.md documents replay mode {mode!r}")
        else:
            fail(f"architecture.md does not document replay mode {mode!r}")
    for consumer in ("broadcast_vc", "transformer", "memo"):
        if consumer in doc:
            ok(f"architecture.md covers {consumer}")
        else:
            fail(f"architecture.md does not mention {consumer}")
    # The dynamic layer and its data flow must be documented too.
    for piece in ("DynamicRun", "GraphEdit", "dirty", "repro.dynamic.streams"):
        if piece in doc:
            ok(f"architecture.md covers the dynamic layer: {piece}")
        else:
            fail(f"architecture.md does not mention {piece}")
    # ...and the columnar execution substrate.
    for piece in ("StateLayout", 'engine="columnar"',
                  "repro.simulator.state_layout"):
        if piece in doc:
            ok(f"architecture.md covers the columnar substrate: {piece}")
        else:
            fail(f"architecture.md does not mention {piece}")
    # ...and the serving host / overlay layer (PR 9).  The names are
    # read from the package, not hard-coded: they must stay importable
    # AND documented.
    import repro.dynamic as dynamic_pkg

    for name in ("ServingHost", "MutableTopology", "latency_summary"):
        if not hasattr(dynamic_pkg, name):
            fail(f"repro.dynamic no longer exports {name}")
        elif name in doc:
            ok(f"architecture.md covers the serving/overlay layer: {name}")
        else:
            fail(f"architecture.md does not mention {name}")
    for piece in ("repro.dynamic.serving", "repro.dynamic.overlay",
                  "light cone", "serve_pool", "checkpoint"):
        if piece in doc:
            ok(f"architecture.md covers the serving/overlay layer: {piece}")
        else:
            fail(f"architecture.md does not mention {piece}")


def check_performance_doc() -> None:
    doc_path = REPO / "docs" / "performance.md"
    if not doc_path.exists():
        fail("docs/performance.md missing")
        return
    doc = doc_path.read_text()
    from repro.simulator.runtime import ENGINES, ON_MAX_ROUNDS, Metering
    from repro._util.memo import REPLAY_MODES
    from repro.dynamic import DYNAMIC_MODES

    for mode in (Metering.NONE, Metering.COUNTS, Metering.BITS):
        if f'"{mode}"' not in doc and f"`{mode}`" not in doc:
            fail(f"docs/performance.md does not document metering mode {mode!r}")
        else:
            ok(f"performance.md documents metering {mode!r}")
    for mode in REPLAY_MODES:
        if f'"{mode}"' not in doc and f"`{mode}`" not in doc:
            fail(f"docs/performance.md does not document replay mode {mode!r}")
        else:
            ok(f"performance.md documents replay mode {mode!r}")
    for mode in DYNAMIC_MODES:
        if f'"{mode}"' not in doc and f"`{mode}`" not in doc:
            fail(f"docs/performance.md does not document dynamic mode {mode!r}")
        else:
            ok(f"performance.md documents dynamic mode {mode!r}")
    for eng in ENGINES:
        if f'"{eng}"' not in doc and f"`{eng}`" not in doc:
            fail(f"docs/performance.md does not document engine {eng!r}")
        else:
            ok(f"performance.md documents engine {eng!r}")
    for mode in ON_MAX_ROUNDS:
        if f'"{mode}"' not in doc and f"`{mode}`" not in doc:
            fail(f"docs/performance.md does not document on_max_rounds "
                 f"mode {mode!r}")
        else:
            ok(f"performance.md documents on_max_rounds mode {mode!r}")
    for knob in ("arithmetic", "n_workers", "quiescence", "replay",
                 "DynamicRun", "repaired_fraction", "engine",
                 "MaxRoundsExceeded", "StateLayout", "bench_columnar",
                 "ServingHost", "workers=",
                 "checkpoint_every", "latency_summary", "MutableTopology",
                 "cone_node_rounds", "bench_serving"):
        if knob not in doc:
            fail(f"docs/performance.md does not mention {knob}")
        else:
            ok(f"performance.md mentions {knob}")
    # the serving defaults are read from the code, not hard-coded: the
    # doc must state the real checkpoint cadence.
    import inspect

    from repro.dynamic import ServingHost

    ckpt_default = inspect.signature(ServingHost.__init__).parameters[
        "checkpoint_every"
    ].default
    if f"`checkpoint_every` (default {ckpt_default})" in doc:
        ok(f"performance.md states checkpoint_every default = {ckpt_default}")
    else:
        fail(f"docs/performance.md does not state the real "
             f"checkpoint_every default ({ckpt_default})")


def check_robustness_doc() -> None:
    doc_path = REPO / "docs" / "robustness.md"
    if not doc_path.exists():
        fail("docs/robustness.md missing")
        return
    doc = doc_path.read_text()
    check_repro_references(doc, "robustness.md")
    # Fault-kind names are read from the code, not hard-coded here.
    from repro.simulator.faults import FAULT_KINDS

    for kind in FAULT_KINDS:
        if f'`"{kind}"`' in doc or f"`{kind}`" in doc:
            ok(f"robustness.md documents fault kind {kind!r}")
        else:
            fail(f"robustness.md does not document fault kind {kind!r}")
    for piece in ("FailureReport", "RetryEvent", "SNAPSHOT_VERSION",
                  "process_safe", "BrokenProcessPool", "snapshot",
                  "restore", "--fault", "--snapshot", "--restore",
                  "SelfStabilisingMachine"):
        if piece in doc:
            ok(f"robustness.md mentions {piece}")
        else:
            fail(f"robustness.md does not mention {piece}")
    # The stated layout version is read from the code, so it cannot drift.
    from repro.dynamic.session import SNAPSHOT_VERSION

    stated = re.findall(r"layout is `SNAPSHOT_VERSION`\s+(\d+)", doc)
    if stated == [str(SNAPSHOT_VERSION)]:
        ok(f"robustness.md states SNAPSHOT_VERSION {SNAPSHOT_VERSION}")
    else:
        fail(
            f"robustness.md states snapshot layout version {stated}, "
            f"code has {SNAPSHOT_VERSION}"
        )
    # the doc is linked from README and the architecture tour
    for source, label in (
        (REPO / "README.md", "README.md"),
        (REPO / "docs" / "architecture.md", "architecture.md"),
    ):
        if "robustness.md" in source.read_text():
            ok(f"{label} links docs/robustness.md")
        else:
            fail(f"{label} does not link docs/robustness.md")


def check_observability_doc() -> None:
    doc_path = REPO / "docs" / "observability.md"
    if not doc_path.exists():
        fail("docs/observability.md missing")
        return
    doc = doc_path.read_text()
    check_repro_references(doc, "observability.md")
    # The span/event/counter vocabulary is read from the code, not
    # hard-coded here: every name the layer can emit must be documented.
    from repro.obs import COUNTER_NAMES, EVENT_NAMES, SPAN_NAMES

    for kind, names in (("span", SPAN_NAMES), ("event", EVENT_NAMES),
                        ("counter", COUNTER_NAMES)):
        for name in names:
            if f"`{name}`" in doc:
                ok(f"observability.md documents {kind} {name!r}")
            else:
                fail(f"observability.md does not document {kind} {name!r}")
    # The CLI surfaces the doc promises: --trace on every run-shaped
    # subcommand and the trace summarize subcommand.
    import argparse

    from repro.cli import _build_parser

    parser = _build_parser()
    subs = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            subs = action.choices
    for cmd in ("vc", "sweep", "dynamic", "serve"):
        sub = subs.get(cmd)
        if sub is None or "--trace" not in sub.format_help():
            fail(f"repro.cli {cmd} --help no longer documents --trace")
        else:
            ok(f"repro.cli {cmd} --help documents --trace")
    if "trace" not in subs:
        fail("repro.cli has no 'trace' subcommand")
    else:
        ok("repro.cli advertises the 'trace' subcommand")
    for piece in ("--trace", "trace summarize",
                  "drain_remote", "absorb", "HostReport.counters",
                  "check_no_raw_timers", "bench_obs"):
        if piece in doc:
            ok(f"observability.md mentions {piece}")
        else:
            fail(f"observability.md does not mention {piece}")
    # the doc is linked from README and the architecture tour
    for source, label in (
        (REPO / "README.md", "README.md"),
        (REPO / "docs" / "architecture.md", "architecture.md"),
    ):
        if "observability.md" in source.read_text():
            ok(f"{label} links docs/observability.md")
        else:
            fail(f"{label} does not link docs/observability.md")


def check_cli_end_to_end() -> None:
    from repro.cli import main as lib_main

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = lib_main(argv)
        return code, buf.getvalue()

    base = ["sweep", "--family", "cycle", "--sizes", "8,12", "--seeds", "1", "--json"]
    code_a, out_a = run(base)
    code_b, out_b = run(base + ["--workers", "2"])
    if code_a != 0 or code_b != 0:
        fail("CLI sweep smoke run exited non-zero")
        return
    serial, pooled = json.loads(out_a), json.loads(out_b)
    if pooled["backend"] != "process":
        fail(f"CLI sweep --workers 2 ran on {pooled['backend']!r}, not processes")
    elif serial["runs"] != pooled["runs"]:
        fail("CLI sweep: --workers 2 output differs from serial")
    else:
        ok("CLI sweep end-to-end: serial == --workers 2 (process pool)")


def main() -> int:
    readme_path = REPO / "README.md"
    if not readme_path.exists():
        fail("README.md missing at repo root")
        return 1
    readme = readme_path.read_text()
    check_readme_commands(readme)
    check_readme_python_blocks(readme)
    check_help_texts()
    check_paper_code_map(readme)
    check_architecture_doc()
    check_performance_doc()
    check_robustness_doc()
    check_observability_doc()
    check_cli_end_to_end()
    if FAILURES:
        print(f"\n{len(FAILURES)} docs check(s) failed")
        return 1
    print("\nall docs checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
