"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro list
    python -m repro run table1
    python -m repro run fig12 --slots 2500 --seed 7
    python -m repro run all
    python -m repro run fig12 --telemetry    # also record traces/metrics
    python -m repro compare --slots 2000     # SpotDC vs baselines summary
    python -m repro simulate --slots 500 --checkpoint-every 50 \
        --checkpoint-dir ckpt                # operator run with recovery
    python -m repro simulate --resume-from auto --checkpoint-dir ckpt \
        --slots 500                          # resume after a crash
    python -m repro trace telemetry/spotdc-001_trace.jsonl --slot 3
    python -m repro metrics telemetry/spotdc-001_metrics.prom
    python -m repro scenario validate examples/scenarios/testbed.json
    python -m repro scenario show --preset scaled --groups 3
    python -m repro sweep run examples/scenarios/sweep_smoke.yaml --jobs 2

Each ``run`` target prints the paper-style rows for that table/figure
(the same output the benchmarks archive under ``benchmarks/results/``).
With ``--telemetry``, every simulation inside the experiment also
exports a JSONL span trace, a Prometheus metrics dump, and a summary
JSON into ``--telemetry-dir``; ``trace`` and ``metrics`` inspect those
artifacts afterwards (see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import functools
import pathlib
import sys
from collections.abc import Callable, Sequence

from repro import experiments as E
from repro.errors import ConfigurationError
from repro.forecast import SIGNAL_NAMES
from repro.resilience import FAULT_CLASSES, FaultProfile
from repro.resilience.profile import DEFAULT_FAULT_INTENSITY
from repro.telemetry import TelemetryConfig, set_default_config

__all__ = ["main", "EXPERIMENT_REGISTRY"]

#: name -> (description, runner) where runner(args) returns printable text.
EXPERIMENT_REGISTRY: dict[str, tuple[str, Callable]] = {
    "table1": (
        "Testbed configuration (Table I)",
        lambda a: E.render_table1(E.run_table1(seed=a.seed)),
    ),
    "fig02": (
        "Power CDFs and the spot-capacity opportunity (Fig. 2b)",
        lambda a: E.render_fig02(E.run_fig02(seed=a.seed)),
    ),
    "fig07": (
        "PDU power variation and clearing time at scale (Fig. 7)",
        lambda a: E.render_fig07(
            E.run_fig07a(seed=a.seed),
            E.run_fig07b(seed=a.seed, jobs=a.jobs),
        ),
    ),
    "fig08": (
        "Power-performance relations (Fig. 8)",
        lambda a: E.render_fig08(E.run_fig08()),
    ),
    "fig09": (
        "Performance gain in dollars (Fig. 9)",
        lambda a: E.render_fig09(E.run_fig09(seed=a.seed)),
    ),
    "fig10": (
        "20-minute execution trace (Fig. 10)",
        lambda a: E.render_fig10(E.run_fig10(seed=a.seed)),
    ),
    "fig11": (
        "Tenant performance during the execution (Fig. 11)",
        lambda a: E.render_fig11(E.run_fig11(seed=a.seed)),
    ),
    "fig12": (
        "Extended-run cost / performance / usage (Fig. 12)",
        lambda a: E.render_fig12(E.run_fig12(seed=a.seed, slots=a.slots)),
    ),
    "fig13": (
        "Price and utilization CDFs (Fig. 13)",
        lambda a: E.render_fig13(E.run_fig13(seed=a.seed, slots=a.slots)),
    ),
    "fig14": (
        "Demand-function comparison (Fig. 14)",
        lambda a: E.render_fig14(E.run_fig14(seed=a.seed, slots=a.slots)),
    ),
    "fig15": (
        "Impact of available spot capacity (Fig. 15)",
        lambda a: E.render_fig15(E.run_fig15(seed=a.seed, slots=a.slots)),
    ),
    "fig16": (
        "Strategic (price-predicting) bidding (Fig. 16)",
        lambda a: E.render_fig16(E.run_fig16(seed=a.seed, slots=a.slots)),
    ),
    "fig17": (
        "Spot-capacity under-prediction (Fig. 17)",
        lambda a: E.render_fig17(
            E.run_fig17(seed=a.seed, slots=a.slots, jobs=a.jobs)
        ),
    ),
    "fig18": (
        "Scaling to 1,000 tenants (Fig. 18)",
        lambda a: E.render_fig18(E.run_fig18(seed=a.seed, jobs=a.jobs)),
    ),
    "ablations": (
        "Design-choice ablations (pricing / conservatism / breakpoints / reserve)",
        lambda a: "\n\n".join(
            [
                E.ablations.render_pricing_ablation(
                    E.ablations.run_pricing_ablation(seed=a.seed, jobs=a.jobs)
                ),
                E.ablations.render_safety_ablation(
                    E.ablations.run_safety_ablation(seed=a.seed, jobs=a.jobs)
                ),
                E.ablations.render_breakpoint_ablation(
                    E.ablations.run_breakpoint_ablation(
                        seed=a.seed, jobs=a.jobs
                    )
                ),
                E.ablations.render_reserve_price_sweep(
                    E.ablations.run_reserve_price_sweep(
                        seed=a.seed, jobs=a.jobs
                    )
                ),
                E.ablations.render_slot_length_sweep(
                    E.ablations.run_slot_length_sweep(seed=a.seed, jobs=a.jobs)
                ),
            ]
        ),
    ),
    "equilibrium": (
        "Extension: bidding-game equilibrium study",
        lambda a: E.ext_equilibrium.render_equilibrium_study(
            E.ext_equilibrium.run_equilibrium_study(seed=a.seed)
        ),
    ),
    "resilience": (
        "Extension: chaos sweep (fault class x intensity, §V-B2 invariant)",
        lambda a: E.ext_resilience.render_resilience_study(
            E.ext_resilience.run_resilience_study(
                seed=a.seed,
                slots=(
                    a.slots
                    if a.slots != _RUN_SLOTS_DEFAULT
                    else E.ext_resilience.DEFAULT_SLOTS
                ),
                jobs=a.jobs,
            )
        ),
    ),
    "edr": (
        "Extension: grid-event survivability (EDR shocks, price coupling)",
        lambda a: E.ext_edr.render_edr_study(
            E.ext_edr.run_edr_study(
                seed=a.seed,
                slots=(
                    a.slots
                    if a.slots != _RUN_SLOTS_DEFAULT
                    else E.ext_edr.DEFAULT_SLOTS
                ),
                jobs=a.jobs,
            )
        ),
    ),
    "prediction-risk": (
        "Extension: forecast-signal x risk-quantile frontier (extends Fig. 17)",
        lambda a: E.ext_prediction_risk.render_prediction_risk(
            E.ext_prediction_risk.run_prediction_risk(
                seed=a.seed,
                slots=(
                    a.slots
                    if a.slots != _RUN_SLOTS_DEFAULT
                    else E.ext_prediction_risk.DEFAULT_SLOTS
                ),
                jobs=a.jobs,
            )
        ),
    ),
}

#: Default of ``run --slots`` — the chaos and prediction-risk sweeps
#: substitute their own, shorter defaults when the user did not pass
#: one (they run dozens of full simulations, not one).
_RUN_SLOTS_DEFAULT = 2500


def _cmd_list(args: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENT_REGISTRY)
    for name, (description, _) in EXPERIMENT_REGISTRY.items():
        print(f"{name.ljust(width)}  {description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    targets = (
        list(EXPERIMENT_REGISTRY) if args.target == "all" else [args.target]
    )
    unknown = [t for t in targets if t not in EXPERIMENT_REGISTRY]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(see `python -m repro list`)",
            file=sys.stderr,
        )
        return 2
    with _default_telemetry(args.telemetry, args.telemetry_dir) as config:
        for i, target in enumerate(targets):
            if i:
                print()
            _, runner = EXPERIMENT_REGISTRY[target]
            print(runner(args))
    if config is not None:
        print(f"\noutput directory: {pathlib.Path(args.telemetry_dir).resolve()}")
        for path in config.manifest:
            print(f"  {path}")
        if not config.manifest:
            print("  (no simulation ran, nothing exported)")
    else:
        print(
            "\nno artifacts written (pass --telemetry to record traces "
            "and metrics)"
        )
    return 0


@contextlib.contextmanager
def _default_telemetry(enabled: bool, out_dir=None):
    """Install a process-wide :class:`TelemetryConfig` for the block.

    The default reaches every engine the command constructs, however
    deep — no parameter threading.  Yields the config, or ``None`` when
    telemetry is off.
    """
    if not enabled:
        yield None
        return
    config = TelemetryConfig(out_dir=out_dir)
    previous = set_default_config(config)
    try:
        yield config
    finally:
        set_default_config(previous)


def _reports_bad_flags(command):
    """Make a bad scenario flag exit 2 with one line, not a traceback.

    A :class:`ConfigurationError` raised anywhere in ``command`` —
    building the scenario from the flags (``--clearing-deadline 0``,
    ``--fault-intensity 2``, an invalid ``--event-schedule`` file) or
    the engine from the scenario (``--crash-at -1``) — is printed as
    one line on stderr.
    """

    @functools.wraps(command)
    def run(args: argparse.Namespace) -> int:
        try:
            return command(args)
        except ConfigurationError as exc:
            print(f"invalid {args.command} flags: {exc}", file=sys.stderr)
            return 2

    return run


def _fault_profile_from_args(args: argparse.Namespace, crash_at=None):
    """The :class:`FaultProfile` the fault flags name, or ``None``."""
    if args.fault_profile == "none" and crash_at is None:
        return None
    profile = FaultProfile.named(args.fault_profile, args.fault_intensity)
    if crash_at is None:
        return profile
    return dataclasses.replace(profile, crash_at_slot=crash_at)


def _scenario_from_args(args: argparse.Namespace, **changes):
    """The testbed scenario with the shared scenario flags applied.

    ``changes`` are further :class:`~repro.sim.scenario.Scenario`
    fields; a ``None`` (flag not given) keeps the testbed's own value.
    """
    from repro.events import EventProfile, wholesale_trace_from_file
    from repro.forecast import PredictionProfile
    from repro.scenarios import event_profile_from_file
    from repro.sim.scenario import testbed_scenario

    changes["fault_profile"] = _fault_profile_from_args(args, args.crash_at)
    if args.predictor is not None or args.risk_quantile is not None:
        signal = {} if args.predictor is None else {"signal": args.predictor}
        changes["prediction"] = PredictionProfile(
            risk_quantile=args.risk_quantile, **signal
        )
    if args.event_schedule is not None:
        changes["events"] = event_profile_from_file(args.event_schedule)
    if args.wholesale_trace is not None:
        changes["events"] = dataclasses.replace(
            changes.get("events") or EventProfile(),
            wholesale_trace=wholesale_trace_from_file(args.wholesale_trace),
        )
    return dataclasses.replace(
        testbed_scenario(seed=args.seed),
        **{field: value for field, value in changes.items() if value is not None},
    )


@_reports_bad_flags
def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.errors import OperatorCrash, RecoveryError
    from repro.recovery import load_latest_checkpoint
    from repro.sim.engine import run_simulation

    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        print("--checkpoint-every requires --checkpoint-dir", file=sys.stderr)
        return 2
    resume_from = args.resume_from
    if resume_from == "auto":
        if args.checkpoint_dir is None:
            print(
                "--resume-from auto requires --checkpoint-dir",
                file=sys.stderr,
            )
            return 2
        resume_from = load_latest_checkpoint(args.checkpoint_dir)
        if resume_from is None:
            print(
                f"no checkpoint found in {args.checkpoint_dir}",
                file=sys.stderr,
            )
            return 2

    scenario = _scenario_from_args(
        args, clearing_deadline_s=args.clearing_deadline
    )
    # Profiling reads wall-clock durations off in-memory telemetry spans.
    with _default_telemetry(
        args.telemetry or args.profile,
        args.telemetry_dir if args.telemetry else None,
    ) as config:
        try:
            result = run_simulation(
                scenario,
                slots=args.slots,
                checkpoint_every=args.checkpoint_every,
                checkpoint_dir=args.checkpoint_dir,
                resume_from=resume_from,
            )
        except OperatorCrash as crash:
            print(
                f"operator crash at slot {crash.slot}; resume with "
                f"--resume-from auto --checkpoint-dir {args.checkpoint_dir}",
                file=sys.stderr,
            )
            return 3
        except RecoveryError as exc:
            print(f"recovery error: {exc}", file=sys.stderr)
            return 2

    prices = result.price_series()
    quarantined = sum(result.quarantined_bids.values())
    print(f"allocator: {result.allocator_name}")
    print(f"slots: {result.slots}  seed: {args.seed}")
    print(f"mean price: {float(prices.mean()) if prices.size else 0.0:.4f}")
    print(f"spot revenue: ${result.total_spot_revenue():.2f}")
    print(f"net profit: ${result.ledger.net_profit:.2f}")
    print(f"emergencies: {len(result.emergencies.events)}")
    print(f"quarantined bids: {quarantined}")
    if result.faults is not None:
        print(f"faults injected: {result.faults.count()}")
    if config is not None:
        for path in config.manifest:
            print(f"  {path}")
    if args.profile:
        _print_profile(result.trace)
    return 0


def _print_profile(trace) -> None:
    """Per-phase wall-clock table from one run's telemetry spans."""
    from repro.telemetry.tracing import PHASES

    if trace is None:
        print("no trace recorded; profiling needs telemetry enabled")
        return
    print()
    print(f"{'phase':<16}{'count':>7}{'total ms':>12}{'mean ms':>10}{'max ms':>10}")
    for name in PHASES + ("slot",):
        spans = trace.spans_named(name)
        if not spans:
            continue
        durations = [s.duration_s * 1000.0 for s in spans]
        total = sum(durations)
        print(
            f"{name:<16}{len(spans):>7}{total:>12.2f}"
            f"{total / len(spans):>10.3f}{max(durations):>10.3f}"
        )


@_reports_bad_flags
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.daemon.server import serve
    from repro.errors import DaemonError, OperatorCrash, RecoveryError

    scenario = _scenario_from_args(args)
    with _default_telemetry(args.telemetry, args.telemetry_dir):
        try:
            serve(
                scenario,
                args.slots,
                args.state_dir,
                args.socket,
                tick_seconds=args.tick_seconds,
                max_pending=args.max_pending,
                resume=args.resume,
                kill_at=args.kill_at,
                kill_point=args.kill_point,
            )
        except OperatorCrash as crash:
            print(
                f"operator crash at slot {crash.slot}; restart with "
                f"--resume --state-dir {args.state_dir}",
                file=sys.stderr,
            )
            return 3
        except (DaemonError, RecoveryError) as exc:
            print(f"daemon error: {exc}", file=sys.stderr)
            return 2
    return 0


def _parse_rack_arg(text: str) -> dict:
    """Parse ``rack_id:linear:d_max,q_min,d_min,q_max`` (or ``:step:``)."""
    # Rack ids themselves contain colons (e.g. ``rack:Search-1``), so
    # the kind and value fields are split off from the right.
    parts = text.rsplit(":", 2)
    if len(parts) != 3 or not parts[0]:
        raise ConfigurationError(
            f"--rack must be RACK_ID:KIND:V1,V2[,...], got {text!r}"
        )
    rack_id, kind, values = parts
    fields = {
        "linear": ("d_max_w", "q_min", "d_min_w", "q_max"),
        "step": ("demand_w", "price_cap"),
    }.get(kind)
    if fields is None:
        raise ConfigurationError(
            f"--rack kind must be 'linear' or 'step', got {kind!r}"
        )
    numbers = values.split(",")
    if len(numbers) != len(fields):
        raise ConfigurationError(
            f"--rack {kind} demand needs {len(fields)} values "
            f"({','.join(fields)}), got {len(numbers)}"
        )
    try:
        demand = {f: float(v) for f, v in zip(fields, numbers)}
    except ValueError as exc:
        raise ConfigurationError(f"bad --rack value in {text!r}: {exc}") from exc
    return {"rack_id": rack_id, "demand": {"kind": kind, **demand}}


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.daemon.chaos import synthetic_bundle
    from repro.daemon.client import DaemonClient
    from repro.errors import DaemonError

    client = DaemonClient(
        args.socket, seed=args.seed, retries=args.retries
    )
    try:
        if not args.auto:
            if args.tenant is None or args.slot is None or not args.rack:
                print(
                    "submit needs --tenant, --slot and --rack "
                    "(or --auto for the synthetic fleet driver)",
                    file=sys.stderr,
                )
                return 2
            racks = [_parse_rack_arg(entry) for entry in args.rack]
            response = client.submit(
                args.tenant, args.slot, racks, key=args.key
            )
            print(json.dumps(response, indent=2, sort_keys=True))
            return 0 if response.get("ok") else 1

        # --auto: deterministic synthetic session for every tenant and
        # slot (the CI smoke driver).  Keys are "{tenant}:{slot}", so
        # re-running after a daemon restart redelivers idempotently.
        hello = client.hello()
        directory = client.describe()["tenants"]
        slots = hello["slots"]
        accepted = absorbed = 0
        for slot in range(1, slots):
            for tenant_id, info in sorted(directory.items()):
                bundle = synthetic_bundle(
                    args.seed, tenant_id, slot, info["racks"]
                )
                response = client.submit(tenant_id, slot, bundle)
                if response.get("ok"):
                    accepted += 1
                    continue
                code = response.get("error", {}).get("code")
                if code in ("too_late", "shed"):
                    absorbed += 1
                    continue
                print(f"submission rejected: {response!r}", file=sys.stderr)
                return 2
        print(f"submitted {accepted} bundles ({absorbed} skipped)")
        if args.submit_only:
            return 0
        if hello["manual"]:
            while True:
                response = client.tick()
                if response.get("ok"):
                    if response.get("done"):
                        break
                    continue
                code = response.get("error", {}).get("code")
                if code == "crashed":
                    print(
                        "daemon crashed mid-run; restart it with --resume "
                        "and re-run submit --auto",
                        file=sys.stderr,
                    )
                    return 3
                print(f"tick failed: {response!r}", file=sys.stderr)
                return 2
        else:
            client.wait_done(budget=args.wait)
        invoices = client.invoices()["invoices"]
        text = json.dumps(invoices, indent=2, sort_keys=True) + "\n"
        if args.out is not None:
            pathlib.Path(args.out).write_text(text)
            print(f"invoices: {args.out}")
        else:
            print(text, end="")
        client.shutdown()
        return 0
    except ConfigurationError as exc:
        print(f"invalid submission: {exc}", file=sys.stderr)
        return 2
    except DaemonError as exc:
        print(f"daemon unreachable: {exc}", file=sys.stderr)
        return 3
    finally:
        client.close()


@_reports_bad_flags
def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.experiments.common import run_comparison

    fault_profile = _fault_profile_from_args(args)
    runs = run_comparison(
        slots=args.slots,
        seed=args.seed,
        include_maxperf=True,
        fault_profile=fault_profile,
    )
    if fault_profile is not None and runs.spotdc.faults is not None:
        print(
            f"fault profile: {args.fault_profile}@{args.fault_intensity} — "
            f"{runs.spotdc.faults.count()} faults injected\n"
        )
    rows = []
    for tenant_id in runs.spotdc.participating_tenant_ids():
        rows.append(
            [
                tenant_id,
                runs.spotdc.tenants[tenant_id].kind,
                runs.spotdc.tenant_performance_improvement_vs(
                    runs.powercapped, tenant_id
                ),
                runs.maxperf.tenant_performance_improvement_vs(
                    runs.powercapped, tenant_id
                ),
                100 * runs.spotdc.tenant_cost_increase_vs(
                    runs.powercapped, tenant_id
                ),
            ]
        )
    print(
        format_table(
            ["tenant", "type", "SpotDC perf x", "MaxPerf perf x", "cost +%"],
            rows,
            title="SpotDC vs baselines (normalised to PowerCapped)",
        )
    )
    print(
        f"\noperator profit increase: "
        f"+{100 * runs.profit_increase():.2f}%"
    )
    return 0


def _format_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    parts = []
    for key, value in attrs.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        elif isinstance(value, list):
            parts.append(f"{key}=[{len(value)} items]")
        else:
            parts.append(f"{key}={value}")
    return "  " + " ".join(parts)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.exporters import read_trace_jsonl

    try:
        records = read_trace_jsonl(args.file)
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    spans = [r for r in records if r.get("kind") == "span"]
    events = [r for r in records if r.get("kind") == "event"]
    slots = sorted({s["slot"] for s in spans if s["name"] == "slot"})

    if args.slot is not None:
        roots = [
            s for s in spans if s["name"] == "slot" and s["slot"] == args.slot
        ]
        if not roots:
            print(f"no slot span for slot {args.slot}", file=sys.stderr)
            return 2
        for root in roots:
            print(f"slot {args.slot}{_format_attrs(root['attrs'])}")
            children = [
                r
                for r in records
                if r.get("parent_id") == root["span_id"]
                and r.get("kind") == "span"
            ]
            for child in sorted(children, key=lambda r: r["span_id"]):
                print(f"  {child['name']}{_format_attrs(child['attrs'])}")
                nested = [
                    r
                    for r in records
                    if r.get("parent_id") == child["span_id"]
                ]
                for sub in sorted(nested, key=lambda r: r["seq"]):
                    marker = "·" if sub.get("kind") == "event" else "-"
                    print(f"    {marker} {sub['name']}{_format_attrs(sub['attrs'])}")
        return 0

    print(
        f"{args.file}: {len(slots)} slots, {len(spans)} spans, "
        f"{len(events)} events"
    )
    span_counts = collections.Counter(s["name"] for s in spans)
    print("spans:")
    for name, n in span_counts.most_common():
        print(f"  {name:<12} {n}")
    if events:
        print("events:")
        for name, n in collections.Counter(e["name"] for e in events).most_common():
            print(f"  {name:<28} {n}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        dump_spec,
        load_spec_file,
        normalize_spec,
        preset_spec,
    )

    if (args.file is None) == (args.preset is None):
        print(
            "give exactly one of FILE or --preset", file=sys.stderr
        )
        return 2
    try:
        if args.file is not None:
            spec = load_spec_file(args.file)
            source = args.file
        else:
            kwargs = {}
            if args.seed is not None:
                kwargs["seed"] = args.seed
            if args.groups is not None:
                if args.preset != "scaled":
                    raise ConfigurationError(
                        "--groups only applies to the 'scaled' preset"
                    )
                kwargs["groups"] = args.groups
            spec = preset_spec(args.preset, **kwargs)
            source = f"preset {args.preset!r}"
        normal = normalize_spec(spec)
    except ConfigurationError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    if args.action == "show":
        print(dump_spec(normal), end="")
        return 0
    tenants = normal["demand"]["tenants"]
    print(
        f"{source}: valid — scenario {normal['name']!r}, "
        f"{len(tenants)} tenants on "
        f"{len(normal['topology']['pdus'])} PDU(s), seed {normal['seed']}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.errors import SweepError
    from repro.sweep import load_sweep_file, run_sweep, sweep_summary_path

    try:
        config = load_sweep_file(args.file)
        data = run_sweep(config, jobs=args.jobs, out_dir=args.out)
    except (ConfigurationError, SweepError) as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    cells = data["cells"]
    metric_names = sorted(cells[0]["metrics"]) if cells else []
    rows = [
        [
            cell["index"],
            ", ".join(f"{k}={v}" for k, v in cell["overrides"].items())
            or "(base)",
            cell["seed"],
            *(cell["metrics"][name] for name in metric_names),
        ]
        for cell in cells
    ]
    print(
        format_table(
            ["cell", "overrides", "seed", *metric_names],
            rows,
            title=(
                f"sweep {data['name']!r}: {len(cells)} cells x "
                f"{data['slots']} slots (jobs={args.jobs})"
            ),
        )
    )
    if args.out is not None:
        print(f"\nenvelope: {sweep_summary_path(args.out, data['name'])}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    path = pathlib.Path(args.file)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    shown = 0
    for line in text.splitlines():
        if line.startswith("# TYPE"):
            if args.filter and args.filter not in line:
                continue
            print(line.removeprefix("# TYPE "))
            shown += 1
        elif line and not line.startswith("#"):
            if args.filter and args.filter not in line:
                continue
            print(f"  {line}")
    if not shown and args.filter:
        print(f"no metric family matches {args.filter!r}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpotDC reproduction: regenerate the paper's evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    # Flags several commands share, each declared once.
    telemetry_flags = argparse.ArgumentParser(add_help=False)
    telemetry_flags.add_argument(
        "--telemetry", action="store_true",
        help="record a span trace, metrics dump, and summary JSON for "
        "every simulation the command runs",
    )
    telemetry_flags.add_argument(
        "--telemetry-dir", default="telemetry",
        help="directory for telemetry artifacts (default: ./telemetry)",
    )
    fault_flags = argparse.ArgumentParser(add_help=False)
    fault_flags.add_argument(
        "--fault-profile", choices=FAULT_CLASSES, default="none",
        help="inject a named fault class (compare: the marketless "
        "baseline faces only its infrastructure faults)",
    )
    fault_flags.add_argument(
        "--fault-intensity", type=float, default=DEFAULT_FAULT_INTENSITY,
        help="intensity of the injected fault class, in [0, 1]",
    )
    scenario_flags = argparse.ArgumentParser(
        add_help=False, parents=[fault_flags, telemetry_flags]
    )
    scenario_flags.add_argument(
        "--crash-at", type=int, default=None, metavar="SLOT",
        help="inject an operator crash at this slot (exit 3; exercises "
        "recovery)",
    )
    scenario_flags.add_argument(
        "--predictor", choices=SIGNAL_NAMES, default=None,
        help="forecasting signal for the predict phase "
        "(default: the paper's current-draw rule)",
    )
    scenario_flags.add_argument(
        "--risk-quantile", type=float, default=None, metavar="Q",
        help="release spot capacity at this overcommit quantile of the "
        "signal's confidence band, in (0, 1] (default: point forecast)",
    )
    scenario_flags.add_argument(
        "--event-schedule", default=None, metavar="FILE",
        help="grid-event schedule file (the scenario 'events' component "
        "as standalone JSON/YAML): EDR shocks, price spikes, cascades",
    )
    scenario_flags.add_argument(
        "--wholesale-trace", default=None, metavar="FILE",
        help="wholesale price trace (JSON array or one price per line) "
        "that the reserve price tracks during price events",
    )

    run = sub.add_parser(
        "run", help="run one experiment (or 'all')", parents=[telemetry_flags]
    )
    run.add_argument("target", help="experiment name or 'all'")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--slots", type=int, default=_RUN_SLOTS_DEFAULT,
        help="simulation horizon for the extended-run experiments",
    )
    run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep-style experiments "
        "(fig17, fig18, ablations, resilience, prediction-risk); "
        "results are identical at any job count",
    )
    run.set_defaults(func=_cmd_run)

    simulate = sub.add_parser(
        "simulate",
        help="one operator run of the testbed, with checkpoint/resume",
        parents=[scenario_flags],
    )
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--slots", type=int, default=500)
    simulate.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="K",
        help="write a recovery checkpoint every K completed slots",
    )
    simulate.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for checkpoint files",
    )
    simulate.add_argument(
        "--resume-from", default=None, metavar="PATH|auto",
        help="resume from a checkpoint file, or 'auto' for the latest "
        "in --checkpoint-dir",
    )
    simulate.add_argument(
        "--clearing-deadline", type=float, default=None, metavar="SECONDS",
        help="arm the clearing deadline guard with this wall-clock budget",
    )
    simulate.add_argument(
        "--profile", action="store_true",
        help="print a per-phase wall-clock table (predict/bid_collect/"
        "clear/grant/enforce/settle) from the telemetry spans",
    )
    simulate.set_defaults(func=_cmd_simulate)

    serve = sub.add_parser(
        "serve",
        help="run the spot market as a daemon on a unix socket",
        parents=[scenario_flags],
    )
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument("--slots", type=int, default=20)
    serve.add_argument(
        "--state-dir", required=True,
        help="daemon state directory (bid log, market journal, checkpoints)",
    )
    serve.add_argument(
        "--socket", required=True,
        help="unix socket path to listen on (keep it short: ~100 bytes)",
    )
    serve.add_argument(
        "--tick-seconds", type=float, default=None, metavar="S",
        help="clear a slot every S wall-clock seconds; omit for manual "
        "mode, where clients drive slots with 'tick' requests "
        "(deterministic lockstep)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=1024, metavar="N",
        help="bound on accepted bundles per slot; overflow sheds the "
        "oldest accepted bundle",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="resume from the newest valid checkpoint in the state dir",
    )
    serve.add_argument(
        "--kill-at", type=int, default=None, metavar="SLOT",
        help="SIGKILL our own process at this slot (crash testing)",
    )
    serve.add_argument(
        "--kill-point", default="post_journal",
        choices=("pre_step", "post_journal", "post_checkpoint"),
        help="where inside the --kill-at slot to die",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit bids to a running market daemon (client)",
    )
    submit.add_argument(
        "--socket", required=True, help="the daemon's unix socket"
    )
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument(
        "--retries", type=int, default=8,
        help="transport retries (exponential backoff with jitter)",
    )
    submit.add_argument(
        "--auto", action="store_true",
        help="drive a full synthetic session: submit bundles for every "
        "tenant and slot, run to completion, fetch invoices, shut the "
        "daemon down",
    )
    submit.add_argument(
        "--submit-only", action="store_true",
        help="with --auto: stop after submitting (no ticking/waiting)",
    )
    submit.add_argument(
        "--out", default=None, metavar="FILE",
        help="with --auto: write the invoices JSON here",
    )
    submit.add_argument(
        "--wait", type=float, default=120.0, metavar="SECONDS",
        help="with --auto against a wall-clock daemon: completion budget",
    )
    submit.add_argument(
        "--tenant", default=None, help="tenant id (single-bundle mode)"
    )
    submit.add_argument(
        "--slot", type=int, default=None,
        help="target slot (single-bundle mode)",
    )
    submit.add_argument(
        "--rack", action="append", default=[], metavar="SPEC",
        help="RACK_ID:linear:d_max,q_min,d_min,q_max or "
        "RACK_ID:step:demand_w,price_cap (repeatable)",
    )
    submit.add_argument(
        "--key", default=None,
        help="idempotency key (default: '<tenant>:<slot>')",
    )
    submit.set_defaults(func=_cmd_submit)

    compare = sub.add_parser(
        "compare",
        help="SpotDC vs PowerCapped vs MaxPerf summary",
        parents=[fault_flags],
    )
    compare.add_argument("--seed", type=int, default=None)
    compare.add_argument("--slots", type=int, default=2000)
    compare.set_defaults(func=_cmd_compare)

    trace = sub.add_parser(
        "trace", help="inspect a run's JSONL span trace"
    )
    trace.add_argument("file", help="a *_trace.jsonl file")
    trace.add_argument(
        "--slot", type=int, default=None,
        help="show one slot's span tree instead of the run summary",
    )
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="inspect a run's Prometheus metrics dump"
    )
    metrics.add_argument("file", help="a *_metrics.prom file")
    metrics.add_argument(
        "--filter", default="",
        help="only show lines containing this substring",
    )
    metrics.set_defaults(func=_cmd_metrics)

    scenario = sub.add_parser(
        "scenario",
        help="validate or canonically print a declarative scenario spec",
    )
    scenario.add_argument(
        "action", choices=("validate", "show"),
        help="'validate' checks and summarises; 'show' prints the "
        "canonical normalised spec",
    )
    scenario.add_argument(
        "file", nargs="?", default=None,
        help="a scenario spec file (JSON or YAML)",
    )
    scenario.add_argument(
        "--preset", choices=("testbed", "scaled"), default=None,
        help="use a built-in preset instead of a file",
    )
    scenario.add_argument(
        "--groups", type=int, default=None,
        help="Table I replication count for the 'scaled' preset",
    )
    scenario.add_argument(
        "--seed", type=int, default=None,
        help="override the preset's scenario seed",
    )
    scenario.set_defaults(func=_cmd_scenario)

    sweep = sub.add_parser(
        "sweep", help="run a declarative sweep file over scenario specs"
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    sweep_run = sweep_sub.add_parser(
        "run", help="run every cell of a sweep file's grid"
    )
    sweep_run.add_argument("file", help="a sweep file (JSON or YAML)")
    sweep_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (results identical at any job count)",
    )
    sweep_run.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write the validated BENCH_sweep_<name>.json envelope "
        "into DIR",
    )
    sweep_run.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        from repro.config import DEFAULT_SEED

        args.seed = DEFAULT_SEED
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
