"""The declared scenario checks: seeded campaigns held to their
expectations (``python -m repro check scenarios``).

Each runs at its library defaults and returns its report as text, its
record for ``repro_check.json`` and, for the capacity campaign, its
``kind=capacity`` event lines. Each imports its scenario's modules only
when it runs.
"""

from __future__ import annotations

from repro.checks.registry import SCENARIO, SCENARIOS, Verdict, register


@register("faults", "Fault injection", SCENARIOS, SCENARIO)
def _faults() -> Verdict:
    """Six seeded fault scenarios (crashes, flaky pulls, stalls, staging
    fully down): every task is accounted for and its value verified
    (scenarios expected, scenarios verified)."""
    from repro.faults import run_fault_sweep, sweep_table

    reports = run_fault_sweep()
    verified = sum(r.verified for r in reports.values())
    ok = verified == len(reports)
    return Verdict(
        len(reports), verified, None, ok,
        report=sweep_table(reports) + "\n" + (
            "every task completed or terminally failed, drained() fired, "
            "values verified" if ok
            else "ACCOUNTING FAILED: tasks lost or values wrong"),
        payload={name: {**r.to_metrics(), "accounted": r.verified}
                 for name, r in reports.items()})


@register("control", "Adaptive control", SCENARIOS, SCENARIO)
def _control() -> Verdict:
    """The adaptive controller against the static split under
    ``CONTROL_PLAN``'s crashes and stalls: adaptive makespan <= static
    (static makespan expected as the bound, adaptive measured)."""
    from repro.control import run_control_scenario

    report = run_control_scenario()
    text = report.table()
    if not report.improved:
        text += "\ncontrol gate FAILED: adaptive makespan exceeds static"
    return Verdict(report.static_makespan, report.adaptive_makespan, None,
                   report.improved, report=text, payload=report.summary())


def _capacity(inject_leak: bool) -> Verdict:
    """The capacity campaign's verdict, with or without the seeded leak
    (which must then be found as well)."""
    from repro.obs.capacity import (
        LEAK_INJECTOR_NODE,
        headroom_table,
        run_capacity_scenario,
    )

    outcome = run_capacity_scenario(inject_leak=inject_leak)
    merged, tenants = outcome["merged"], outcome["tenants"]
    violations = sum(r.headroom_violations for r in tenants.values())
    injected = [leak for leak in merged.leaks
                if leak["source"] == LEAK_INJECTOR_NODE]
    genuine = [leak for leak in merged.leaks
               if leak["source"] != LEAK_INJECTOR_NODE]
    lines = [headroom_table(tenants), "", merged.watermark_table(), "",
             merged.leak_table(), "",
             f"{merged.n_registers} registers / {merged.n_releases} "
             f"releases across {len(tenants)} tenant run(s); "
             f"peak resident {merged.peak_resident_bytes} bytes, "
             f"{len(merged.leaks)} leak(s), {violations} headroom "
             f"violation(s)"]
    if genuine:
        lines.append(f"capacity gate FAILED: {len(genuine)} leaked "
                     f"region(s) survived the drain")
    if violations:
        lines.append(f"capacity gate FAILED: measured peak exceeded the "
                     f"analytic staging_memory_needed bound in "
                     f"{violations} run(s)")
    if inject_leak and not injected:
        lines.append("capacity gate FAILED: the injected retention fault "
                     "was not detected")
    ok = not genuine and not violations and bool(injected or not inject_leak)
    if ok:
        lines.append("capacity gate: PASS")
    return Verdict(
        None, {"genuine_leaks": len(genuine),
               "headroom_violations": violations,
               "injected_leaks": len(injected)}, None, ok,
        report="\n".join(lines),
        payload={
            "tenants": {t: r.to_dict() for t, r in tenants.items()},
            "merged": merged.to_dict(),
            "makespans": outcome["makespans"],
            "inject_leak": outcome["inject_leak"],
            "n_events": len(outcome["events"]),
        },
        events=tuple(outcome["events"]))


@register("capacity", "Staging capacity", SCENARIOS, SCENARIO)
def _capacity_clean() -> Verdict:
    """The byte-accurate ledger over a two-tenant campaign: no leaked
    region survives the drain and no measured peak exceeds the analytic
    bound."""
    return _capacity(inject_leak=False)


@register("capacity-leak", "Staging capacity", SCENARIOS, SCENARIO)
def _capacity_leak() -> Verdict:
    """The same campaign with a seeded 1 MiB retention fault: the leak
    scan finds it, and nothing else."""
    return _capacity(inject_leak=True)
