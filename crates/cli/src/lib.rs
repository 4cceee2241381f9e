//! The `hsched` command-line front end.
//!
//! ```text
//! hsched check    spec.hsc                 parse + validate, print warnings
//! hsched analyze  spec.hsc [opts]          schedulability report + trace
//! hsched admit    spec.hsc script [opts]   online admission from a script
//! hsched simulate spec.hsc [opts]          run the DES, report stats/Gantt
//! hsched optimize spec.hsc [opts]          minimize Σα, synthesize servers
//! hsched fmt      spec.hsc                 canonical pretty-print
//! ```
//!
//! The command logic lives in this library (returning the rendered output as
//! a `String`) so it is unit-testable; `main.rs` is a thin shim. Every
//! command's output ends with exactly one trailing newline.

mod admit;
mod compact;
mod json;
mod net;
mod replay;
mod stats;

use hsched_admission::AdmissionPolicy;
use hsched_analysis::{analyze_with, AnalysisConfig, ScenarioMode, ServiceTimeMode, UpdateOrder};
use hsched_design::{minimize_bandwidth, sensitivity_report, synthesize_server, DesignConfig};
use hsched_numeric::{rat, Rational, Time};
use hsched_sim::{render_gantt, simulate, SimConfig};
use hsched_spec::{parse_and_validate, parse_str, to_source};
use hsched_transaction::{flatten, FlattenOptions, TransactionSet};
use std::fmt::Write as _;

/// Exit code of `hsched follow` when the standby's state digest diverged
/// from the primary's heartbeat digest — the mirror is not a faithful
/// copy and must not be promoted.
pub const EXIT_DIVERGED: i32 = 3;

/// Exit code of `hsched follow --exit-on-disconnect` when the primary
/// rejected the mirror's resume offset (compaction or a diverged
/// prefix): reconnecting would require a full resync.
pub const EXIT_RESUME_REJECTED: i32 = 4;

/// Maps an error message returned by [`run`] to the process exit code.
/// Generic failures exit 1; `hsched follow` failure classes get distinct
/// codes (documented in the FOLLOW help section) so supervisors can tell
/// "restart me" from "page a human".
pub fn exit_code_for(message: &str) -> i32 {
    if message.starts_with("standby diverged") {
        EXIT_DIVERGED
    } else if message.starts_with("standby resume rejected") {
        EXIT_RESUME_REJECTED
    } else {
        1
    }
}

/// Entry point: interprets `args` (without the program name) and returns the
/// text to print, or an error message (exit code via [`exit_code_for`]).
pub fn run(args: &[String]) -> Result<String, String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "check" => cmd_check(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "admit" => cmd_admit(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "compact" => cmd_compact(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "serve" => net::run_serve(&args[1..]),
        "follow" => net::run_follow(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "optimize" => cmd_optimize(&args[1..]),
        "headroom" => cmd_headroom(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "fmt" => cmd_fmt(&args[1..]),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    }
}

fn usage() -> String {
    "\
hsched — hierarchical scheduling for component-based real-time systems

USAGE:
    hsched <COMMAND> <SPEC.hsc> [OPTIONS]

COMMANDS:
    check       parse and validate a specification
    analyze     holistic schedulability analysis (§3 of the paper)
    admit       online admission control driven by a request script
    replay      rebuild an admission engine from its write-ahead journal
    compact     fold a journal's history into a snapshot block (truncates it)
    stats       run a request script, report engine telemetry only
    serve       TCP front end: serve the engine over the wire (+ replication)
    follow      warm standby: tail a serving primary's journal stream
    simulate    discrete-event simulation
    optimize    platform bandwidth minimization (§5 future work)
    headroom    per-task WCET sensitivity (largest schedulable scale factor)
    compare     analysis bounds vs simulated maxima with tightness ratios
    fmt         canonical pretty-print of the specification

ANALYZE OPTIONS:
    --exact <N>       exact scenario analysis, capped at N scenarios
    --exact-supply    invert exact supply staircases instead of (α,Δ,β) bounds
    --gauss-seidel    Gauss-Seidel jitter propagation in dependency order
                      (default: Jacobi, sweep by sweep, as in Table 3)
    --trace <TX>      print the iteration trace of transaction index TX
    --no-external     do not generate transactions for unbound provided methods
    --json            machine-readable report on stdout (exit 0 even on MISS)

ADMIT: hsched admit <SPEC.hsc> <SCRIPT> [OPTIONS]
    The script holds add/remove/retune request lines batched by `commit`
    (see the hsched-admission crate docs for the grammar). Batches are
    committed by the sharded admission engine: disjoint interference-island
    shards analyze concurrently. Exit 0 unless the spec or script is
    malformed; rejections are regular output.
    --json            machine-readable verdicts + final report (schema v2)
    --journal <FILE>  append every epoch to a write-ahead journal
    --auto-compact <N> fold the journal into a snapshot every N epochs
    --async           pipeline epochs: commit all batches without waiting
                      for per-epoch durability, then one final sync
    --stats           append the engine telemetry report (per-phase epoch
                      timers, contention counters, cache distributions)
    --no-external     as for analyze
    --cold            disable warm-started fixpoints
    --full            disable dirty tracking (re-analyze everything)

REPLAY: hsched replay <SPEC.hsc> <JOURNAL> [OPTIONS]
    Rebuilds the engine recorded by `admit --journal` (same spec!) by
    applying every journaled epoch (streamed, O(1) memory) and analyzing
    each island the epochs changed once, at the end; torn journal tails
    are repaired, and a compacted journal resumes from its snapshot
    block. The printed state digest matches the admit run's digest iff
    the rebuilt engine is byte-identical. Options as for admit, plus:
    --verify          audit: re-analyze every epoch as the live engine did
                      and cross-check each recorded verdict (the only check
                      that catches a record marked rejected whose batch
                      admits; costs the whole history's analysis)

COMPACT: hsched compact <SPEC.hsc> <JOURNAL> [OPTIONS]
    Journal compaction for long-lived engines: rebuilds the engine (as
    replay does), serializes its live state into the journal as a
    snapshot block, and truncates all earlier records — atomically (a
    crash mid-compaction keeps the old journal). Later admit/replay runs
    resume from snapshot + tail. Options as for admit.

STATS: hsched stats <SPEC.hsc> <SCRIPT> [OPTIONS]
    Commits the script's batches (pipelined) and reports only the
    always-on engine telemetry: per-phase epoch timers (reserve, route,
    checkout, analyze, settle), front-door contention counters, admission
    cone geometry, and analysis-cache distributions. Histogram quantiles
    are log2-bucket ceilings. Options as for admit (minus the journal).

SERVE: hsched serve <SPEC.hsc> [OPTIONS]
    Seed (or, with an existing --journal, resume) an engine and serve it
    over TCP — the framed protocol of docs/WIRE_PROTOCOL.md; every
    connection pipelines epochs and shares the group commit. SIGINT or
    SIGTERM drains gracefully: in-flight epochs settle and one final
    sync makes everything durable. Engine flags as for admit.
    --addr <A>          service bind address (default 127.0.0.1:7433;
                        port 0 lets the OS pick)
    --repl <A>          also bind a replication port streaming the
                        journal to warm standbys (requires --journal)
    --journal <FILE>    write-ahead journal (resumed if non-empty)
    --heartbeat-ms <N>  replication digest-heartbeat cadence (default 500)
    --addr-file <F>     write the bound addresses to F (for scripts)

FOLLOW: hsched follow <SPEC.hsc> --from <HOST:PORT> --journal <FILE>
    Warm standby: mirror the primary's journal byte-for-byte into FILE,
    applying records through streaming replay as they arrive and
    cross-checking the primary's digest heartbeats. Reconnects resume
    from the mirror's valid prefix (no re-streaming); divergence is
    refused loudly. Same spec as the primary!
    --exit-on-disconnect  exit when the primary goes away instead of
                          retrying; a rejected resume offer is then
                          fatal too (exit 4), never a silent resync
    --promote-on-loss     take over when the primary stays gone: after
                          --max-reconnects sessions without progress,
                          replay the mirror into a serving primary
                          (epoch + digest cross-checked against the
                          live standby) and serve it — the process
                          becomes `hsched serve` on the inherited
                          journal (accepts --addr, --repl,
                          --heartbeat-ms, --addr-file as for serve)
    --max-reconnects <N>  consecutive failed sessions before the
                          primary counts as lost (default 5)
    Exit codes: 0 clean exit (stopped, caught up, or disconnected);
    1 wire/usage failure; 3 standby digest diverged from the primary;
    4 the primary rejected the mirror's resume offset.

REMOTE: admit/stats against a serving primary
    hsched admit <SPEC.hsc> <SCRIPT> --remote <HOST:PORT> [--async] [--json]
    hsched stats --remote <HOST:PORT> [--json]
    The admit script is parsed locally (same spec as the server!) and
    submitted over the wire; --async pipelines the whole run on one
    connection with a single group commit. Rejected epochs carry stable
    reason codes (err_code in JSON); engine errors come back as typed
    wire errors. --journal/--auto-compact stay server-side.
    --retry <N>       retry transient wire failures (dead connections,
                      `overloaded` shed replies with their
                      retry-after-ms hint) up to N times with
                      exponential backoff + jitter; per-batch
                      idempotency tickets make resends safe, so no
                      batch ever commits twice

SIMULATE OPTIONS:
    --horizon <T>     simulated time (default 1000)
    --seed <S>        RNG seed (default 0; implies randomized execution)
    --worst           adversarial worst-case regime (default when no --seed)
    --gantt <W>       render an ASCII Gantt chart of the first W time units
    --no-external     as above
"
    .to_string()
}

/// Pulls `--flag value` out of an option list.
fn opt_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.as_str())),
            None => Err(format!("{flag} needs a value")),
        },
    }
}

fn opt_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_time(text: &str, what: &str) -> Result<Time, String> {
    text.parse::<Rational>()
        .map_err(|e| format!("bad {what} `{text}`: {e}"))
}

fn load(args: &[String]) -> Result<(String, TransactionSet), String> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("expected a .hsc file path".to_string());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let (system, platforms) = parse_and_validate(&source).map_err(|e| format!("{path}:{e}"))?;
    let options = FlattenOptions {
        external_stimuli: !opt_flag(args, "--no-external"),
    };
    let set = flatten(&system, &platforms, options).map_err(|e| e.to_string())?;
    Ok((path.clone(), set))
}

fn cmd_check(args: &[String]) -> Result<String, String> {
    let Some(path) = args.first() else {
        return Err("expected a .hsc file path".to_string());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let (system, platforms) = parse_str(&source).map_err(|e| format!("{path}:{e}"))?;
    let report = system.validate();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: {} classes, {} instances, {} bindings, {} platforms",
        system.classes.len(),
        system.instances.len(),
        system.bindings.len(),
        platforms.len()
    );
    for w in &report.warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    if report.is_ok() {
        let _ = writeln!(out, "ok");
        Ok(out)
    } else {
        for e in &report.errors {
            let _ = writeln!(out, "error: {e}");
        }
        Err(out)
    }
}

fn cmd_analyze(args: &[String]) -> Result<String, String> {
    if opt_flag(args, "--threads") {
        return Err(
            "analyze has no --threads: the analysis runs on one thread; \
             --gauss-seidel is the faster order"
                .to_string(),
        );
    }
    let (path, set) = load(args)?;
    let mut config = AnalysisConfig::default();
    if let Some(n) = opt_value(args, "--exact")? {
        let cap: u64 = n.parse().map_err(|_| format!("bad scenario cap `{n}`"))?;
        config.scenario_mode = ScenarioMode::Exact { max_scenarios: cap };
    }
    if opt_flag(args, "--gauss-seidel") {
        config.update_order = UpdateOrder::GaussSeidel;
    }
    if opt_flag(args, "--exact-supply") {
        config.service_mode = ServiceTimeMode::ExactCurve;
    }
    let report = analyze_with(&set, &config).map_err(|e| e.to_string())?;
    if opt_flag(args, "--json") {
        // Machine-readable contract: the verdict lives in the payload, so
        // the exit code is 0 regardless of schedulability.
        let mut w = json::JsonWriter::new();
        json::write_report(&mut w, None, &report);
        return Ok(w.finish());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: {} transactions, {} tasks",
        set.transactions().len(),
        set.num_tasks()
    );
    let _ = write!(out, "{report}");
    if let Some(tx) = opt_value(args, "--trace")? {
        let i: usize = tx
            .parse()
            .map_err(|_| format!("bad transaction index `{tx}`"))?;
        if i >= set.transactions().len() {
            return Err(format!("transaction index {i} out of range"));
        }
        let _ = writeln!(out, "\niteration trace of Γ{}:", i + 1);
        let _ = write!(out, "{}", report.trace_table(i));
    }
    if report.schedulable() {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Parses the engine policy flags shared by `admit`, `replay`, and
/// `compact` (`--no-external`, `--cold`, `--full`).
fn engine_policy(args: &[String]) -> AdmissionPolicy {
    AdmissionPolicy {
        dirty_tracking: !opt_flag(args, "--full"),
        warm_start: !opt_flag(args, "--cold"),
        external_stimuli: !opt_flag(args, "--no-external"),
        ..AdmissionPolicy::default()
    }
}

/// The strictly positional journal argument of `replay` / `compact`
/// (`<SPEC> <JOURNAL> [OPTIONS]`).
fn journal_arg(args: &[String]) -> Result<&str, String> {
    args.get(1)
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .ok_or_else(|| "expected a journal path after the spec".to_string())
}

fn cmd_admit(args: &[String]) -> Result<String, String> {
    let (path, set) = load(args)?;
    // Strictly positional (`admit <SPEC> <SCRIPT> [OPTIONS]`): scanning for
    // "any non-flag token" would mistake a flag's value for the script.
    let Some(script_path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        return Err("expected a request script path after the spec".to_string());
    };
    let script = std::fs::read_to_string(script_path)
        .map_err(|e| format!("cannot read `{script_path}`: {e}"))?;
    let batches = admit::parse_script(&script, &set).map_err(|e| format!("{script_path}: {e}"))?;
    let retry: u32 = match opt_value(args, "--retry")? {
        Some(n) => n.parse().map_err(|_| format!("bad retry count `{n}`"))?,
        None => 0,
    };
    if let Some(remote) = opt_value(args, "--remote")? {
        // Client mode: the engine (and its journal) live in the serving
        // primary; journal flags here would silently do nothing.
        if opt_value(args, "--journal")?.is_some() || opt_value(args, "--auto-compact")?.is_some() {
            return Err("--journal/--auto-compact are server-side; not valid with --remote".into());
        }
        return net::run_admit_remote(
            &path,
            remote,
            &batches,
            opt_flag(args, "--json"),
            opt_flag(args, "--async"),
            opt_flag(args, "--stats"),
            retry,
        );
    }
    if retry > 0 {
        return Err("--retry is a wire-client knob; it needs --remote".into());
    }
    let policy = engine_policy(args);
    let auto_compact = match opt_value(args, "--auto-compact")? {
        Some(n) => Some(
            n.parse::<u64>()
                .map_err(|_| format!("bad auto-compact epoch count `{n}`"))?,
        ),
        None => None,
    };
    admit::run_admission(
        &path,
        set,
        &batches,
        policy,
        opt_flag(args, "--json"),
        opt_value(args, "--journal")?,
        auto_compact,
        opt_flag(args, "--async"),
        opt_flag(args, "--stats"),
    )
}

fn cmd_stats(args: &[String]) -> Result<String, String> {
    // Remote mode needs neither the spec nor a script: the engine (and
    // its workload) live in the serving primary.
    if let Some(remote) = opt_value(args, "--remote")? {
        return net::run_stats_remote(remote, opt_flag(args, "--json"));
    }
    let (path, set) = load(args)?;
    // Strictly positional, exactly as `admit`.
    let Some(script_path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        return Err("expected a request script path after the spec".to_string());
    };
    let script = std::fs::read_to_string(script_path)
        .map_err(|e| format!("cannot read `{script_path}`: {e}"))?;
    let batches = admit::parse_script(&script, &set).map_err(|e| format!("{script_path}: {e}"))?;
    let policy = engine_policy(args);
    stats::run_stats(&path, set, &batches, policy, opt_flag(args, "--json"))
}

fn cmd_replay(args: &[String]) -> Result<String, String> {
    let (path, set) = load(args)?;
    let journal_path = journal_arg(args)?.to_string();
    let policy = engine_policy(args);
    replay::run_replay(
        &path,
        set,
        &journal_path,
        policy,
        opt_flag(args, "--json"),
        opt_flag(args, "--verify"),
    )
}

fn cmd_compact(args: &[String]) -> Result<String, String> {
    let (path, set) = load(args)?;
    let journal_path = journal_arg(args)?.to_string();
    let policy = engine_policy(args);
    compact::run_compact(&path, set, &journal_path, policy, opt_flag(args, "--json"))
}

fn cmd_simulate(args: &[String]) -> Result<String, String> {
    let (path, set) = load(args)?;
    let horizon = match opt_value(args, "--horizon")? {
        Some(t) => parse_time(t, "horizon")?,
        None => rat(1000, 1),
    };
    let mut config = match opt_value(args, "--seed")? {
        Some(s) => {
            let seed: u64 = s.parse().map_err(|_| format!("bad seed `{s}`"))?;
            SimConfig::randomized(horizon, seed)
        }
        None => SimConfig::worst_case(horizon),
    };
    if opt_flag(args, "--worst") {
        config = SimConfig::worst_case(horizon);
    }
    let gantt_window = match opt_value(args, "--gantt")? {
        Some(w) => {
            config.record_trace = true;
            Some(parse_time(w, "gantt window")?)
        }
        None => None,
    };
    let result = simulate(&set, &config);
    let mut out = String::new();
    let _ = writeln!(out, "{path}: simulated to t = {}", result.end_time);
    let _ = writeln!(
        out,
        "transaction                      releases  done  misses  max-end-to-end"
    );
    for (i, tx) in set.transactions().iter().enumerate() {
        let s = result.transaction_stats(i);
        let _ = writeln!(
            out,
            "Γ{} {:<28} {:<9} {:<5} {:<7} {}",
            i + 1,
            tx.name,
            s.releases,
            s.completions,
            s.deadline_misses,
            s.max_end_to_end
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into())
        );
        for (j, task) in tx.tasks().iter().enumerate() {
            let ts = result.task_stats(i, j);
            let _ = writeln!(
                out,
                "  τ{},{} {:<30} max {:<8} mean {}",
                i + 1,
                j + 1,
                task.name,
                ts.max_response
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into()),
                ts.mean_response()
                    .map(|t| t.to_f64().to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
    }
    if let Some(window) = gantt_window {
        let _ = writeln!(out);
        let _ = write!(
            out,
            "{}",
            render_gantt(&result.trace, set.platforms().len(), rat(0, 1), window, 100)
        );
    }
    Ok(out)
}

fn cmd_optimize(args: &[String]) -> Result<String, String> {
    let (path, set) = load(args)?;
    let plan = minimize_bandwidth(&set, &DesignConfig::default())
        .ok_or_else(|| format!("{path}: system is not schedulable as provisioned"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: total bandwidth {} -> {} ({:.1}% saved)",
        plan.before,
        plan.after,
        (plan.before - plan.after).to_f64() / plan.before.to_f64() * 100.0
    );
    for (id, p) in plan.platforms.iter() {
        let _ = write!(out, "  {id} {:<14} α = {}", p.name(), p.alpha());
        if p.alpha() < rat(1, 1) && p.delta().is_positive() {
            if let Some(server) = synthesize_server(p.alpha(), p.delta()) {
                let _ = write!(
                    out,
                    "   server: Q = {}, P = {}",
                    server.budget(),
                    server.period()
                );
            }
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

fn cmd_compare(args: &[String]) -> Result<String, String> {
    let (path, set) = load(args)?;
    let horizon = match opt_value(args, "--horizon")? {
        Some(t) => parse_time(t, "horizon")?,
        None => rat(2000, 1),
    };
    let report = analyze_with(&set, &AnalysisConfig::default()).map_err(|e| e.to_string())?;
    if report.diverged {
        return Err(format!(
            "{path}: demand exceeds platform capacity; nothing to compare"
        ));
    }
    let sim = simulate(&set, &SimConfig::worst_case(horizon));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: analysis vs worst-case simulation over {horizon} time units"
    );
    let _ = writeln!(out, "  task   bound      observed   tightness");
    let mut violations = 0u32;
    for r in set.task_refs() {
        let bound = report.response(r.tx, r.idx);
        match sim.task_stats(r.tx, r.idx).max_response {
            Some(observed) => {
                if observed > bound {
                    violations += 1;
                }
                let _ = writeln!(
                    out,
                    "  {r}   {:<10} {:<10} {:.3}{}",
                    bound.to_string(),
                    observed.to_string(),
                    (observed / bound).to_f64(),
                    if observed > bound {
                        "  ← BOUND VIOLATED"
                    } else {
                        ""
                    }
                );
            }
            None => {
                let _ = writeln!(out, "  {r}   {:<10} (no completions)", bound.to_string());
            }
        }
    }
    if violations > 0 {
        let _ = writeln!(
            out,
            "
{violations} bound violation(s) — this indicates a bug"
        );
        return Err(out);
    }
    let _ = writeln!(
        out,
        "
all observed maxima within analytic bounds"
    );
    Ok(out)
}

fn cmd_headroom(args: &[String]) -> Result<String, String> {
    let (path, set) = load(args)?;
    let ceiling = match opt_value(args, "--ceiling")? {
        Some(c) => c
            .parse::<Rational>()
            .map_err(|e| format!("bad ceiling `{c}`: {e}"))?,
        None => rat(16, 1),
    };
    let report = sensitivity_report(&set, ceiling, &DesignConfig::default());
    let mut out = String::new();
    let _ = writeln!(out, "{path}: WCET headroom (most critical first)");
    for s in &report {
        let scale = match &s.max_scale {
            Some(x) if *x >= ceiling => format!(">= {}x", ceiling),
            Some(x) => format!("{:.2}x", x.to_f64()),
            None => "unschedulable as-is".to_string(),
        };
        let _ = writeln!(out, "  {} {:<36} {scale}", s.task, s.name);
    }
    Ok(out)
}

fn cmd_fmt(args: &[String]) -> Result<String, String> {
    let Some(path) = args.first() else {
        return Err("expected a .hsc file path".to_string());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let (system, platforms) = parse_str(&source).map_err(|e| format!("{path}:{e}"))?;
    Ok(to_source(&system, &platforms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    const SPEC: &str = r#"
class SensorReading {
    provided read() mit 50;
    thread Thread1 periodic period 15 priority 2 { task acquire wcet 1 bcet 0.25; }
    thread Thread2 realizes read priority 1 { task serve_read wcet 1 bcet 0.8; }
}
class SensorIntegration {
    provided read() mit 70;
    required readSensor1();
    required readSensor2();
    thread Thread1 realizes read priority 1 { task serve_read wcet 7 bcet 5; }
    thread Thread2 periodic period 50 priority 2 {
        task init wcet 1 bcet 0.8;
        call readSensor1;
        call readSensor2;
        task compute wcet 1 bcet 0.8;
    }
}
platform Pi1 cpu alpha 0.4 delta 1 beta 1;
platform Pi2 cpu alpha 0.4 delta 1 beta 1;
platform Pi3 cpu alpha 0.2 delta 2 beta 1;
instance Sensor1 : SensorReading on Pi1 node 0;
instance Sensor2 : SensorReading on Pi2 node 0;
instance Integrator : SensorIntegration on Pi3 node 0;
bind Integrator.readSensor1 -> Sensor1.read;
bind Integrator.readSensor2 -> Sensor2.read;
"#;

    fn spec_file() -> tempfile::TempPath {
        let mut f = tempfile::Builder::new()
            .suffix(".hsc")
            .tempfile()
            .expect("tempfile");
        f.write_all(SPEC.as_bytes()).unwrap();
        f.into_temp_path()
    }

    // A minimal tempfile shim (no external dependency): write into a unique
    // path under the target dir.
    mod tempfile {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub struct Builder {
            suffix: String,
        }

        pub struct NamedFile {
            file: std::fs::File,
            path: PathBuf,
        }

        pub struct TempPath(PathBuf);

        impl Builder {
            pub fn new() -> Builder {
                Builder {
                    suffix: String::new(),
                }
            }
            pub fn suffix(mut self, s: &str) -> Builder {
                self.suffix = s.to_string();
                self
            }
            pub fn tempfile(self) -> std::io::Result<NamedFile> {
                let n = COUNTER.fetch_add(1, Ordering::SeqCst);
                let path = std::env::temp_dir().join(format!(
                    "hsched-cli-test-{}-{n}{}",
                    std::process::id(),
                    self.suffix
                ));
                let file = std::fs::File::create(&path)?;
                Ok(NamedFile { file, path })
            }
        }

        impl NamedFile {
            pub fn into_temp_path(self) -> TempPath {
                TempPath(self.path)
            }
        }

        impl std::io::Write for NamedFile {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                std::io::Write::write(&mut self.file, buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                std::io::Write::flush(&mut self.file)
            }
        }

        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        impl std::ops::Deref for TempPath {
            type Target = std::path::Path;
            fn deref(&self) -> &std::path::Path {
                &self.0
            }
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown() {
        let help = run(&args(&["help"])).unwrap();
        assert!(help.contains("USAGE"));
        // The failure-semantics surface is documented: follow's typed
        // exit codes and the remote retry knob.
        assert!(help.contains("--promote-on-loss"), "{help}");
        assert!(help.contains("--max-reconnects"), "{help}");
        assert!(help.contains("3 standby digest diverged"), "{help}");
        assert!(help.contains("--retry"), "{help}");
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(run(&[]).is_err());
    }

    #[test]
    fn exit_codes_for_follow_failures() {
        assert_eq!(
            exit_code_for("standby diverged: primary digest x, standby digest y"),
            EXIT_DIVERGED
        );
        assert_eq!(
            exit_code_for("standby resume rejected: primary rejected the resume offer"),
            EXIT_RESUME_REJECTED
        );
        assert_eq!(exit_code_for("standby refused: protocol violation"), 1);
        assert_eq!(exit_code_for("cannot read `x.hsc`"), 1);
    }

    #[test]
    fn check_command() {
        let path = spec_file();
        let out = run(&args(&["check", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("2 classes"));
        assert!(out.contains("ok"));
        // The Integrator's own read() is unbound: a warning, not an error.
        assert!(out.contains("warning"));
    }

    #[test]
    fn analyze_command_reports_table3_fixpoint() {
        let path = spec_file();
        let out = run(&args(&["analyze", path.to_str().unwrap(), "--trace", "2"])).unwrap();
        assert!(out.contains("schedulability: OK"));
        assert!(out.contains("iteration trace of Γ3"));
    }

    #[test]
    fn analyze_exact_supply_mode() {
        // A spec with a server-backed platform: the exact staircase mode
        // must succeed (and is generally tighter).
        let mut f = tempfile::Builder::new().suffix(".hsc").tempfile().unwrap();
        f.write_all(
            br#"
class W {
    thread T periodic period 50 priority 1 { task a wcet 2 bcet 1; }
}
platform S cpu server budget 2 period 5;
instance I : W on S node 0;
"#,
        )
        .unwrap();
        let path = f.into_temp_path();
        let exact = run(&args(&[
            "analyze",
            path.to_str().unwrap(),
            "--exact-supply",
        ]))
        .unwrap();
        assert!(exact.contains("schedulability: OK"));
    }

    #[test]
    fn analyze_gauss_seidel_and_threads() {
        let path = spec_file();
        let out = run(&args(&[
            "analyze",
            path.to_str().unwrap(),
            "--gauss-seidel",
        ]))
        .unwrap();
        assert!(out.contains("schedulability: OK"));
        // The analysis runs on one thread: the flag errors, naming the
        // faster order instead.
        let err = run(&args(&[
            "analyze",
            path.to_str().unwrap(),
            "--threads",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("--gauss-seidel"), "{err}");
    }

    #[test]
    fn analyze_json_reports_verdict_with_exit_zero() {
        let path = spec_file();
        let out = run(&args(&["analyze", path.to_str().unwrap(), "--json"])).unwrap();
        assert!(out.starts_with('{') && out.ends_with("}\n"));
        assert!(out.contains("\"schedulable\":true"));
        assert!(out.contains("\"Integrator.Thread2\""));

        // Unschedulable spec: still Ok (exit 0), verdict in the payload.
        let mut f = tempfile::Builder::new().suffix(".hsc").tempfile().unwrap();
        f.write_all(
            br#"
class W {
    thread T periodic period 10 priority 1 { task a wcet 2 bcet 1; }
}
platform S cpu alpha 0.25 delta 3 beta 0;
instance I : W on S node 0;
"#,
        )
        .unwrap();
        let bad = f.into_temp_path();
        let out = run(&args(&["analyze", bad.to_str().unwrap(), "--json"])).unwrap();
        assert!(out.contains("\"schedulable\":false"));
    }

    #[test]
    fn analyze_refuses_a_system_outside_the_numeric_bound() {
        // The analysis crate's hostile grid system: scaled by its grid, the
        // bail-out window would leave i128. Linear analysis refuses it with
        // the numeric message and prints no report, in text and JSON.
        let mut f = tempfile::Builder::new().suffix(".hsc").tempfile().unwrap();
        f.write_all(
            br#"
class Hog {
    thread H periodic period 1/11 deadline 100000000000000000000/17 priority 2 {
        task h wcet 1000000000000000000000000000000/7 bcet 500000000000000000000000000000/7;
    }
}
class Victim {
    thread V periodic period 5/29 deadline 100000000000000000000/31 priority 1 {
        task v wcet 1/37 bcet 1/41;
    }
}
platform p cpu alpha 3/13 delta 1/19 beta 1/23;
instance hog : Hog on p node 0;
instance victim : Victim on p node 0;
"#,
        )
        .unwrap();
        let hostile = f.into_temp_path();
        for extra in [None, Some("--json")] {
            let mut list = vec!["analyze", hostile.to_str().unwrap()];
            list.extend(extra);
            let err = run(&args(&list)).unwrap_err();
            assert!(err.contains("scale k = 2340386642517"), "{err}");
            assert!(err.contains("exceeds 2^123"), "{err}");
            assert!(
                !err.contains("schedulability") && !err.contains('{'),
                "{err}"
            );
        }
    }

    fn script_file(content: &str) -> tempfile::TempPath {
        let mut f = tempfile::Builder::new().suffix(".req").tempfile().unwrap();
        f.write_all(content.as_bytes()).unwrap();
        f.into_temp_path()
    }

    #[test]
    fn admit_command_runs_batches() {
        let spec = spec_file();
        let script = script_file(
            "# a light arrival, then a doomed overload, then a departure\n\
             add probe period 60 deadline 120 task p wcet 1 bcet 0.5 prio 1 on Pi1\n\
             commit\n\
             add hog period 10 deadline 10 task h wcet 9 bcet 9 prio 9 on Pi3\n\
             commit\n\
             remove probe\n",
        );
        let out = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("3 batch(es) against 4 initial transaction(s)"));
        assert!(out.contains("epoch 1: admitted"));
        assert!(out.contains("epoch 2: rejected (overload on Pi3"));
        assert!(out.contains("epoch 3: admitted"));
        assert!(out.contains("admitted 2 / rejected 1"));
        assert!(out.contains("final system:"));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn admit_command_json_and_retune() {
        let spec = spec_file();
        let script = script_file(
            "retune Pi3 alpha 0.3 delta 1 beta 1\n\
             commit\n",
        );
        let out = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        assert!(out.starts_with('{') && out.ends_with("}\n"));
        assert!(out.starts_with("{\"v\":2,\"command\":\"admit\""), "{out}");
        assert!(out.contains("\"verdict\":\"admitted\""));
        assert!(out.contains("\"engine\":{"));
        assert!(out.contains("\"digest\":\""));
        assert!(out.contains("\"final\":{"));
        assert!(out.contains("\"schedulable\":true"));
    }

    fn extract_digest(json: &str) -> &str {
        let start = json.find("\"digest\":\"").expect("digest present") + 10;
        &json[start..start + 16]
    }

    #[test]
    fn admit_stats_flag_appends_telemetry() {
        let spec = spec_file();
        let script = script_file(
            "add probe period 60 deadline 120 task p wcet 1 bcet 0.5 prio 1 on Pi1\n\
             commit\n\
             remove probe\n",
        );
        let json = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--stats",
            "--json",
        ]))
        .unwrap();
        assert!(json.starts_with("{\"v\":2,\"command\":\"admit\""), "{json}");
        assert!(json.contains("\"telemetry\":{"), "{json}");
        assert!(json.contains("\"engine.epochs_settled\":2"), "{json}");
        assert!(json.contains("\"engine.phase.analyze_ns\":{"), "{json}");
        assert!(json.contains("\"p95\":"), "{json}");
        // Balanced containers (the telemetry block nests three deep).
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes, "{json}");

        let human = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--stats",
        ]))
        .unwrap();
        assert!(human.contains("telemetry:"), "{human}");
        assert!(human.contains("engine.epochs_settled"), "{human}");

        // Without the flag, no telemetry section is rendered.
        let plain = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(!plain.contains("telemetry"), "{plain}");
    }

    #[test]
    fn stats_command_reports_telemetry_only() {
        let spec = spec_file();
        let script = script_file(
            "add probe period 60 deadline 120 task p wcet 1 bcet 0.5 prio 1 on Pi1\n\
             commit\n\
             add hog period 10 deadline 10 task h wcet 9 bcet 9 prio 9 on Pi3\n\
             commit\n\
             remove probe\n",
        );
        let out = run(&args(&[
            "stats",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            out.contains("3 epoch(s) committed (2 admitted, 1 rejected)"),
            "{out}"
        );
        assert!(out.contains("engine.phase.reserve_ns"), "{out}");
        assert!(out.contains("analysis.interference"), "{out}");
        assert!(out.contains("admission.cone.transactions"), "{out}");

        let json = run(&args(&[
            "stats",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        assert!(json.starts_with("{\"v\":2,\"command\":\"stats\""), "{json}");
        assert!(json.contains("\"epochs\":3"), "{json}");
        assert!(json.contains("\"engine.epochs_settled\":3"), "{json}");
        assert!(json.contains("\"engine.phase.settle_ns\":{"), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
    }

    #[test]
    fn admit_journal_then_replay_is_byte_identical() {
        let spec = spec_file();
        let script = script_file(
            "add probe period 60 deadline 120 task p wcet 1 bcet 0.5 prio 1 on Pi1\n\
             commit\n\
             add hog period 10 deadline 10 task h wcet 9 bcet 9 prio 9 on Pi3\n\
             commit\n\
             remove probe\n",
        );
        let journal = std::env::temp_dir().join(format!(
            "hsched-cli-test-journal-{}.journal",
            std::process::id()
        ));
        let out = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--json",
            "--journal",
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        let admit_digest = extract_digest(&out).to_string();

        // "Crash" happened (the admit process is gone); rebuild and verify.
        let replayed = run(&args(&[
            "replay",
            spec.to_str().unwrap(),
            journal.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        assert!(
            replayed.starts_with("{\"v\":2,\"command\":\"replay\""),
            "{replayed}"
        );
        assert!(replayed.contains("\"epochs_replayed\":3"));
        assert!(replayed.contains("\"journal_bytes\":"), "{replayed}");
        assert!(replayed.contains("\"repaired_bytes\":0"), "{replayed}");
        assert_eq!(extract_digest(&replayed), admit_digest);

        // Human mode prints the digest, replay count, and journal facts.
        let human = run(&args(&[
            "replay",
            spec.to_str().unwrap(),
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(human.contains("replayed 3 epoch(s)"));
        assert!(human.contains("journal: 3 record(s)"), "{human}");
        assert!(!human.contains("torn-tail"), "{human}");
        assert!(human.contains(&admit_digest));
        assert!(human.contains("final system:"));

        // The audit re-derives all three verdicts and lands on the same
        // engine.
        let verified = run(&args(&[
            "replay",
            spec.to_str().unwrap(),
            journal.to_str().unwrap(),
            "--verify",
        ]))
        .unwrap();
        assert!(
            verified.contains("all 3 recorded verdict(s) agree"),
            "{verified}"
        );
        assert!(verified.contains(&admit_digest), "{verified}");
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn replay_verify_refuses_a_rejected_record_whose_batch_admits() {
        let spec = spec_file();
        let script =
            script_file("add probe period 60 deadline 120 task p wcet 1 bcet 0.5 prio 1 on Pi1\n");
        let journal = std::env::temp_dir().join(format!(
            "hsched-cli-test-forged-{}.journal",
            std::process::id()
        ));
        run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        // Forge the one record's verdict: the batch admits, the journal
        // now says it was rejected.
        let text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(text.matches("verdict admitted").count(), 1, "{text}");
        std::fs::write(
            &journal,
            text.replace("verdict admitted", "verdict rejected"),
        )
        .unwrap();
        let replay = |extra: &[&str]| {
            let mut argv = vec!["replay", spec.to_str().unwrap(), journal.to_str().unwrap()];
            argv.extend_from_slice(extra);
            run(&args(&argv))
        };
        // Structural replay cannot see it: a rejection changes nothing.
        let plain = replay(&[]).unwrap();
        assert!(plain.contains("admitted 0 / rejected 1"), "{plain}");
        let err = replay(&["--verify"]).unwrap_err();
        assert!(
            err.contains("journal records rejected, replay produced admitted"),
            "{err}"
        );
        let _ = std::fs::remove_file(&journal);
    }

    /// Serializes every test that reads or writes the process-wide
    /// signal stop flag (`admit --async` reads it; the serve/follow
    /// tests set and reset it), and hands it over cleared.
    static SIGNAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn signal_lock() -> std::sync::MutexGuard<'static, ()> {
        let guard = SIGNAL.lock().unwrap_or_else(|p| p.into_inner());
        hsched_net::signal::reset();
        guard
    }

    #[test]
    fn admit_async_pipelines_and_replays_byte_identically() {
        let _signal = signal_lock();
        let spec = spec_file();
        let script = script_file(
            "add probe period 60 deadline 120 task p wcet 1 bcet 0.5 prio 1 on Pi1\n\
             commit\n\
             add hog period 10 deadline 10 task h wcet 9 bcet 9 prio 9 on Pi3\n\
             commit\n\
             remove probe\n",
        );
        let journal = std::env::temp_dir().join(format!(
            "hsched-cli-test-async-{}.journal",
            std::process::id()
        ));
        let human = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--async",
            "--journal",
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            human.contains(
                "pipelined: 3 epoch(s) committed async, one sync; durable through epoch 3"
            ),
            "{human}"
        );

        let out = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--json",
            "--async",
        ]))
        .unwrap();
        assert!(out.contains("\"mode\":\"async\""), "{out}");
        let admit_digest = extract_digest(&out).to_string();

        // The pipelined journal replays to the same engine as a sync run.
        let replayed = run(&args(&[
            "replay",
            spec.to_str().unwrap(),
            journal.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        assert!(replayed.contains("\"epochs_replayed\":3"), "{replayed}");
        assert_eq!(extract_digest(&replayed), admit_digest);
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn compact_folds_history_and_replay_resumes() {
        let spec = spec_file();
        let script = script_file(
            "add probe period 60 deadline 120 task p wcet 1 bcet 0.5 prio 1 on Pi1\n\
             commit\n\
             add hog period 10 deadline 10 task h wcet 9 bcet 9 prio 9 on Pi3\n\
             commit\n\
             remove probe\n",
        );
        let journal = std::env::temp_dir().join(format!(
            "hsched-cli-test-compact-{}.journal",
            std::process::id()
        ));
        let out = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--json",
            "--journal",
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        let digest = extract_digest(&out).to_string();

        let before = std::fs::metadata(&journal).unwrap().len();
        let compacted = run(&args(&[
            "compact",
            spec.to_str().unwrap(),
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            compacted.contains("compacted 3 epoch(s) into a snapshot"),
            "{compacted}"
        );
        assert!(compacted.contains(&digest), "digest survives compaction");
        let after = std::fs::metadata(&journal).unwrap().len();
        assert!(after > 0 && before > 0);

        // Replay resumes from the snapshot: zero tail epochs, same digest.
        let replayed = run(&args(&[
            "replay",
            spec.to_str().unwrap(),
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(replayed.contains("replayed 0 epoch(s)"), "{replayed}");
        assert!(
            replayed.contains("resumed from snapshot at epoch 3"),
            "{replayed}"
        );
        assert!(replayed.contains(&digest), "{replayed}");

        let json = run(&args(&[
            "replay",
            spec.to_str().unwrap(),
            journal.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        assert!(json.contains("\"snapshot_epoch\":3"), "{json}");
        assert_eq!(extract_digest(&json), digest);

        let compact_json = run(&args(&[
            "compact",
            spec.to_str().unwrap(),
            journal.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        assert!(
            compact_json.starts_with("{\"v\":2,\"command\":\"compact\""),
            "{compact_json}"
        );
        assert!(
            compact_json.contains("\"epochs_folded\":3"),
            "{compact_json}"
        );
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn admit_auto_compact_folds_journal_and_replay_resumes() {
        let spec = spec_file();
        let script = script_file(
            "add p1 period 60 deadline 120 task a wcet 1 bcet 0.5 prio 1 on Pi1\n\
             commit\n\
             add p2 period 60 deadline 120 task b wcet 1 bcet 0.5 prio 1 on Pi2\n\
             commit\n\
             remove p1\n\
             commit\n\
             remove p2\n",
        );
        let journal = std::env::temp_dir().join(format!(
            "hsched-cli-test-autocompact-{}.journal",
            std::process::id()
        ));
        // --auto-compact without --journal is a usage error.
        let err = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--auto-compact",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("requires --journal"), "{err}");

        let out = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--auto-compact",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("auto-compact every 2 epoch(s)"), "{out}");
        let digest = {
            let start = out.find("state digest ").expect("digest line") + 13;
            out[start..start + 16].to_string()
        };
        // The journal was folded mid-run: replay resumes from a snapshot
        // and reproduces the digest.
        let replayed = run(&args(&[
            "replay",
            spec.to_str().unwrap(),
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(replayed.contains("resumed from snapshot"), "{replayed}");
        assert!(replayed.contains(&digest), "{replayed}");
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn replay_command_errors() {
        let spec = spec_file();
        let err = run(&args(&["replay", spec.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("journal path"), "{err}");
        let err = run(&args(&[
            "replay",
            spec.to_str().unwrap(),
            "/nonexistent/x.journal",
        ]))
        .unwrap_err();
        assert!(err.contains("journal error"), "{err}");
    }

    #[test]
    fn admit_script_errors_are_reported() {
        let spec = spec_file();
        let script = script_file("add broken period 10\n");
        let err = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("script line 1"), "{err}");

        let script = script_file("retune NoSuch alpha 0.5 delta 1 beta 0\n");
        let err = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("unknown platform `NoSuch`"), "{err}");

        let err = run(&args(&["admit", spec.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("request script"), "{err}");

        // Strictly positional: a flag between spec and script must not have
        // its value mistaken for the script path.
        let script = script_file("remove nothing\n");
        let err = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            "--auto-compact",
            "2",
            script.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("request script"), "{err}");
    }

    #[test]
    fn simulate_command_with_gantt() {
        let path = spec_file();
        let out = run(&args(&[
            "simulate",
            path.to_str().unwrap(),
            "--horizon",
            "500",
            "--gantt",
            "100",
        ]))
        .unwrap();
        assert!(out.contains("simulated to t = 500"));
        assert!(out.contains("Π1 |"));
        assert!(out.contains("legend"));
        assert!(out.contains("misses"));
    }

    #[test]
    fn optimize_command() {
        let path = spec_file();
        let out = run(&args(&["optimize", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("total bandwidth"));
        assert!(out.contains("saved"));
    }

    #[test]
    fn headroom_command() {
        let path = spec_file();
        let out = run(&args(&[
            "headroom",
            path.to_str().unwrap(),
            "--ceiling",
            "8",
        ]))
        .unwrap();
        assert!(out.contains("WCET headroom"));
        assert!(out.contains("x"));
        // All seven tasks listed.
        assert_eq!(out.lines().count(), 8);
    }

    #[test]
    fn fmt_round_trips() {
        let path = spec_file();
        let out = run(&args(&["fmt", path.to_str().unwrap()])).unwrap();
        let (sys1, plat1) = parse_str(SPEC).unwrap();
        let (sys2, plat2) = parse_str(&out).unwrap();
        assert_eq!(sys1, sys2);
        assert_eq!(plat1, plat2);
    }

    #[test]
    fn compare_command() {
        let path = spec_file();
        let out = run(&args(&[
            "compare",
            path.to_str().unwrap(),
            "--horizon",
            "1500",
        ]))
        .unwrap();
        assert!(out.contains("tightness"));
        assert!(out.contains("all observed maxima within analytic bounds"));
        assert!(!out.contains("BOUND VIOLATED"));
    }

    #[test]
    fn unschedulable_spec_exits_nonzero() {
        // Starve the platform so the deadline cannot be met: analyze must
        // return Err (exit code 1) while still rendering the report.
        let mut f = tempfile::Builder::new().suffix(".hsc").tempfile().unwrap();
        f.write_all(
            br#"
class W {
    thread T periodic period 10 priority 1 { task a wcet 2 bcet 1; }
}
platform S cpu alpha 0.25 delta 3 beta 0;
instance I : W on S node 0;
"#,
        )
        .unwrap();
        let path = f.into_temp_path();
        // R = 3 + 2/0.25 = 11 > D = 10.
        let err = run(&args(&["analyze", path.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("schedulability: FAILED"));
        assert!(err.contains("[MISS]"));
    }

    #[test]
    fn missing_file_is_reported() {
        let err = run(&args(&["analyze", "/nonexistent/x.hsc"])).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    /// Starts `hsched serve` on a background thread and returns the
    /// bound addresses (service, optional repl) plus the join handle for
    /// the drain summary. The caller holds the signal lock.
    fn spawn_serve(
        extra: &[&str],
        tag: &str,
    ) -> (
        String,
        Option<String>,
        std::thread::JoinHandle<Result<String, String>>,
    ) {
        let addr_file = std::env::temp_dir().join(format!(
            "hsched-cli-test-addrs-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&addr_file);
        let mut serve_args = vec!["serve".to_string()];
        serve_args.extend(extra.iter().map(|s| s.to_string()));
        serve_args.extend([
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--addr-file".to_string(),
            addr_file.to_str().unwrap().to_string(),
        ]);
        let handle = std::thread::spawn(move || run(&serve_args));
        // The addr file appears once the listeners are bound.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.contains("service ") {
                    break text;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve did not bind in time"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let _ = std::fs::remove_file(&addr_file);
        let mut service = None;
        let mut repl = None;
        for line in text.lines() {
            if let Some(addr) = line.strip_prefix("service ") {
                service = Some(addr.to_string());
            } else if let Some(addr) = line.strip_prefix("repl ") {
                repl = Some(addr.to_string());
            }
        }
        (service.expect("service address"), repl, handle)
    }

    fn grab_digest(text: &str, anchor: &str) -> String {
        let start = text.find(anchor).unwrap_or_else(|| {
            panic!("`{anchor}` not found in: {text}");
        }) + anchor.len();
        text[start..start + 16].to_string()
    }

    #[test]
    fn serve_remote_admit_and_stats_then_drain() {
        let _signal = signal_lock();
        let spec = spec_file();
        let script = script_file(
            "add probe period 60 deadline 120 task p wcet 1 bcet 0.5 prio 1 on Pi1\n\
             commit\n\
             add hog period 10 deadline 10 task h wcet 9 bcet 9 prio 9 on Pi3\n\
             commit\n\
             remove probe\n",
        );
        let (addr, repl, serve) = spawn_serve(&[spec.to_str().unwrap()], "plain");
        assert!(repl.is_none());

        // Remote admit renders the same per-epoch lines as a local run.
        // `--retry` routes through the ticketed RetryClient; on a clean
        // loopback it behaves identically (zero retries performed).
        let out = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--remote",
            &addr,
            "--retry",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("epoch 1: admitted"), "{out}");
        assert!(out.contains("epoch 2: rejected (overload on Pi3"), "{out}");
        assert!(out.contains("epoch 3: admitted"), "{out}");
        assert!(out.contains("retried 0 time(s)"), "{out}");
        assert!(
            out.contains("remote engine: epoch 3; state digest"),
            "{out}"
        );

        // JSON mode: versioned envelope, rejected epochs carry the
        // stable err_code (overload = 2), remote digest in the engine
        // section. Pipelined over one connection with one group commit.
        let json = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--remote",
            &addr,
            "--async",
            "--json",
        ]))
        .unwrap();
        assert!(json.starts_with("{\"v\":2,\"command\":\"admit\""), "{json}");
        assert!(json.contains("\"mode\":\"async\""), "{json}");
        assert!(json.contains("\"remote\":"), "{json}");
        assert!(json.contains("\"reason\":\"overload\""), "{json}");
        assert!(json.contains("\"err_code\":2"), "{json}");
        assert!(json.contains("\"durable_epoch\":6"), "{json}");

        // Remote stats: merged engine + wire telemetry, no spec needed.
        let stats = run(&args(&["stats", "--remote", &addr])).unwrap();
        assert!(stats.contains("engine.epochs_settled"), "{stats}");
        assert!(stats.contains("net.frames_in"), "{stats}");
        let stats_json = run(&args(&["stats", "--remote", &addr, "--json"])).unwrap();
        assert!(
            stats_json.starts_with("{\"v\":2,\"command\":\"stats\""),
            "{stats_json}"
        );
        assert!(stats_json.contains("\"net.connections\":"), "{stats_json}");

        // Server-side flags are rejected in client mode.
        let err = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--remote",
            &addr,
            "--journal",
            "/tmp/nope.journal",
        ]))
        .unwrap_err();
        assert!(err.contains("server-side"), "{err}");

        // Signal → drain: the serve loop exits, joins every connection,
        // and group-commits everything settled.
        hsched_net::signal::request_stop();
        let summary = serve.join().expect("serve thread").expect("serve ok");
        assert!(
            summary.contains("serve: drained; durable through epoch 6"),
            "{summary}"
        );
        hsched_net::signal::reset();
    }

    #[test]
    fn serve_repl_follow_end_to_end() {
        let _signal = signal_lock();
        let spec = spec_file();
        let script = script_file(
            "add probe period 60 deadline 120 task p wcet 1 bcet 0.5 prio 1 on Pi1\n\
             commit\n\
             add hog period 10 deadline 10 task h wcet 9 bcet 9 prio 9 on Pi3\n\
             commit\n\
             remove probe\n",
        );
        let journal = std::env::temp_dir().join(format!(
            "hsched-cli-test-serve-primary-{}.journal",
            std::process::id()
        ));
        let mirror = std::env::temp_dir().join(format!(
            "hsched-cli-test-serve-mirror-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&mirror);

        let (addr, repl, serve) = spawn_serve(
            &[
                spec.to_str().unwrap(),
                "--journal",
                journal.to_str().unwrap(),
                "--repl",
                "127.0.0.1:0",
                "--heartbeat-ms",
                "50",
            ],
            "repl",
        );
        let repl = repl.expect("replication address");

        // A warm standby tails the stream into its mirror.
        let follow_args = args(&[
            "follow",
            spec.to_str().unwrap(),
            "--from",
            &repl,
            "--journal",
            mirror.to_str().unwrap(),
        ]);
        let follow = std::thread::spawn(move || run(&follow_args));

        // Commit three epochs over the wire, pipelined.
        let out = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--remote",
            &addr,
            "--async",
        ]))
        .unwrap();
        assert!(out.contains("durable through epoch 3"), "{out}");

        // Wait until the mirror holds the primary's whole durable
        // prefix (the 50ms heartbeat keeps pumping group commits).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let primary = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
            let mirrored = std::fs::metadata(&mirror).map(|m| m.len()).unwrap_or(0);
            if primary > 0 && mirrored == primary {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "mirror did not catch up: {mirrored}/{primary} bytes"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // One signal drains both: the primary group-commits and exits,
        // the standby sees the stop flag and reports its final state.
        hsched_net::signal::request_stop();
        let summary = serve.join().expect("serve thread").expect("serve ok");
        let standby = follow.join().expect("follow thread").expect("follow ok");
        hsched_net::signal::reset();
        assert!(summary.contains("durable through epoch 3"), "{summary}");
        assert!(standby.contains("standby: epoch 3 digest "), "{standby}");
        let primary_digest = grab_digest(&summary, "state digest ");
        let standby_digest = grab_digest(&standby, "digest ");
        assert_eq!(standby_digest, primary_digest, "standby diverged");

        // Both journals replay to the same engine.
        let replayed = run(&args(&[
            "replay",
            spec.to_str().unwrap(),
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(replayed.contains(&primary_digest), "{replayed}");
        let mirrored = run(&args(&[
            "replay",
            spec.to_str().unwrap(),
            mirror.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(mirrored.contains(&primary_digest), "{mirrored}");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&mirror);
    }

    #[test]
    fn follow_promote_on_loss_takes_over() {
        let _signal = signal_lock();
        let spec = spec_file();
        let script = script_file(
            "add probe period 60 deadline 120 task p wcet 1 bcet 0.5 prio 1 on Pi1\n\
             commit\n\
             remove probe\n",
        );
        let journal = std::env::temp_dir().join(format!(
            "hsched-cli-test-promote-primary-{}.journal",
            std::process::id()
        ));
        let mirror = std::env::temp_dir().join(format!(
            "hsched-cli-test-promote-mirror-{}.journal",
            std::process::id()
        ));
        let addr_file = std::env::temp_dir().join(format!(
            "hsched-cli-test-promote-addrs-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&mirror);
        let _ = std::fs::remove_file(&addr_file);

        // The primary runs on the net API directly (not `hsched serve`),
        // so the test can crash it without the process-wide signal flag
        // the follower is also watching.
        let (system, platforms) = parse_and_validate(SPEC).unwrap();
        let set = flatten(
            &system,
            &platforms,
            FlattenOptions {
                external_stimuli: true,
            },
        )
        .unwrap();
        let engine = std::sync::Arc::new(
            hsched_engine::SchedService::new(
                set,
                AnalysisConfig::default(),
                AdmissionPolicy::default(),
            )
            .unwrap()
            .with_journal(&journal)
            .unwrap(),
        );
        let handle = hsched_net::Server::start(
            engine.clone(),
            hsched_net::ServerConfig {
                repl_addr: Some("127.0.0.1:0".to_string()),
                journal_path: Some(journal.clone()),
                heartbeat_interval: std::time::Duration::from_millis(50),
                ..Default::default()
            },
        )
        .unwrap();
        let service = handle.service_addr().to_string();
        let repl = handle.repl_addr().unwrap().to_string();

        // Seed two epochs, then put a standby on the stream with the
        // takeover armed: two no-progress sessions and the primary is
        // presumed dead.
        let out = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--remote",
            &service,
        ]))
        .unwrap();
        assert!(out.contains("epoch 2: admitted"), "{out}");
        let follow_args = args(&[
            "follow",
            spec.to_str().unwrap(),
            "--from",
            &repl,
            "--journal",
            mirror.to_str().unwrap(),
            "--promote-on-loss",
            "--max-reconnects",
            "2",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
        ]);
        let follow = std::thread::spawn(move || run(&follow_args));

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let primary = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
            let mirrored = std::fs::metadata(&mirror).map(|m| m.len()).unwrap_or(0);
            if primary > 0 && mirrored == primary {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "mirror did not catch up: {mirrored}/{primary} bytes"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // Crash the primary. The standby's reconnect attempts fail, it
        // declares the primary lost, promotes the mirror, and serves.
        let expected_digest = engine.state_digest();
        handle.stop();
        handle.join().unwrap();
        drop(engine);
        let promoted_addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Some(line) = text.lines().find_map(|l| l.strip_prefix("service ")) {
                    break line.to_string();
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "standby did not promote in time"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        // The promoted standby is a live primary over the inherited
        // mirror: same digest as the dead primary, and it accepts fresh
        // epochs.
        let stats = run(&args(&["stats", "--remote", &promoted_addr])).unwrap();
        assert!(stats.contains("engine.epochs_settled"), "{stats}");
        let out = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--remote",
            &promoted_addr,
            "--retry",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("epoch 3: admitted"), "{out}");

        hsched_net::signal::request_stop();
        let summary = follow.join().expect("follow thread").expect("follow ok");
        hsched_net::signal::reset();
        assert!(summary.contains("promoted: drained"), "{summary}");
        assert!(summary.contains("durable through epoch 4"), "{summary}");
        // The pre-crash digest is NOT expected to survive verbatim (two
        // more epochs landed) — but the promotion itself cross-checked
        // it; assert the replayed takeover started from the primary's
        // exact state by replaying the mirror's prefix is covered in the
        // net-layer chaos tests. Here: the digest string is well-formed.
        assert_eq!(expected_digest.len(), 16, "digest shape");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&mirror);
        let _ = std::fs::remove_file(&addr_file);
    }

    #[test]
    fn remote_mode_errors() {
        let spec = spec_file();
        let script = script_file("remove nothing\n");
        // Nothing listens on a fresh ephemeral-range port 1 (reserved);
        // connection errors surface as CLI errors, not panics.
        let err = run(&args(&["stats", "--remote", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
        let err = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--remote",
            "127.0.0.1:1",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
        // follow without its required flags.
        let err = run(&args(&["follow", spec.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("--from"), "{err}");
        let err = run(&args(&[
            "follow",
            spec.to_str().unwrap(),
            "--from",
            "127.0.0.1:1",
        ]))
        .unwrap_err();
        assert!(err.contains("--journal"), "{err}");
        // --retry without --remote is a usage error (and a bad count too).
        let err = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--retry",
            "3",
        ]))
        .unwrap_err();
        assert!(err.contains("needs --remote"), "{err}");
        let err = run(&args(&[
            "admit",
            spec.to_str().unwrap(),
            script.to_str().unwrap(),
            "--remote",
            "127.0.0.1:1",
            "--retry",
            "banana",
        ]))
        .unwrap_err();
        assert!(err.contains("bad retry count"), "{err}");
        // Contradictory follow modes are refused up front.
        let err = run(&args(&[
            "follow",
            spec.to_str().unwrap(),
            "--from",
            "127.0.0.1:1",
            "--journal",
            "/tmp/nope.journal",
            "--promote-on-loss",
            "--exit-on-disconnect",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
        let err = run(&args(&[
            "follow",
            spec.to_str().unwrap(),
            "--from",
            "127.0.0.1:1",
            "--journal",
            "/tmp/nope.journal",
            "--promote-on-loss",
            "--max-reconnects",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("bad reconnect limit"), "{err}");
        // serve --repl without a journal is a usage error.
        let err = run(&args(&[
            "serve",
            spec.to_str().unwrap(),
            "--repl",
            "127.0.0.1:0",
        ]))
        .unwrap_err();
        assert!(err.contains("--repl requires --journal"), "{err}");
    }

    #[test]
    fn bad_option_values() {
        let path = spec_file();
        let err = run(&args(&["analyze", path.to_str().unwrap(), "--exact"])).unwrap_err();
        assert!(err.contains("needs a value"));
        let err = run(&args(&[
            "simulate",
            path.to_str().unwrap(),
            "--horizon",
            "banana",
        ]))
        .unwrap_err();
        assert!(err.contains("bad horizon"));
    }
}
