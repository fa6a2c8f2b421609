//! AllConcur's end-to-end benchmark: client submit → agreed → durable
//! → applied → response over loopback TCP, plus a traced run that says
//! where inside a round the time goes. See `README.md` beside this
//! crate for the glossary; `run.sh` is the entry point.
//!
//! Everything runs in one process on the host's loopback interface
//! with **no injected delay**, so every latency here is processor plus
//! loopback-syscall time, not network time.
//!
//! ```text
//! run.sh --workload W --seed S --seconds N --trace 0|1   one run, one JSON result line
//! run.sh [--seed S] [--seconds N] [--repeat K]           every workload, untraced + traced
//! ```

mod affinity;
mod driver;
mod json;
mod ladder;
mod metrics;
mod procfs;
mod replay;
mod stats;
mod trace;
mod workload;

use driver::{Counters, OpenStats, Run, Segment};
use json::Json;
use metrics::{declared, Values, EXACT};
use stats::{mean, median, percentile_of, ratio};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Load, Spec, WORKLOADS};

/// Everything a run writes goes here, relative to `benchmark/`.
pub const OUT: &str = "out";
/// Shortest measured window (shorter runs swing by tens of percent).
const MIN_WINDOW_SECS: u64 = 5;
/// Unmeasured start of every episode: connections, buffers and the
/// pipeline reach steady state.
const WARMUP: Duration = Duration::from_millis(500);
/// Cold spawn → first response cycles behind `setup_s`: the first, which
/// also pays for a cold process, and the ones that count.
///
/// `setup_s` is the *mean* of the latter, not their median. A process's
/// cycles run at one of two paces (4.7 or 8 ms at n=16: every step of a
/// cycle takes 1.7 times as long, on an equally fast processor) and
/// change from the first to the second at a cycle that differs from run
/// to run. A run's median is then one pace or the other, and the median
/// of ten runs flips with the majority; a run's mean moves by degrees.
const SETUP_CYCLES: usize = 1 + 24;
/// In a `--repeat` comparison two `setup_s` values this close agree
/// whatever their ratio: set-up takes milliseconds here, and a relative
/// bound alone would call scheduler jitter a regression.
const SETUP_FLOOR_S: f64 = 0.1;
/// Open-loop rate and window of the failover probe of a workload that
/// does not crash a server itself.
const PROBE_RATE: f64 = 2000.0;
const PROBE_WINDOW: Duration = Duration::from_secs(1);
/// Rates offered after the main `durable_open_n8` run, cmds/s.
const SWEEP_RATES: [f64; 3] = [4000.0, 8000.0, 16000.0];
/// Service-level objective of the rate sweep: p99 within this.
const SLO: Duration = Duration::from_millis(100);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 1, seconds: declared().run_seconds, trace: false, repeat: 1 };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--repeat" => {
                args.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One run's outcome: what the result line and `results.json` carry.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// `(name, value, unit, applicable)` in declaration order.
    metrics: Vec<(&'static str, f64, &'static str, bool)>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value, unit, _)| {
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Split `seconds` into measured windows of at least
/// [`MIN_WINDOW_SECS`] (four 5 s windows at the default 20 s).
fn windows(seconds: u64) -> Vec<Duration> {
    let count = (seconds / MIN_WINDOW_SECS).max(1);
    vec![Duration::from_secs_f64(seconds as f64 / count as f64); count as usize]
}

fn open_rate(spec: &Spec) -> f64 {
    match spec.load {
        Load::Open { rate } => rate,
        Load::Closed { .. } => 0.0,
    }
}

/// What the traced episode observed from outside the crates.
struct Observed {
    before: Counters,
    after: Counters,
    elapsed: Duration,
    tracer: trace::Tracer,
    in_flight_mean: f64,
    unsynced_max: u64,
    outstanding_max: usize,
    late_ns: Vec<u32>,
    captured: Vec<allconcur_core::delivery::Delivery>,
}

impl Observed {
    /// A counter's end − start.
    fn delta(&self, field: impl Fn(&Counters) -> u64) -> f64 {
        field(&self.after).saturating_sub(field(&self.before)) as f64
    }
}

/// One episode: a fresh deployment, the warm-up, one measured window,
/// the output checks, shutdown.
struct Episode {
    segment: Segment,
    open: OpenStats,
    verdict: driver::Verdict,
    observed: Option<Observed>,
}

fn episode(spec: &Spec, seed: u64, window: Duration, traced: bool) -> Result<Episode, String> {
    let wal = driver::wal_dir("main");
    let requests = (window.as_secs_f64() * open_rate(spec)) as u64;
    let mut run = Run::new(spec, seed, &wal, traced, requests)?;
    let before = traced.then(|| run.counters());
    let started = std::time::Instant::now();
    let (segment, open) = run.run_load(WARMUP, window)?;
    let observed = before.map(|before| Observed {
        before,
        after: run.counters(),
        elapsed: started.elapsed(),
        in_flight_mean: run.in_flight_mean(),
        unsynced_max: run.unsynced_max,
        outstanding_max: run.outstanding_max,
        late_ns: std::mem::take(&mut run.late_ns),
        captured: std::mem::take(&mut run.captured),
        tracer: std::mem::replace(&mut run.tracer, trace::Tracer::new(false)),
    });
    let verdict = run.verify_and_shutdown(&wal)?;
    Ok(Episode { segment, open, verdict, observed })
}

/// The workload's deployment — servers, overlay, pipeline, durability —
/// under a light open loop with one server crashed part-way: how long
/// that deployment goes without service when a server fails.
fn failover_probe(spec: &Spec) -> Spec {
    Spec { load: Load::Open { rate: PROBE_RATE }, crash: true, get_pct: 10, ..*spec }
}

/// Adds one episode's operations to the run's totals. On its own
/// schedule a workload must never be shed, so a `Busy` counts as failed.
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, verdict: driver::Verdict) {
        self.attempted += verdict.attempted;
        self.failed += verdict.failed + verdict.shed;
        self.errors.extend(verdict.errors);
    }
}

/// The untraced run: every end-to-end metric, each the median of its
/// per-window values. One episode per window (episode `k` uses seed
/// `seed + k`, so a crash workload crashes another victim at another
/// instant each time).
///
/// A fresh deployment per window is what makes the medians steady: on
/// this stack most of the run-to-run difference in throughput (±4 % on
/// `rounds_n16_small`) is fixed when the cluster is spawned — ports,
/// socket buffers, which reactor a node lands on — and stays for the
/// life of the deployment, so windows of one deployment agree with each
/// other and disagree with the next run. Sampling that state once per
/// window puts it inside the median.
fn run_untraced(spec: &Spec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let cycles = (0..SETUP_CYCLES)
        .map(|i| driver::setup_cycle(spec, i).map(|d| d.as_secs_f64()))
        .collect::<Result<Vec<_>, _>>()?;
    println!(
        "# set-up: {SETUP_CYCLES} cycles, the first (cold process) {:.2} ms, of the others the \
         fastest {:.2} ms, the median {:.2} ms",
        cycles[0] * 1e3,
        cycles[1..].iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        median(&cycles[1..]) * 1e3
    );
    let mut segments = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut tally = Tally { attempted: 0, failed: 0, errors: Vec::new() };
    for (k, window) in windows(seconds).into_iter().enumerate() {
        let episode = episode(spec, seed + k as u64, window, false)?;
        let s = &episode.segment;
        println!(
            "# window {k}: {:.2} s, {} answered, {:.1} cmds/s, {:.3} cpu us/cmd, {} latency \
             samples, p50 {:.1} us, p99 {:.1} us",
            s.seconds,
            s.responded,
            s.cmds_per_s(),
            s.cpu_us_per_cmd(),
            s.latency_ns.len(),
            s.latency_p50_us(spec.crash),
            s.latency_us(0.99)
        );
        gaps_ms.extend(episode.open.failover_gap.map(|gap| gap.as_secs_f64() * 1e3));
        segments.push(episode.segment);
        tally.add(episode.verdict);
    }
    // A workload without a crash of its own gets its failover gap from
    // one probe episode on its deployment, after the measured windows.
    // (One is enough: over 100 probes the gap stayed within 400–415 ms.)
    if !spec.crash {
        let episode = episode(&failover_probe(spec), seed + 100, PROBE_WINDOW, false)?;
        gaps_ms.extend(episode.open.failover_gap.map(|gap| gap.as_secs_f64() * 1e3));
        tally.add(episode.verdict);
    }
    println!("# failover gaps, ms: {gaps_ms:.1?}");
    if gaps_ms.is_empty() {
        return Err("no episode observed a response to a request due after its crash".into());
    }
    let of = |f: &dyn Fn(&Segment) -> f64| median(&segments.iter().map(f).collect::<Vec<_>>());
    let values = Values::from([
        ("setup_s", mean(&cycles[1..])),
        ("cmds_per_s", of(&Segment::cmds_per_s)),
        ("cpu_us_per_cmd", of(&Segment::cpu_us_per_cmd)),
        ("latency_p50_us", of(&|s| s.latency_p50_us(spec.crash))),
        ("latency_p99_us", of(&|s| s.latency_us(0.99))),
        ("failover_gap_ms", median(&gaps_ms)),
        ("peak_rss_mb", procfs::peak_rss_mb()),
    ]);
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics: metrics::collect(&declared().end_to_end, &values, spec)?,
    })
}

/// The traced run: an untraced control episode and a traced episode
/// over the same seed (their difference is `trace.overhead_pct`), then
/// the ladder, the replay and — on `durable_open_n8` — the rate sweep.
fn run_traced(spec: &Spec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let window = Duration::from_secs_f64((seconds as f64 / 4.0).max(1.0));
    let control = episode(spec, seed, window, false)?;
    let mut traced = episode(spec, seed, window, true)?;
    let mut t = traced.observed.take().ok_or("a traced episode is observed")?;
    let control_cpu = control.segment.cpu_us_per_cmd();
    let traced_cpu = traced.segment.cpu_us_per_cmd();
    println!(
        "# traced episode: {} commands in its window, cpu/cmd {traced_cpu:.3} us traced vs \
         {control_cpu:.3} us untraced",
        traced.segment.responded
    );

    let v = &mut Values::new();
    // Counters and spans of the traced episode. Counter deltas span the
    // whole episode (warm-up included), as do the rounds and commands
    // they are divided by.
    let verdict = &traced.verdict;
    let commands = (verdict.attempted - verdict.failed - verdict.shed) as f64;
    let rounds = t.delta(|c| c.rounds);
    let reactor_cpu = t.delta(|c| c.threads.reactor_cpu_us);
    let driver_cpu = t.delta(|c| c.threads.driver_cpu_us);
    v.insert("net.reactor_cpu_us_per_round", ratio(reactor_cpu, rounds));
    v.insert("net.reactor_cpu_share", ratio(reactor_cpu, reactor_cpu + driver_cpu));
    v.insert("net.loop_threads", t.after.loop_threads as f64);
    v.insert("net.degraded", t.delta(|c| c.links.degraded));
    v.insert("net.reconnects", t.delta(|c| c.links.reconnects));
    v.insert("net.replayed_frames", t.delta(|c| c.links.replayed_frames));
    v.insert("net.shed_frames", t.delta(|c| c.links.shed_frames));
    v.insert("net.reader_disconnects", t.delta(|c| c.links.reader_disconnects));
    v.insert("net.healed", t.delta(|c| c.links.healed));
    v.insert("net.suspicions", t.delta(|c| c.links.suspicions));
    v.insert("net.corrupt_frames", t.delta(|c| c.links.corrupt_frames));
    v.insert("net.accept_failures", t.delta(|c| c.links.accept_failures));
    v.insert("rsm.submit_ns_per_cmd", t.tracer.mean_ns("rsm.submit"));
    v.insert("rsm.flush_us_per_round", t.tracer.mean_ns("rsm.flush") / 1e3);
    v.insert("rsm.ingest_us_per_delivery", t.tracer.mean_ns("rsm.pump_ingest") / 1e3);
    v.insert("rsm.driver_cpu_us_per_cmd", ratio(driver_cpu, commands));
    v.insert("rsm.cmds_per_round", ratio(commands, rounds));
    v.insert("rsm.rounds_per_s", ratio(rounds, t.elapsed.as_secs_f64()));
    v.insert("rsm.in_flight_rounds_mean", t.in_flight_mean);
    v.insert("rsm.shed_count", t.delta(|c| c.shed));
    v.insert("rsm.audits", t.delta(|c| c.audits));
    v.insert("rsm.divergences", t.delta(|c| c.divergences));
    v.insert("rsm.quarantines", t.delta(|c| c.quarantines));
    v.insert("durability.syncs_per_kcmd", ratio(t.delta(|c| c.wal_syncs), commands / 1e3));
    v.insert("durability.unsynced_rounds_max", t.unsynced_max as f64);
    if let Some(recover_ms) = verdict.recover_ms {
        v.insert("durability.recover_ms", recover_ms);
    }
    if let Load::Open { .. } = spec.load {
        v.insert("client.gen_late_us_p99", percentile_of(&mut t.late_ns, 0.99) / 1e3);
        v.insert("client.gen_late_us_max", percentile_of(&mut t.late_ns, 1.0) / 1e3);
    }
    v.insert("client.outstanding_max", t.outstanding_max as f64);
    if spec.crash {
        let post_crash_p50 = percentile_of(&mut traced.open.post_crash_ns, 0.5) / 1e3;
        v.insert("client.post_crash_p50_us", post_crash_p50);
    }
    v.insert("proc.ctx_switches_per_round", ratio(t.delta(|c| c.threads.ctx_switches), rounds));
    v.insert("proc.threads", t.after.threads.count as f64);
    v.insert("trace.overhead_pct", (ratio(traced_cpu, control_cpu) - 1.0) * 100.0);

    // Ladder and replay.
    let slot = Duration::from_secs_f64((seconds as f64 / 20.0).max(0.25));
    let ladder = ladder::run(spec, seed, slot);
    let replay = replay::run(&t.captured);
    println!("# replay input: {} rounds delivered at server 0", t.captured.len());
    v.extend(ladder.iter().chain(&replay).copied());

    // On its own schedule a workload must never be shed.
    let mut attempted = control.verdict.attempted + verdict.attempted;
    let mut failed = control.verdict.failed + control.verdict.shed + verdict.failed + verdict.shed;
    let mut errors: Vec<String> =
        control.verdict.errors.iter().chain(&verdict.errors).cloned().collect();

    // Rate sweep: how far above its schedule the durable path holds
    // its latency objective. A step holds when p99 ≤ SLO, nothing was
    // shed or failed, and the backlog when issuing stops is no more
    // than the SLO's worth of requests.
    if spec.durable {
        let slo_us = SLO.as_secs_f64() * 1e6;
        let main_holds = traced.segment.latency_us(0.99) <= slo_us && failed == 0;
        let mut best = if main_holds { open_rate(spec) } else { 0.0 };
        let wal = driver::wal_dir("sweep");
        let mut run = Run::new(spec, seed, &wal, false, 0)?;
        let step = Duration::from_secs_f64((seconds as f64 / 10.0).max(1.0));
        for (rate, name) in SWEEP_RATES.iter().zip([
            "client.p99_us_at_4000",
            "client.p99_us_at_8000",
            "client.p99_us_at_16000",
        ]) {
            let refused_before = run.failed + run.shed;
            let (segment, open) = run.run_open(*rate, Duration::from_millis(200), step)?;
            let p99_us = segment.latency_us(0.99);
            v.insert(name, p99_us);
            let refused = run.failed + run.shed - refused_before;
            let holds = p99_us <= slo_us
                && refused == 0
                && open.backlog_at_end as f64 <= rate * SLO.as_secs_f64();
            println!(
                "# sweep {rate} cmds/s: p99 {p99_us:.1} us, {refused} shed or failed, backlog {} \
                 when issuing stopped -> {}",
                open.backlog_at_end,
                if holds { "holds" } else { "misses" }
            );
            if holds {
                best = best.max(*rate);
            }
        }
        v.insert("client.max_rate_under_slo", best);
        // Above the knee the service sheds by design: a `Busy` is the
        // sweep's finding, not a failed run. Everything it accepted is
        // still checked.
        let verdict = run.verify_and_shutdown(&wal)?;
        attempted += verdict.attempted - verdict.shed;
        failed += verdict.failed;
        errors.extend(verdict.errors);
    }

    let dump = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(seed as f64)),
        ("counters", counters_json(&t.before, &t.after)),
        ("ladder", Json::obj(ladder.iter().map(|&(k, x)| (k, Json::Num(x))))),
        ("replay", Json::obj(replay.iter().map(|&(k, x)| (k, Json::Num(x))))),
        ("trace", t.tracer.to_json()),
    ]);
    let path = Path::new(OUT).join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, dump.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());

    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        errors,
        metrics: metrics::collect(&declared().per_layer, v, spec)?,
    })
}

fn counters_json(start: &Counters, end: &Counters) -> Json {
    let one = |c: &Counters| {
        Json::obj([
            ("threads", Json::Num(c.threads.count as f64)),
            ("loop_threads", Json::Num(c.loop_threads as f64)),
            ("reactor_cpu_us", Json::Num(c.threads.reactor_cpu_us as f64)),
            ("driver_cpu_us", Json::Num(c.threads.driver_cpu_us as f64)),
            ("ctx_switches", Json::Num(c.threads.ctx_switches as f64)),
            ("rounds", Json::Num(c.rounds as f64)),
            ("shed", Json::Num(c.shed as f64)),
            ("audits", Json::Num(c.audits as f64)),
            ("wal_syncs", Json::Num(c.wal_syncs as f64)),
            ("link_degraded", Json::Num(c.links.degraded as f64)),
            ("link_reconnects", Json::Num(c.links.reconnects as f64)),
            ("link_reader_disconnects", Json::Num(c.links.reader_disconnects as f64)),
            ("link_suspicions", Json::Num(c.links.suspicions as f64)),
        ])
    };
    Json::obj([("start", one(start)), ("end", one(end))])
}

/// One run in this process: print every metric, then the result line.
fn run_single(spec: &Spec, args: &Args) -> ExitCode {
    println!(
        "# {} seed {} trace {} — one process, loopback TCP, no injected delay \
         (latency = processor + loopback-syscall time), {} cores",
        spec.name,
        args.seed,
        u8::from(args.trace),
        cores()
    );
    let result = if args.trace {
        run_traced(spec, args.seed, args.seconds)
    } else {
        run_untraced(spec, args.seed, args.seconds)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {}: {e}", spec.name);
            return ExitCode::from(2);
        }
    };
    for &(name, value, unit, applicable) in &outcome.metrics {
        if applicable {
            println!("{name:34} {value:>16.4} {unit}");
        } else {
            println!(
                "{name:34} {:>16} (does not apply to {}; the result line carries 0)",
                "n/a", spec.name
            );
        }
    }
    println!("{:34} {:>16}", "ops_attempted", outcome.attempted);
    println!("{:34} {:>16}", "ops_failed", outcome.failed);
    for error in &outcome.errors {
        println!("# FAILED: {error}");
    }
    println!("{}", outcome.to_json().render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `results.json`'s host block: never compare rows from different
/// hosts blind.
fn host_json(seed: u64) -> Json {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_or("unknown".into(), |s| s.trim().to_string())
    };
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    Json::obj([
        ("cores", Json::Num(cores() as f64)),
        ("kernel", Json::Str(read("/proc/sys/kernel/osrelease"))),
        ("commit", Json::Str(commit)),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Every workload, untraced then traced, each run in a child process
/// of its own (so `peak_rss_mb` and thread counts are per run), `repeat`
/// times; then the repeatability check.
///
/// The sets are interleaved run by run — a run of set 2 follows the
/// same run of set 1 — so the two runs a comparison pairs are a minute
/// apart, not a whole set apart: the check is about this benchmark's
/// own noise, not about what else changes on the host in ten minutes.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    // sets[k][(workload, trace)] = parsed result line
    let mut sets: Vec<BTreeMap<(&str, bool), Json>> = vec![BTreeMap::new(); args.repeat.max(1)];
    for spec in &WORKLOADS {
        for trace in [false, true] {
            for (set, results) in sets.iter_mut().enumerate() {
                println!("== {} · trace {} · set {} ==", spec.name, u8::from(trace), set + 1);
                let output = std::process::Command::new(&exe)
                    .args(["--workload", spec.name])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stderr(std::process::Stdio::inherit())
                    .output();
                let stdout = match output {
                    Ok(output) => String::from_utf8_lossy(&output.stdout).into_owned(),
                    Err(e) => {
                        eprintln!("error: spawning the run: {e}");
                        return ExitCode::from(2);
                    }
                };
                let (human, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
                println!("{human}");
                match Json::parse(line) {
                    Ok(result) => {
                        ok &= result.get("correct").and_then(Json::as_bool) == Some(true);
                        results.insert((spec.name, trace), result);
                    }
                    Err(e) => {
                        eprintln!("error: {} produced no result line ({e})", spec.name);
                        ok = false;
                    }
                }
            }
        }
    }

    let runs = |set: &BTreeMap<(&str, bool), Json>| {
        Json::Arr(
            set.iter()
                .map(|(&(workload, trace), result)| {
                    let mut fields = vec![
                        ("workload".to_string(), Json::str(workload)),
                        ("trace".into(), Json::Bool(trace)),
                    ];
                    fields.extend(result.fields().iter().cloned());
                    Json::Obj(fields)
                })
                .collect(),
        )
    };
    let results = Json::obj([
        ("host", host_json(args.seed)),
        ("run_seconds", Json::Num(args.seconds as f64)),
        ("traffic", Json::str("one process, host loopback TCP, zero injected delay")),
        ("sets", Json::Arr(sets.iter().map(runs).collect())),
    ]);
    let path = Path::new(OUT).join("results.json");
    match std::fs::write(&path, results.render_pretty()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            ok = false;
        }
    }
    if sets.len() >= 2 {
        ok &= repeatability(&sets[0], &sets[1]);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn metric(result: Option<&Json>, name: &str) -> Option<f64> {
    result?.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Two sets of the same commit on the same build must agree: every
/// end-to-end metric × workload within its bound (else `UNRESOLVED`:
/// the spread is wider than the bound, so the metric could not tell a
/// regression from noise), and the deterministic counts exactly.
fn repeatability(
    first: &BTreeMap<(&str, bool), Json>,
    second: &BTreeMap<(&str, bool), Json>,
) -> bool {
    let mut ok = true;
    println!("\n== repeatability: set 1 vs set 2 ==");
    println!(
        "{:20} {:16} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for spec in &WORKLOADS {
        for m in &declared().end_to_end {
            let (name, bound) = (m.name.as_str(), m.bound.unwrap_or(0.0));
            let a = metric(first.get(&(spec.name, false)), name);
            let b = metric(second.get(&(spec.name, false)), name);
            let (Some(a), Some(b)) = (a, b) else {
                println!("{:20} {name:16} missing", spec.name);
                ok = false;
                continue;
            };
            let diff = ratio((b - a).abs(), a.abs());
            let verdict = if diff <= bound {
                ""
            } else if name == "setup_s" && (b - a).abs() <= SETUP_FLOOR_S {
                "(within the 0.1 s floor)"
            } else {
                ok = false;
                "UNRESOLVED"
            };
            println!(
                "{:20} {name:16} {a:>14.3} {b:>14.3} {:>7.1}% {:>5.0}% {verdict}",
                spec.name,
                diff * 100.0,
                bound * 100.0
            );
        }
        for name in EXACT {
            let a = metric(first.get(&(spec.name, true)), name);
            let b = metric(second.get(&(spec.name, true)), name);
            if a.is_none() || a != b {
                println!("{:20} {name:16} {a:?} vs {b:?} NOT EXACT", spec.name);
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "repeatable: every pair within its bound, exact counts equal"
        } else {
            "NOT repeatable"
        }
    );
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--repeat K]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT) {
        eprintln!("error: {OUT}: {e}");
        return ExitCode::from(2);
    }
    match &args.workload {
        None => run_all(&args),
        Some(name) => match workload::find(name) {
            Some(spec) => run_single(spec, &args),
            None => {
                eprintln!("error: unknown workload {name}; one of {:?}", declared().workloads);
                ExitCode::from(2)
            }
        },
    }
}
