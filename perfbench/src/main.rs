//! perfbench — tarr-serve over loopback TCP, end to end and layer by layer.
//!
//! ```text
//! perfbench --serve-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --serve-bin PATH --smoke [--seed N]
//! ```
//!
//! One run boots the release daemon, drives one workload over a single
//! `TCP_NODELAY` connection for `--seconds`, checks every reply, replays
//! the same request lines through a single-threaded in-process engine and
//! compares the replies byte for byte. With `--trace 0` the last stdout
//! line carries the end-to-end metrics; with `--trace 1` the run also
//! replays the inputs through the layers' public functions and reports the
//! per-layer metrics instead. Each run also writes a record to
//! `perfbench/out/records/`. See `perfbench/README.md`.

mod checks;
mod daemon;
mod drive;
mod gen;
mod layers;
mod stats;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use checks::Checker;
use daemon::{Conn, Daemon};
use drive::{drive, Phase};
use gen::{Mode, Rng, Spec, Workload, OPS, WORKLOADS};
use layers::{replay_engine, LayerTrace, Mean};
use stats::{cache_counts, fnv, hist, median, metrics_reply, percentile, CACHES, OUTCOMES};

/// Worker threads of the daemon under test. With one worker, the daemon's
/// connection reader and the client, a 2-CPU host is not oversubscribed;
/// with two workers the four busy threads contended for two CPUs and the
/// CPU-bound figures of `pipelined_warm` and `churn_cold` spread two to
/// three times as wide between runs of one build.
const DAEMON_WORKERS: usize = 1;
/// Daemon boots per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Boots of a cold daemon cost milliseconds, so cold runs take many more.
const SETUP_REPS_COLD: usize = 101;
/// Ids of warm-up requests start here, apart from the measured ones.
const WARMUP_ID: u64 = 1 << 40;
/// Reference-pricer comparisons per run.
const REF_BUDGET: usize = 2;
/// Measured requests the in-process replays re-run on warm workloads.
const WARM_REPLAY_REQUESTS: usize = 20_000;
/// Run length of each workload in `--smoke` mode, seconds.
const SMOKE_SECONDS: u64 = 2;

const STATS: &str = "{\"op\":\"stats\"}\n";
const METRICS: &str = "{\"op\":\"metrics\"}\n";

struct Args {
    serve_bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        serve_bin: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--serve-bin" => a.serve_bin = value()?.into(),
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.serve_bin.as_os_str().is_empty() {
        return Err("--serve-bin is required".into());
    }
    if !a.smoke && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// The result of one run: what the last stdout line and the record carry.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    end_to_end: Vec<(String, f64, &'static str)>,
    per_layer: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, String)>,
}

/// Scratch state of one run, removed when the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ok_reply(reply: &str, what: &str) -> Result<(), String> {
    if reply.contains("\"ok\":true") {
        Ok(())
    } else {
        Err(format!("{what} failed: {}", &reply[..reply.len().min(300)]))
    }
}

/// Write the warm state a warm workload boots from: the clusters ingested
/// and every universe request answered once, compacted into a snapshot by
/// the binary under test. Untimed; reused while binary and inputs match.
fn prepare(wl: &Workload, bin: &Path, bin_hash: u64, root: &Path) -> Result<PathBuf, String> {
    let mut key = bin_hash;
    for spec in wl.clusters.iter().chain(&wl.universe) {
        key ^= fnv(spec.line(0).as_bytes()).rotate_left(17);
        key = key.wrapping_mul(0x0100_0000_01b3);
    }
    let prep = root.join("prep");
    let dir = prep.join(format!("{}-{key:016x}", wl.name));
    if dir.join("READY").exists() {
        return Ok(dir);
    }
    let tmp = prep.join(format!("{}.tmp{}", wl.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench: preparing the warm state of {} (untimed)",
        wl.name
    );
    {
        let mut d = Daemon::spawn(bin, &tmp, DAEMON_WORKERS, &tmp.join("daemon.log"))
            .map_err(|e| e.to_string())?;
        let mut conn = d.connect().map_err(|e| e.to_string())?;
        for (i, spec) in wl.clusters.iter().enumerate() {
            let reply = conn.call(&spec.line(i as u64)).map_err(|e| e.to_string())?;
            ok_reply(&reply, "prepare ingest")?;
        }
        let mut once = Some(wl.universe.clone());
        let ph = drive(&mut conn, Mode::Window(16), WARMUP_ID, false, || {
            once.take()
        })
        .map_err(|e| e.to_string())?;
        if ph.failed > 0 {
            return Err(format!("prepare pass failed: {}", ph.failures.join("; ")));
        }
        let reply = conn
            .call("{\"op\":\"compact\"}\n")
            .map_err(|e| e.to_string())?;
        ok_reply(&reply, "prepare compact")?;
    }
    let _ = std::fs::remove_file(tmp.join("daemon.log"));
    std::fs::write(tmp.join("READY"), b"").map_err(|e| e.to_string())?;
    match std::fs::rename(&tmp, &dir) {
        Ok(()) => Ok(dir),
        // Another run prepared the same state meanwhile.
        Err(_) if dir.join("READY").exists() => {
            let _ = std::fs::remove_dir_all(&tmp);
            Ok(dir)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// The warm-up pass: every universe request once, in the workload's mode.
fn warm_up(conn: &mut Conn, wl: &Workload) -> Result<Phase, String> {
    let mut once = Some(wl.universe.clone());
    let ph = drive(conn, wl.mode, WARMUP_ID, true, || once.take()).map_err(|e| e.to_string())?;
    if ph.failed > 0 {
        return Err(format!("warm-up pass failed: {}", ph.failures.join("; ")));
    }
    Ok(ph)
}

/// Add the cache counters `engine` reports for `clusters` to `acc`.
fn add_counts(
    acc: &mut [[u64; 3]; 4],
    engine: &tarr_serve::Engine,
    clusters: &[&str],
) -> Result<(), String> {
    let c = cache_counts(&engine.handle_line(STATS.trim_end()), clusters)?;
    for (row, new) in acc.iter_mut().zip(c) {
        for (a, v) in row.iter_mut().zip(new) {
            *a += v;
        }
    }
    Ok(())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The measured phase's latency, throughput and job figures, each the
/// median over slices of `per` consecutive jobs (one slice when `per`
/// covers the whole phase). Jobs end in send order and own a contiguous
/// run of requests, so a slice is a contiguous run of requests too, and
/// its throughput counts its replies over the time since the previous
/// slice's last reply. The median over slices keeps a few stalls of the
/// host from moving a tail figure unless they recur through the run.
fn sliced_figures(ph: &Phase, per: usize) -> Vec<(&'static str, f64, &'static str)> {
    let p50_of = |lo: usize, hi: usize, pick: &dyn Fn(&Spec) -> bool| {
        let v: Vec<u64> = (lo..hi)
            .filter(|&i| pick(&ph.sent[i].0))
            .map(|i| ph.lat_ns[i])
            .collect();
        ms(percentile(&v, 0.5))
    };
    let mut cols: [Vec<f64>; 6] = Default::default();
    let (mut lo, mut t0) = (0usize, 0u64);
    for jobs in ph.job_end.chunks(per.max(1)).zip(ph.job_ns.chunks(per.max(1))) {
        let (ends, job_ns) = jobs;
        let hi = *ends.last().expect("chunks are not empty");
        let t1 = ph.done_ns[hi - 1];
        let lat = &ph.lat_ns[lo..hi];
        let job_ms: Vec<f64> = job_ns.iter().map(|&v| ms(v)).collect();
        let figures = [
            ms(percentile(lat, 0.50)),
            ms(percentile(lat, 0.99)),
            (hi - lo) as f64 / ((t1 - t0) as f64 / 1e9),
            median(&job_ms),
            p50_of(lo, hi, &|s| matches!(s.op(), "map" | "reorder")),
            p50_of(lo, hi, &|s| s.op() == "price"),
        ];
        for (col, v) in cols.iter_mut().zip(figures) {
            col.push(v);
        }
        (lo, t0) = (hi, t1);
    }
    let names = [
        ("latency_p50_ms", "ms"),
        ("latency_p99_ms", "ms"),
        ("throughput_rps", "1/s"),
        ("job_p50_ms", "ms"),
        ("map_p50_ms", "ms"),
        ("price_p50_ms", "ms"),
    ];
    names
        .iter()
        .zip(&cols)
        .map(|(&(name, unit), col)| (name, median(col), unit))
        .collect()
}

fn run(args: &Args, name: &str, seconds: u64, trace: bool) -> Result<Report, String> {
    let root = PathBuf::from("perfbench/out");
    if !Path::new("perfbench").is_dir() {
        return Err("run from the repository root (no perfbench/ here)".into());
    }
    let bin = &args.serve_bin;
    let bin_bytes = std::fs::read(bin).map_err(|e| format!("{}: {e}", bin.display()))?;
    let bin_hash = fnv(&bin_bytes);
    drop(bin_bytes);
    let mut wl = Workload::new(name, args.seed).ok_or("unknown workload")?;
    let warm = wl.warm();
    let prep = if warm {
        Some(prepare(&wl, bin, bin_hash, &root)?)
    } else {
        None
    };
    let rd = RunDir(root.join(format!("run-{}-{name}", std::process::id())));
    let _ = std::fs::remove_dir_all(&rd.0);
    std::fs::create_dir_all(&rd.0).map_err(|e| e.to_string())?;
    let mut failures: Vec<String> = Vec::new();

    // Setup: boot the daemon (and, warm, run the warm-up pass) several
    // times; the last boot stays up for the measured phase.
    let mut setups = Vec::new();
    let mut booted = None;
    let reps = if warm { SETUP_REPS } else { SETUP_REPS_COLD };
    for k in 0..reps {
        let state = rd.0.join(format!("state{k}"));
        match &prep {
            Some(p) => copy_dir(p, &state)?,
            None => std::fs::create_dir_all(&state).map_err(|e| e.to_string())?,
        }
        let t = Instant::now();
        let mut d = Daemon::spawn(bin, &state, DAEMON_WORKERS, &rd.0.join(format!("daemon{k}.log")))
            .map_err(|e| e.to_string())?;
        let mut conn = d.connect().map_err(|e| e.to_string())?;
        let warm_phase = if warm {
            Some(warm_up(&mut conn, &wl)?)
        } else {
            None
        };
        setups.push(t.elapsed().as_secs_f64());
        if k + 1 == reps {
            booted = Some((d, conn, warm_phase));
        }
    }
    let (daemon, mut conn, warm_phase) = booted.expect("at least one boot");

    let cluster_names: Vec<String> = if warm {
        wl.clusters
            .iter()
            .map(|s| s.cluster().to_string())
            .collect()
    } else {
        vec!["churn0".into(), "churn1".into()]
    };
    let names: Vec<&str> = cluster_names.iter().map(String::as_str).collect();
    let call = |conn: &mut Conn, line: &str| conn.call(line).map_err(|e| e.to_string());
    let stats0 = call(&mut conn, STATS)?;
    let metrics0 = metrics_reply(&call(&mut conn, METRICS)?)?;

    // The measured phase: whole cycles of jobs, a new cycle started while
    // the run would end nearer to `seconds` with it than without it.
    let start = Instant::now();
    let limit = Duration::from_secs(seconds);
    let cycle = wl.cycle_jobs();
    let mut issued = 0usize;
    let phase = {
        let wl = &mut wl;
        drive(&mut conn, wl.mode, 1, !warm, || {
            if issued.is_multiple_of(cycle) && issued > 0 {
                let per_cycle = start.elapsed() / (issued / cycle) as u32;
                if start.elapsed() + per_cycle / 2 >= limit {
                    return None;
                }
            }
            issued += 1;
            Some(wl.next_job())
        })
        .map_err(|e| e.to_string())?
    };
    let stats1 = call(&mut conn, STATS)?;
    let metrics1 = metrics_reply(&call(&mut conn, METRICS)?)?;
    let rss_mib = daemon.vm_hwm_mib().map_err(|e| e.to_string())?;
    drop(conn);
    drop(daemon);
    failures.extend(phase.failures.iter().cloned());

    // Output checks.
    let mut checker = Checker::default();
    let mut caches = [[0u64; 3]; 4];
    if warm {
        let wp = warm_phase.as_ref().expect("warm boot ran a warm-up pass");
        for spec in &wl.clusters {
            checker.allocate(spec);
        }
        let mut body_of: HashMap<*const Spec, u64> = HashMap::new();
        for (((spec, _), reply), &bh) in wp.sent.iter().zip(&wp.replies).zip(&wp.body_hashes) {
            let j = tarr_trace::json::parse(reply)?;
            body_of.insert(Arc::as_ptr(spec), bh);
            checker.observe(spec, &j);
        }
        let mut differ = 0;
        for ((spec, _), bh) in phase.sent.iter().zip(&phase.body_hashes) {
            if body_of.get(&Arc::as_ptr(spec)) != Some(bh) {
                differ += 1;
            }
        }
        if differ > 0 {
            failures.push(format!(
                "{differ} measured replies differ from the warm-up reply to the same request"
            ));
        }
        let before = cache_counts(&stats0, &names)?;
        let after = cache_counts(&stats1, &names)?;
        let mut d = [[0u64; 3]; 4];
        for i in 0..4 {
            for k in 0..3 {
                d[i][k] = after[i][k].saturating_sub(before[i][k]);
            }
        }
        let misses: u64 = d.iter().map(|r| r[1]).sum();
        if misses > 0 {
            failures.push(format!(
                "warm measured phase recorded {misses} cache misses"
            ));
        }
        caches = d;
    } else {
        for ((spec, _), reply) in phase.sent.iter().zip(&phase.replies) {
            if reply.contains("\"ok\":true") {
                checker.observe(spec, &tarr_trace::json::parse(reply)?);
            }
        }
    }
    checker.finish(&mut Rng::new(args.seed).fork(9), REF_BUDGET);
    failures.extend(checker.failures.iter().cloned());
    if checker.ref_checked == 0 {
        failures.push("no reference-pricer comparison ran".into());
    }
    if name == "lockstep_warm" && checker.hrstc_wins == 0 {
        failures.push("no hrstc-vs-default comparison ran".into());
    }

    // Byte-identity against a single-threaded in-process engine. Churn
    // replays every measured line: each job mutates state. Warm state never
    // changes and every measured reply already equals the warm-up reply to
    // the same request (checked above, ids aside), so replaying the warm-up
    // pass and a prefix of the measured lines covers the whole stream.
    let engine_dir = rd.0.join("engine");
    match &prep {
        Some(p) => copy_dir(p, &engine_dir)?,
        None => std::fs::create_dir_all(&engine_dir).map_err(|e| e.to_string())?,
    }
    let (engine, _) = tarr_serve::Engine::with_state_dir(&engine_dir)?;
    let mut mismatches = Vec::new();
    if let Some(wp) = &warm_phase {
        let r = replay_engine(&engine, &wp.sent, &wp.hashes, |_, _| {});
        mismatches.extend(r.first_mismatch.map(|m| (r.mismatches, m)));
    }
    let n_replay = if warm {
        phase.sent.len().min(WARM_REPLAY_REQUESTS)
    } else {
        phase.sent.len()
    };
    // Churn's cache counters come from this replay, not from the daemon:
    // a fault swaps in a degraded core with fresh counters and an ingest
    // replaces a slot, so each slot's counters are read just before either
    // (and at the end). Reading the daemon there would split each burst.
    let mut count_err = None;
    let replay = replay_engine(
        &engine,
        &phase.sent[..n_replay],
        &phase.hashes[..n_replay],
        |engine, spec| {
            if !warm && matches!(spec.op(), "fault" | "ingest") {
                if let Err(e) = add_counts(&mut caches, engine, &[spec.cluster()]) {
                    count_err.get_or_insert(e);
                }
            }
        },
    );
    if !warm {
        add_counts(&mut caches, &engine, &names)?;
    }
    if let Some(e) = count_err {
        return Err(e);
    }
    drop(engine);
    mismatches.extend(
        replay
            .first_mismatch
            .clone()
            .map(|m| (replay.mismatches, m)),
    );
    for (n, first) in mismatches {
        failures.push(format!(
            "{n} replies differ from the in-process replay; first: {first}"
        ));
    }

    // End-to-end metrics.
    let n = phase.sent.len() as f64;
    let mut end_to_end = vec![("setup_s".to_string(), median(&setups), "s")];
    for (name, v, unit) in sliced_figures(&phase, wl.slice_jobs()) {
        end_to_end.push((name.to_string(), v, unit));
    }
    end_to_end.push(("rss_peak_mib".into(), rss_mib, "MiB"));

    // Per-layer metrics read from outside the untraced run.
    let mut per_layer = Vec::new();
    let mean_rtt_ms = phase.lat_ns.iter().map(|&v| ms(v)).sum::<f64>() / n.max(1.0);
    let delta = |family: &str, op: Option<&str>| {
        let (s1, c1) = hist(&metrics1, family, op);
        let (s0, c0) = hist(&metrics0, family, op);
        (s1 - s0, c1 - c0)
    };
    let (mut qw_sum, mut qw_n, mut svc_sum) = (0.0, 0.0, 0.0);
    let mut svc = Vec::new();
    for op in OPS {
        let (qs, qc) = delta("tarr_serve_queue_wait_seconds", Some(op));
        let (ss, sc) = delta("tarr_serve_service_seconds", Some(op));
        qw_sum += qs;
        qw_n += qc;
        svc_sum += ss;
        svc.push((
            format!("serve.service_ms.{op}"),
            if sc > 0.0 { ss / sc * 1e3 } else { 0.0 },
            "ms",
        ));
    }
    per_layer.push((
        "serve.transport_ms".to_string(),
        mean_rtt_ms - (qw_sum + svc_sum) / n.max(1.0) * 1e3,
        "ms",
    ));
    per_layer.push((
        "serve.queue_wait_ms".into(),
        if qw_n > 0.0 { qw_sum / qw_n * 1e3 } else { 0.0 },
        "ms",
    ));
    per_layer.extend(svc);
    per_layer.push((
        "serve.reply_bytes".into(),
        phase.reply_bytes as f64 / n.max(1.0),
        "bytes",
    ));
    let (fs, fc) = delta("tarr_serve_fsync_seconds", None);
    per_layer.push((
        "replay.fsync_ms".into(),
        if fc > 0.0 { fs / fc * 1e3 } else { 0.0 },
        "ms",
    ));
    for (i, cache) in CACHES.iter().enumerate() {
        for (k, outcome) in OUTCOMES.iter().enumerate() {
            per_layer.push((
                format!("core.cache.{cache}.{outcome}"),
                caches[i][k] as f64,
                "count",
            ));
        }
    }

    // The traced in-process replay of the same inputs.
    if trace {
        let mut handle_us = [Mean::default(); 5];
        for ((spec, _), &ns) in phase.sent.iter().zip(&replay.handle_ns) {
            handle_us[spec.op_index()].add(ns as f64 / 1e3);
        }
        let mut lt = LayerTrace::new(&rd.0.join("trace-wal"))?;
        if warm {
            let wp = warm_phase.as_ref().expect("warm boot ran a warm-up pass");
            for spec in &wl.clusters {
                lt.layer(spec, 0)?;
            }
            let mut reply_of: HashMap<*const Spec, &str> = HashMap::new();
            for ((spec, id), reply) in wp.sent.iter().zip(&wp.replies) {
                reply_of.insert(Arc::as_ptr(spec), reply);
                lt.request(spec, *id, reply, None)?;
            }
            for (i, (spec, id)) in phase.sent.iter().enumerate().take(n_replay) {
                let reply = reply_of.get(&Arc::as_ptr(spec)).copied().unwrap_or("{}");
                lt.request(spec, *id, reply, Some(replay.handle_ns[i]))?;
            }
        } else {
            for (i, ((spec, id), reply)) in phase.sent.iter().zip(&phase.replies).enumerate() {
                lt.request(spec, *id, reply, Some(replay.handle_ns[i]))?;
            }
        }
        lt.snapshot_roundtrip(&rd.0.join("trace-snap"))?;
        per_layer.extend(lt.metrics(&handle_us));
    }

    let notes = vec![
        ("samples".to_string(), phase.lat_ns.len().to_string()),
        ("jobs".into(), phase.job_ns.len().to_string()),
        ("setup_runs_s".into(), format!("{setups:?}")),
        (
            "replies_checked".into(),
            checker.replies_checked.to_string(),
        ),
        ("reference_checked".into(), checker.ref_checked.to_string()),
        (
            "reference_max_rel_diff".into(),
            format!("{:e}", checker.ref_max_rel),
        ),
        ("hrstc_wins_checked".into(), checker.hrstc_wins.to_string()),
        ("replayed".into(), replay.handle_ns.len().to_string()),
        ("serve_bin_fnv".into(), format!("{bin_hash:016x}")),
    ];
    Ok(Report {
        correct: failures.is_empty(),
        attempted: phase.sent.len() as u64,
        failed: phase.failed,
        failures,
        end_to_end,
        per_layer,
        notes,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(m: &[(String, f64, &str)]) -> String {
    let items: Vec<String> = m
        .iter()
        .map(|(k, v, u)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine-readable record of one run.
fn write_record(
    args: &Args,
    name: &str,
    seconds: u64,
    trace: bool,
    r: &Report,
) -> Result<PathBuf, String> {
    let dir = PathBuf::from("perfbench/out/records");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed, trace as u8
    ));
    let notes: Vec<String> = r
        .notes
        .iter()
        .map(|(k, v)| {
            let mut s = String::new();
            tarr_trace::json::write_escaped(&mut s, v);
            format!("\"{k}\": {s}")
        })
        .collect();
    let failures: Vec<String> = r
        .failures
        .iter()
        .map(|f| {
            let mut s = String::new();
            tarr_trace::json::write_escaped(&mut s, f);
            s
        })
        .collect();
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let body = format!(
        "{{\n  \"workload\": \"{name}\",\n  \"seed\": {},\n  \"seconds\": {seconds},\n  \"trace\": {trace},\n  \
         \"commit\": \"{}\",\n  \"nproc\": {},\n  \"daemon_workers\": {},\n  \"unix_time\": {unix},\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \
         \"end_to_end\": {},\n  \"per_layer\": {},\n  \"notes\": {{{}}}\n}}\n",
        args.seed,
        commit(),
        nproc(),
        DAEMON_WORKERS,
        r.correct,
        r.attempted,
        r.failed,
        failures.join(", "),
        metrics_json(&r.end_to_end),
        metrics_json(&r.per_layer),
        notes.join(", ")
    );
    std::fs::write(&path, body).map_err(|e| e.to_string())?;
    Ok(path)
}

fn summarize(name: &str, r: &Report) {
    eprintln!(
        "perfbench: {name}: correct={} attempted={} failed={}",
        r.correct, r.attempted, r.failed
    );
    for (k, v, u) in r.end_to_end.iter().chain(&r.per_layer) {
        eprintln!("  {k:<28} {v:>14.4} {u}");
    }
    for (k, v) in &r.notes {
        eprintln!("  ({k}: {v})");
    }
    for f in &r.failures {
        eprintln!("  FAIL: {f}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs: Vec<(&str, u64, bool)> = if args.smoke {
        WORKLOADS
            .iter()
            .map(|w| (*w, SMOKE_SECONDS, true))
            .collect()
    } else {
        vec![(args.workload.as_str(), args.seconds, args.trace)]
    };
    let mut last = None;
    let mut all_correct = true;
    for (name, seconds, trace) in jobs {
        let r = match run(&args, name, seconds, trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        summarize(name, &r);
        match write_record(&args, name, seconds, trace, &r) {
            Ok(p) => eprintln!("perfbench: record written to {}", p.display()),
            Err(e) => eprintln!("perfbench: cannot write record: {e}"),
        }
        all_correct &= r.correct;
        last = Some(r);
    }
    let r = last.expect("at least one workload ran");
    let metrics = if args.trace || args.smoke {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        all_correct,
        r.attempted,
        r.failed,
        metrics_json(metrics)
    );
    // A measured run that printed its result exits 0 even when a check
    // failed: `correct` carries the verdict. Smoke mode is a gate.
    if all_correct || !args.smoke {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
