//! In-process replays of the generated inputs.
//!
//! [`replay_engine`] feeds the request lines a TCP run sent through a
//! single-threaded [`Engine::handle_line`] and compares every reply with
//! the daemon's, byte for byte (by hash). [`LayerTrace`] replays the same
//! inputs through the layers' public functions — JSON parse, `build_core`,
//! `SessionHandle` mapping and pricing, `fault_core`, the WAL writer, reply
//! serialization, snapshot write and restore — and times each call. The
//! spans live here, around the calls; nothing inside the program is
//! instrumented.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tarr_core::{Mapper, PatternKind, Scheme, SessionCore, SessionHandle};
use tarr_mapping::OrderFix;
use tarr_replay::{
    build_core, fault_core, restore_dir, write_snapshot, BackendKind, EngineSnapshot, Event,
    FaultSpec, IngestSource, IngestSpec, LayoutKind, WalWriter, WAL_FILE,
};
use tarr_serve::Engine;
use tarr_trace::json::{parse, Json};

use crate::gen::{Source, Spec, OPS};
use crate::stats::fnv;

/// What the single-threaded replay found.
pub struct EngineReplay {
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    /// `Engine::handle_line` wall time per replayed request, ns.
    pub handle_ns: Vec<u64>,
}

/// Replay `lines` (with the TCP run's reply hashes) through `engine`;
/// `before` runs, untimed, ahead of each request.
pub fn replay_engine(
    engine: &Engine,
    lines: &[(Arc<Spec>, u64)],
    hashes: &[u64],
    mut before: impl FnMut(&Engine, &Spec),
) -> EngineReplay {
    let mut out = EngineReplay {
        mismatches: 0,
        first_mismatch: None,
        handle_ns: Vec::with_capacity(lines.len()),
    };
    for ((spec, id), &want) in lines.iter().zip(hashes) {
        before(engine, spec);
        let line = spec.line(*id);
        let t = Instant::now();
        let reply = engine.handle_line(line.trim_end());
        out.handle_ns.push(t.elapsed().as_nanos() as u64);
        if fnv(reply.as_bytes()) != want {
            out.mismatches += 1;
            if out.first_mismatch.is_none() {
                let mut r = reply;
                r.truncate(300);
                out.first_mismatch = Some(format!("id {id}: in-process reply {r}"));
            }
        }
    }
    out
}

/// Running mean.
#[derive(Default, Clone, Copy)]
pub struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    /// The mean, or 0 when the layer never ran on this workload.
    pub fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-layer span aggregates of one traced replay.
#[derive(Default)]
pub struct LayerTrace {
    pub parse_us: Mean,
    pub write_us: Mean,
    pub build_ms: Mean,
    pub mapping_cold_ms: HashMap<&'static str, Mean>,
    pub price_cold_ms: Mean,
    pub price_warm_us: Mean,
    pub fault_apply_ms: Mean,
    pub fault_reprice_ms: Mean,
    pub wal_append_ms: Mean,
    pub snapshot_write_ms: Mean,
    pub restore_ms: Mean,
    /// Per request: `Engine::handle_line` time minus the parse, layer and
    /// write spans of the same request, µs.
    pub unattributed_us: Vec<f64>,
    cores: HashMap<String, Arc<SessionCore>>,
    /// Clusters whose next price is the first on a degraded core.
    repricing: HashMap<String, bool>,
    wal: Option<WalWriter>,
    next_event: u64,
}

fn mapper(name: &str) -> Mapper {
    tarr_serve::protocol::parse_mapper(name).expect("generated mapper names are valid")
}

fn pattern(name: &str) -> PatternKind {
    tarr_serve::protocol::parse_pattern(name).expect("generated pattern names are valid")
}

fn scheme(s: Option<(&str, &str)>) -> Scheme {
    match s {
        None => Scheme::Default,
        Some((m, f)) => Scheme::Reordered {
            mapper: mapper(m),
            fix: tarr_serve::protocol::parse_fix(f).unwrap_or(OrderFix::InitComm),
        },
    }
}

/// The replay-layer spec of a generated ingest.
fn ingest_spec(source: &Source, layout: &str, p: usize, seed: u64) -> IngestSpec {
    IngestSpec {
        source: match source {
            Source::Gpc(nodes) => IngestSource::GpcNodes(*nodes as u64),
            Source::Torus(_) => IngestSource::SnapshotText(
                tarr_ingest::ClusterSnapshot::canonical_cluster_text(&source.cluster()),
            ),
        },
        layout: LayoutKind::parse(layout).expect("generated layouts are valid"),
        p: Some(p as u64),
        seed: Some(seed),
        backend: BackendKind::Implicit,
        replace: true,
    }
}

impl LayerTrace {
    /// A trace whose WAL appends go to a fresh log in `dir`.
    pub fn new(dir: &Path) -> Result<LayerTrace, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let wal = WalWriter::open_append(&dir.join(WAL_FILE)).map_err(|e| e.to_string())?;
        Ok(LayerTrace {
            wal: Some(wal),
            next_event: 1,
            ..LayerTrace::default()
        })
    }

    fn log(&mut self, req_id: u64, event: &Event) -> Result<(), String> {
        let wal = self.wal.as_mut().expect("wal open");
        let t = Instant::now();
        wal.append(self.next_event, req_id, &event.encode())
            .map_err(|e| e.to_string())?;
        self.wal_append_ms.add(ms(t.elapsed()));
        self.next_event += 1;
        Ok(())
    }

    fn handle(&self, cluster: &str) -> Result<SessionHandle, String> {
        self.cores
            .get(cluster)
            .map(|c| c.handle())
            .ok_or_else(|| format!("traced replay: unknown cluster {cluster}"))
    }

    /// Run one request's layer call; returns its wall time.
    pub fn layer(&mut self, spec: &Spec, req_id: u64) -> Result<Duration, String> {
        match spec {
            Spec::Ingest {
                cluster,
                source,
                layout,
                p,
                seed,
            } => {
                let ispec = ingest_spec(source, layout, *p, *seed);
                let t = Instant::now();
                let core = build_core(&ispec).map_err(|e| e.to_string())?;
                let built = t.elapsed();
                self.build_ms.add(ms(built));
                let t = Instant::now();
                self.log(
                    req_id,
                    &Event::Ingest {
                        cluster: cluster.clone(),
                        spec: ispec,
                    },
                )?;
                self.cores.insert(cluster.clone(), Arc::new(core));
                self.repricing.insert(cluster.clone(), false);
                Ok(built + t.elapsed())
            }
            Spec::Fault {
                cluster,
                seed,
                link_fail,
                node_drain,
            } => {
                let fault = FaultSpec {
                    seed: *seed,
                    link_fail: *link_fail,
                    switch_fail: 0.0,
                    node_drain: *node_drain,
                    core_drain: 0.0,
                };
                let core = self
                    .cores
                    .get(cluster)
                    .cloned()
                    .ok_or("fault on unknown cluster")?;
                let t = Instant::now();
                let (degraded, _) = fault_core(&core, &fault).map_err(|e| e.to_string())?;
                let applied = t.elapsed();
                self.fault_apply_ms.add(ms(applied));
                let t = Instant::now();
                self.log(
                    req_id,
                    &Event::Fault {
                        cluster: cluster.clone(),
                        fault,
                    },
                )?;
                self.cores.insert(cluster.clone(), Arc::new(degraded));
                self.repricing.insert(cluster.clone(), true);
                Ok(applied + t.elapsed())
            }
            Spec::Map {
                cluster,
                mapper: m,
                pattern: pat,
            } => {
                let mut h = self.handle(cluster)?;
                let t = Instant::now();
                let _ = h.mapping(mapper(m), pattern(pat));
                let d = t.elapsed();
                if h.cache_stats().mapping_misses > 0 {
                    self.mapping_cold_ms.entry(m).or_default().add(ms(d));
                }
                Ok(d)
            }
            Spec::Reorder {
                cluster,
                mapper: m,
                pattern: pat,
            } => {
                let mut h = self.handle(cluster)?;
                let t = Instant::now();
                let _ = h.reordered_comm(mapper(m), pattern(pat));
                let d = t.elapsed();
                if h.cache_stats().mapping_misses > 0 {
                    self.mapping_cold_ms.entry(m).or_default().add(ms(d));
                }
                Ok(d)
            }
            Spec::Price {
                cluster,
                collective,
                msg,
                scheme: s,
            } => {
                let mut h = self.handle(cluster)?;
                let sc = scheme(*s);
                let t = Instant::now();
                let _ = match *collective {
                    "allgather" => h.allgather_time(*msg, sc),
                    "bcast" => h.bcast_time(*msg, sc),
                    "gather" => h.gather_time(*msg, sc),
                    _ => h.allreduce_time(*msg, true, sc),
                };
                let d = t.elapsed();
                let st = h.cache_stats();
                let misses =
                    st.mapping_misses + st.comm_misses + st.sched_misses + st.price_computed;
                if st.mapping_misses == 0 && (st.sched_misses > 0 || st.price_computed > 0) {
                    self.price_cold_ms.add(ms(d));
                } else if misses == 0 {
                    self.price_warm_us.add(us(d));
                }
                if self.repricing.insert(cluster.clone(), false) == Some(true) {
                    self.fault_reprice_ms.add(ms(d));
                }
                Ok(d)
            }
        }
    }

    /// Replay one request: parse its line, run its layer call, serialize
    /// its reply. With `handle_ns` (the same request's
    /// `Engine::handle_line` time) the remainder is unattributed time.
    pub fn request(
        &mut self,
        spec: &Spec,
        id: u64,
        reply: &str,
        handle_ns: Option<u64>,
    ) -> Result<(), String> {
        let line = spec.line(id);
        let t = Instant::now();
        let parsed = parse(line.trim_end());
        let parse_d = t.elapsed();
        parsed.map_err(|e| format!("traced replay: bad request line: {e}"))?;
        self.parse_us.add(us(parse_d));
        let layer_d = self.layer(spec, id)?;
        let reply: Json = parse(reply).map_err(|e| format!("traced replay: bad reply: {e}"))?;
        let t = Instant::now();
        let text = tarr_serve::protocol::to_string(&reply);
        let write_d = t.elapsed();
        std::hint::black_box(text);
        self.write_us.add(us(write_d));
        if let Some(h) = handle_ns {
            let spans = parse_d + layer_d + write_d;
            self.unattributed_us
                .push((h as f64 - spans.as_nanos() as f64) / 1e3);
        }
        Ok(())
    }

    /// Write a snapshot of every replayed core to `dir` and restore it.
    pub fn snapshot_roundtrip(&mut self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut cores: Vec<(String, Arc<SessionCore>)> = self
            .cores
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        cores.sort_by(|a, b| a.0.cmp(&b.0));
        let t = Instant::now();
        let snap =
            EngineSnapshot::capture(self.next_event - 1, &cores).map_err(|e| e.to_string())?;
        write_snapshot(dir, &snap).map_err(|e| e.to_string())?;
        self.snapshot_write_ms.add(ms(t.elapsed()));
        drop(snap);
        let t = Instant::now();
        let restored = restore_dir(dir, false).map_err(|e| e.to_string())?;
        self.restore_ms.add(ms(t.elapsed()));
        if restored.state.clusters.len() != cores.len() {
            return Err("snapshot restore lost clusters".into());
        }
        Ok(())
    }

    /// The per-layer metrics of this trace (every name, 0 where the layer
    /// never ran on the workload).
    pub fn metrics(&self, handle_us: &[Mean; 5]) -> Vec<(String, f64, &'static str)> {
        let mut m = vec![
            ("json.parse_us".to_string(), self.parse_us.get(), "us"),
            ("protocol.write_us".to_string(), self.write_us.get(), "us"),
        ];
        for (i, op) in OPS.iter().enumerate() {
            m.push((format!("engine.handle_us.{op}"), handle_us[i].get(), "us"));
        }
        m.push(("topo.build_ms".into(), self.build_ms.get(), "ms"));
        for mp in ["hrstc", "greedy", "scotch"] {
            let v = self.mapping_cold_ms.get(mp).map_or(0.0, Mean::get);
            m.push((format!("mapping.cold_ms.{mp}"), v, "ms"));
        }
        m.push(("mpi.price_cold_ms".into(), self.price_cold_ms.get(), "ms"));
        m.push(("mpi.price_warm_us".into(), self.price_warm_us.get(), "us"));
        m.push(("faults.apply_ms".into(), self.fault_apply_ms.get(), "ms"));
        m.push((
            "faults.reprice_ms".into(),
            self.fault_reprice_ms.get(),
            "ms",
        ));
        m.push((
            "replay.wal_append_ms".into(),
            self.wal_append_ms.get(),
            "ms",
        ));
        m.push((
            "replay.snapshot_write_ms".into(),
            self.snapshot_write_ms.get(),
            "ms",
        ));
        m.push(("replay.restore_ms".into(), self.restore_ms.get(), "ms"));
        // A median: on cold requests the two replays each run milliseconds of
        // the same work, and their run-to-run noise would swamp a mean.
        m.push((
            "trace.unattributed_us".into(),
            crate::stats::median(&self.unattributed_us),
            "us",
        ));
        m
    }
}
