//! Seeded input generation: the request specs each workload sends.
//!
//! Every generated input — request order, allocation and fault seeds,
//! layouts, which mapper a job asks for — comes from one [`Rng`] seeded by
//! the `--seed` argument, so one seed always yields the same request
//! stream. The daemon only ever sees the rendered request lines.

use std::sync::Arc;

use tarr_topo::{Cluster, NodeTopology};

/// SplitMix64: small, seedable and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_7a22_b00c_0001)
    }

    /// An independent stream for one purpose (`salt`) of the same seed.
    pub fn fork(&self, salt: u64) -> Rng {
        let mut r = Rng(self.0 ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Where an ingested allocation comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// The synthetic GPC fat-tree with this many 8-core nodes.
    Gpc(usize),
    /// A 3D torus of GPC-style nodes, sent as `topo-ingest` snapshot text.
    Torus([usize; 3]),
}

impl Source {
    /// The cluster this source describes, built independently of the
    /// daemon (the reference-pricer and allocation checks use it).
    pub fn cluster(&self) -> Cluster {
        match *self {
            Source::Gpc(nodes) => Cluster::gpc(nodes),
            Source::Torus(dims) => Cluster::with_torus(NodeTopology::gpc(), dims),
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Source::Gpc(_) => "fattree",
            Source::Torus(_) => "torus",
        }
    }
}

/// The four initial layouts, in protocol spelling.
pub const LAYOUTS: [&str; 4] = [
    "block_bunch",
    "cyclic_bunch",
    "block_scatter",
    "cyclic_scatter",
];

/// One request, structured (the benchmark's checks need the fields) and
/// renderable to the wire line the daemon receives.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    Ingest {
        cluster: String,
        source: Source,
        layout: &'static str,
        p: usize,
        seed: u64,
    },
    Map {
        cluster: String,
        mapper: &'static str,
        pattern: &'static str,
    },
    Reorder {
        cluster: String,
        mapper: &'static str,
        pattern: &'static str,
    },
    Price {
        cluster: String,
        collective: &'static str,
        msg: u64,
        /// `None` = the default scheme; otherwise (mapper, fix).
        scheme: Option<(&'static str, &'static str)>,
    },
    Fault {
        cluster: String,
        seed: u64,
        link_fail: f64,
        node_drain: f64,
    },
}

/// The ops the end-to-end and per-layer metrics break out.
pub const OPS: [&str; 5] = ["map", "reorder", "price", "ingest", "fault"];

impl Spec {
    pub fn op(&self) -> &'static str {
        match self {
            Spec::Ingest { .. } => "ingest",
            Spec::Map { .. } => "map",
            Spec::Reorder { .. } => "reorder",
            Spec::Price { .. } => "price",
            Spec::Fault { .. } => "fault",
        }
    }

    /// Index into [`OPS`].
    pub fn op_index(&self) -> usize {
        OPS.iter().position(|o| *o == self.op()).expect("known op")
    }

    pub fn cluster(&self) -> &str {
        match self {
            Spec::Ingest { cluster, .. }
            | Spec::Map { cluster, .. }
            | Spec::Reorder { cluster, .. }
            | Spec::Price { cluster, .. }
            | Spec::Fault { cluster, .. } => cluster,
        }
    }

    /// The request line, `id` first, newline-terminated.
    pub fn line(&self, id: u64) -> String {
        let body = match self {
            Spec::Ingest {
                cluster,
                source,
                layout,
                p,
                seed,
            } => {
                let src = match source {
                    Source::Gpc(nodes) => format!("\"gpc_nodes\":{nodes}"),
                    Source::Torus(_) => {
                        let text =
                            tarr_ingest::ClusterSnapshot::canonical_cluster_text(&source.cluster());
                        let mut s = String::from("\"snapshot\":");
                        tarr_trace::json::write_escaped(&mut s, &text);
                        s
                    }
                };
                format!(
                    "\"op\":\"ingest\",\"cluster\":\"{cluster}\",{src},\"layout\":\"{layout}\",\
                     \"p\":{p},\"seed\":{seed},\"replace\":true"
                )
            }
            Spec::Map {
                cluster,
                mapper,
                pattern,
            } => format!(
                "\"op\":\"map\",\"cluster\":\"{cluster}\",\"mapper\":\"{mapper}\",\"pattern\":\"{pattern}\""
            ),
            Spec::Reorder {
                cluster,
                mapper,
                pattern,
            } => format!(
                "\"op\":\"reorder\",\"cluster\":\"{cluster}\",\"mapper\":\"{mapper}\",\"pattern\":\"{pattern}\""
            ),
            Spec::Price {
                cluster,
                collective,
                msg,
                scheme,
            } => {
                let scheme = match scheme {
                    None => String::new(),
                    Some((m, f)) => format!(",\"mapper\":\"{m}\",\"fix\":\"{f}\""),
                };
                format!(
                    "\"op\":\"price\",\"cluster\":\"{cluster}\",\"collective\":\"{collective}\",\
                     \"msg_bytes\":{msg}{scheme}"
                )
            }
            Spec::Fault {
                cluster,
                seed,
                link_fail,
                node_drain,
            } => format!(
                "\"op\":\"fault\",\"cluster\":\"{cluster}\",\"seed\":{seed},\
                 \"link_fail\":{link_fail},\"node_drain\":{node_drain}"
            ),
        };
        format!("{{\"id\":{id},{body}}}\n")
    }
}

/// How the client keeps requests in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One request outstanding.
    Lockstep,
    /// Up to this many requests outstanding on the one connection.
    Window(usize),
    /// A whole job written back to back, then all its replies read.
    Burst,
}

/// A workload: the clusters it serves warm (if any), the request universe
/// the warm-up pass covers, and the job stream.
pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    /// Ingests the untimed prepare step runs (warm workloads only).
    pub clusters: Vec<Arc<Spec>>,
    /// Every request the measured phase can send (warm workloads only);
    /// the warm-up pass sends each once.
    pub universe: Vec<Arc<Spec>>,
    jobs: JobGen,
}

enum JobGen {
    Lockstep(Rng),
    Pipelined {
        rng: Rng,
        prices: Vec<usize>,
        maps: Vec<usize>,
    },
    /// `round` holds allocation indices; `rounds` counts rounds begun and
    /// `layout` is the seeded layout offset.
    Churn {
        rng: Rng,
        round: Vec<usize>,
        next: usize,
        rounds: usize,
        layout: usize,
        job: u64,
    },
}

pub const WORKLOADS: [&str; 3] = ["lockstep_warm", "pipelined_warm", "churn_cold"];

fn arc(spec: Spec) -> Arc<Spec> {
    Arc::new(spec)
}

fn price(
    cluster: &str,
    collective: &'static str,
    msg: u64,
    scheme: Option<(&'static str, &'static str)>,
) -> Spec {
    Spec::Price {
        cluster: cluster.to_string(),
        collective,
        msg,
        scheme,
    }
}

/// Lockstep: one job = one `reorder`, one `map`, nine allgather prices
/// (1 KiB / 64 KiB / 1 MiB × default / hrstc / scotch) and one bcast and
/// one gather, on a warm 4096-rank cyclic GPC cluster. No allreduce: its
/// price is recomputed on every request (~14 ms of CPU at 4096 ranks), and
/// on a shared host that made this workload's p99 move by 25% between
/// runs of one commit; `churn_cold` prices it instead.
pub const LK: &str = "lk4096";
pub const LK_NODES: usize = 512;
const LK_REORDERS: [(&str, &str); 2] = [("hrstc", "ring"), ("scotch", "ring")];
const LK_MAPS: [(&str, &str); 4] = [
    ("hrstc", "ring"),
    ("hrstc", "rd"),
    ("scotch", "ring"),
    ("scotch", "rd"),
];
const LK_AG: [u64; 3] = [1 << 10, 1 << 16, 1 << 20];
const LK_OTHER: [&str; 2] = ["bcast", "gather"];
const LK_OTHER_MSG: [u64; 2] = [1 << 12, 1 << 16];

/// Pipelined: a 4096-rank block GPC cluster priced under every
/// mapper/fix, and a 65,536-rank GPC cluster under default and hrstc.
/// Only the collectives whose prices the daemon caches are swept: `bcast`
/// and `allreduce` prices are recomputed on every request (about 1 ms and
/// 14 ms at 4096 ranks, 0.4 s for allreduce at 65,536), so at any share
/// they would set the sweep's pace and hide the layers this workload
/// measures. `lockstep_warm` prices bcast; `churn_cold` prices both.
pub const PA: &str = "pa4096";
pub const PA_NODES: usize = 512;
pub const PB: &str = "pb65536";
const PB_NODES: usize = 8192;
const PIPELINED_COLLECTIVES: [&str; 2] = ["allgather", "gather"];
const MAPPERS: [&str; 5] = ["hrstc", "scotch", "scotch_tuned", "greedy", "mvapich"];
const PA_MSG: [u64; 5] = [64, 1 << 10, 1 << 14, 1 << 18, 1 << 22];
const PB_MSG: [u64; 4] = [64, 1 << 12, 1 << 18, 1 << 22];
const FIXES: [&str; 3] = ["init_comm", "end_shuffle", "in_place"];
/// Requests per pipelined job (one tuner sweep).
const SWEEP: usize = 32;
/// Pipelined jobs per cycle: 2048 requests, so each cycle's p99 has 20
/// samples beyond it.
const PIPELINED_CYCLE: usize = 64;
/// Pipelined requests outstanding. A request's latency spans about this
/// many service times, so a stall of a few milliseconds when the host
/// takes a CPU away weighs less in it. At 128, `latency_p99_ms` spread
/// 0.17–0.28 of its median between runs of one build; at 512, about 0.1.
const PIPELINED_WINDOW: usize = 512;

/// Churn: the fresh allocations a round visits.
/// Sizes sit on half-occupied clusters (two 8-core nodes per 8 ranks), so
/// drained nodes leave room to migrate ranks. Five allocations rather than
/// all six fabric × size pairs: a 512-rank job costs one transport stall
/// either way, and with an odd count the median job is a whole class of
/// jobs (the 8192-rank torus) instead of the gap between two classes.
pub const CHURN_ALLOCS: [(&str, usize); 5] = [
    ("fattree", 512),
    ("fattree", 2048),
    ("fattree", 8192),
    ("torus", 2048),
    ("torus", 8192),
];
fn torus_dims(ranks: usize) -> [usize; 3] {
    match ranks {
        2048 => [8, 8, 8],
        8192 => [16, 16, 8],
        _ => unreachable!("churn sizes are fixed"),
    }
}
/// Greedy and Scotch run cold only up to this many ranks.
const CHURN_HEAVY_MAX: usize = 2048;

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let rng = Rng::new(seed);
        Some(match name {
            "lockstep_warm" => {
                let ingest = arc(Spec::Ingest {
                    cluster: LK.into(),
                    source: Source::Gpc(LK_NODES),
                    layout: "cyclic_bunch",
                    p: LK_NODES * 8,
                    seed: 1,
                });
                let mut u = Vec::new();
                for (m, pat) in LK_REORDERS {
                    u.push(arc(Spec::Reorder {
                        cluster: LK.into(),
                        mapper: m,
                        pattern: pat,
                    }));
                }
                for (m, pat) in LK_MAPS {
                    u.push(arc(Spec::Map {
                        cluster: LK.into(),
                        mapper: m,
                        pattern: pat,
                    }));
                }
                for msg in LK_AG {
                    for scheme in [
                        None,
                        Some(("hrstc", "in_place")),
                        Some(("scotch", "in_place")),
                    ] {
                        u.push(arc(price(LK, "allgather", msg, scheme)));
                    }
                }
                for c in LK_OTHER {
                    for msg in LK_OTHER_MSG {
                        for scheme in [None, Some(("hrstc", "init_comm"))] {
                            u.push(arc(price(LK, c, msg, scheme)));
                        }
                    }
                }
                Workload {
                    name: "lockstep_warm",
                    mode: Mode::Lockstep,
                    clusters: vec![ingest],
                    universe: u,
                    jobs: JobGen::Lockstep(rng.fork(1)),
                }
            }
            "pipelined_warm" => {
                let clusters = vec![
                    arc(Spec::Ingest {
                        cluster: PA.into(),
                        source: Source::Gpc(PA_NODES),
                        layout: "block_bunch",
                        p: PA_NODES * 8,
                        seed: 1,
                    }),
                    arc(Spec::Ingest {
                        cluster: PB.into(),
                        source: Source::Gpc(PB_NODES),
                        layout: "block_bunch",
                        p: PB_NODES * 8,
                        seed: 1,
                    }),
                ];
                let mut u = Vec::new();
                let mut prices = Vec::new();
                let mut maps = Vec::new();
                // Maps and reorders first, so the traced cold replay times
                // them as mapping work rather than inside a price.
                for (m, pat) in [("hrstc", "ring"), ("hrstc", "rd"), ("scotch", "ring")] {
                    maps.push(u.len());
                    u.push(arc(Spec::Map {
                        cluster: PA.into(),
                        mapper: m,
                        pattern: pat,
                    }));
                    maps.push(u.len());
                    u.push(arc(Spec::Reorder {
                        cluster: PA.into(),
                        mapper: m,
                        pattern: pat,
                    }));
                }
                for c in PIPELINED_COLLECTIVES {
                    for msg in PA_MSG {
                        prices.push(u.len());
                        u.push(arc(price(PA, c, msg, None)));
                        for m in MAPPERS {
                            for f in FIXES {
                                prices.push(u.len());
                                u.push(arc(price(PA, c, msg, Some((m, f)))));
                            }
                        }
                    }
                    for msg in PB_MSG {
                        for scheme in [None, Some(("hrstc", "init_comm"))] {
                            prices.push(u.len());
                            u.push(arc(price(PB, c, msg, scheme)));
                        }
                    }
                }
                Workload {
                    name: "pipelined_warm",
                    mode: Mode::Window(PIPELINED_WINDOW),
                    clusters,
                    universe: u,
                    jobs: JobGen::Pipelined {
                        rng: rng.fork(2),
                        prices,
                        maps,
                    },
                }
            }
            "churn_cold" => Workload {
                name: "churn_cold",
                mode: Mode::Burst,
                clusters: Vec::new(),
                universe: Vec::new(),
                jobs: JobGen::Churn {
                    rng: rng.fork(3),
                    round: Vec::new(),
                    next: 0,
                    rounds: 0,
                    layout: rng.fork(4).below(LAYOUTS.len()),
                    job: 0,
                },
            },
            _ => return None,
        })
    }

    /// Whether the measured phase runs against warm caches.
    pub fn warm(&self) -> bool {
        !self.clusters.is_empty()
    }

    /// The next job of the seeded stream.
    pub fn next_job(&mut self) -> Vec<Arc<Spec>> {
        let u = &self.universe;
        match &mut self.jobs {
            JobGen::Lockstep(rng) => {
                // The universe is laid out as built in `Workload::new`:
                // reorders, maps, the allgather prices, then each other
                // collective's size × scheme variants.
                let (r, m) = (LK_REORDERS.len(), LK_MAPS.len());
                let ag = r + m + LK_AG.len() * 3;
                let variants = LK_OTHER_MSG.len() * 2;
                let mut job = vec![u[rng.below(r)].clone(), u[r + rng.below(m)].clone()];
                let mut prices: Vec<Arc<Spec>> = u[r + m..ag].to_vec();
                for i in 0..LK_OTHER.len() {
                    prices.push(u[ag + i * variants + rng.below(variants)].clone());
                }
                rng.shuffle(&mut prices);
                job.extend(prices);
                job
            }
            JobGen::Pipelined { rng, prices, maps } => (0..SWEEP)
                .map(|_| {
                    // One request in eight is a 4096-rank map/reorder.
                    if rng.below(8) == 0 {
                        u[maps[rng.below(maps.len())]].clone()
                    } else {
                        u[prices[rng.below(prices.len())]].clone()
                    }
                })
                .collect(),
            JobGen::Churn {
                rng,
                round,
                next,
                rounds,
                layout,
                job,
            } => {
                // A round visits every allocation once, in a seeded order;
                // an allocation's layout steps on each round, so every
                // four rounds it has had each layout once.
                if *next == round.len() {
                    *round = (0..CHURN_ALLOCS.len()).collect();
                    rng.shuffle(round);
                    *next = 0;
                    *rounds += 1;
                }
                let alloc = round[*next];
                *next += 1;
                let layout = LAYOUTS[(alloc + *rounds + *layout) % LAYOUTS.len()];
                let (fabric, ranks) = CHURN_ALLOCS[alloc];
                let source = match fabric {
                    "fattree" => Source::Gpc(2 * ranks / 8),
                    _ => Source::Torus(torus_dims(ranks)),
                };
                let cluster = format!("churn{}", *job % 2);
                *job += 1;
                churn_job(rng, &cluster, source, layout, ranks)
            }
        }
    }

    /// Jobs per cycle: runs end on cycle boundaries, so every run sends
    /// the same mix whatever its seed and the host's speed. A churn cycle
    /// is four rounds, in which every allocation has had every layout once.
    pub fn cycle_jobs(&self) -> usize {
        match self.jobs {
            JobGen::Lockstep(_) => 1,
            JobGen::Pipelined { .. } => PIPELINED_CYCLE,
            JobGen::Churn { .. } => CHURN_ALLOCS.len() * LAYOUTS.len(),
        }
    }

    /// Jobs per slice of the measured phase: each slice's figures are
    /// taken apart and the run reports their medians. `pipelined_warm`
    /// slices by cycle, so a handful of host stalls in a run of about
    /// 400,000 requests does not set its p99. The other workloads hold a
    /// few hundred to a few thousand requests a run, so the whole run is
    /// one slice (per-cycle medians made `churn_cold` spread wider).
    pub fn slice_jobs(&self) -> usize {
        match self.jobs {
            JobGen::Pipelined { .. } => self.cycle_jobs(),
            _ => usize::MAX,
        }
    }
}

fn churn_job(
    rng: &mut Rng,
    cluster: &str,
    source: Source,
    layout: &'static str,
    ranks: usize,
) -> Vec<Arc<Spec>> {
    let c = || cluster.to_string();
    let heavy = ranks <= CHURN_HEAVY_MAX;
    let mappers: &[&'static str] = if heavy {
        &["hrstc", "greedy", "scotch"]
    } else {
        &["hrstc"]
    };
    let mut job = vec![arc(Spec::Ingest {
        cluster: c(),
        source,
        layout,
        p: ranks,
        seed: rng.next_u64() >> 12,
    })];
    job.push(arc(Spec::Reorder {
        cluster: c(),
        mapper: "hrstc",
        pattern: "ring",
    }));
    for m in mappers {
        job.push(arc(Spec::Map {
            cluster: c(),
            mapper: m,
            pattern: "ring",
        }));
    }
    job.push(arc(Spec::Map {
        cluster: c(),
        mapper: "hrstc",
        pattern: "rd",
    }));
    // Before the fault every mapper the job ran is priced against the
    // default; after it, default against hrstc only — whether the paper's
    // heuristic still wins on the degraded fabric. (Re-pricing greedy and
    // scotch there would recompute both heuristics cold a second time and
    // make every 2048-rank job the run's slowest by a wide margin.)
    let prices = |job: &mut Vec<Arc<Spec>>, mappers: &[&'static str]| {
        job.push(arc(price(cluster, "allgather", 1 << 16, None)));
        for m in mappers {
            job.push(arc(price(
                cluster,
                "allgather",
                1 << 16,
                Some((m, "in_place")),
            )));
        }
        job.push(arc(price(cluster, "allgather", 512, None)));
        job.push(arc(price(
            cluster,
            "allgather",
            512,
            Some(("hrstc", "init_comm")),
        )));
        for c in ["bcast", "allreduce"] {
            job.push(arc(price(cluster, c, 1 << 16, None)));
            job.push(arc(price(
                cluster,
                c,
                1 << 16,
                Some(("hrstc", "init_comm")),
            )));
        }
    };
    prices(&mut job, mappers);
    job.push(arc(Spec::Fault {
        cluster: c(),
        seed: rng.next_u64() >> 12,
        link_fail: 0.01,
        node_drain: 0.02,
    }));
    prices(&mut job, &["hrstc"]);
    job.push(arc(Spec::Map {
        cluster: c(),
        mapper: "hrstc",
        pattern: "ring",
    }));
    job
}
