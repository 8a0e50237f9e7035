//! Output checks made apart from the program under test.
//!
//! The [`Checker`] sees every checked reply in request order and keeps
//! just enough of the allocation state (which cluster, layout and size a
//! name holds, whether a fault degraded it) to judge each reply on its
//! own: `map` replies must be permutations of the ranks, `reorder` replies
//! distinct cores of the allocation, hrstc must beat the default scheme on
//! cyclic fat-tree layouts in the ring region (the paper's Fig. 3–4), and
//! sampled ring-region allgather prices must equal the reference pricer
//! (`tarr_mpi::timing::reference::time_schedule`) run over the `reorder`
//! reply's cores.

use std::collections::HashMap;

use tarr_mapping::InitialMapping;
use tarr_mpi::Communicator;
use tarr_netsim::{NetParams, StageModel};
use tarr_topo::CoreId;
use tarr_trace::json::Json;

use crate::gen::{Rng, Source, Spec};

/// Relative tolerance between a `price` reply and the reference pricer.
/// The reply prints the shortest round-trip form of the daemon's `f64`,
/// so agreement is expected to the last bit; the tolerance only absorbs
/// summation-order rounding.
const REF_TOL: f64 = 1e-9;
/// Largest communicator the reference pricer is run on.
const REF_MAX_RANKS: usize = 4096;
/// The ring region of MVAPICH allgather selection starts here.
const RING_MIN: u64 = 1024;
/// hrstc must win on cyclic layouts from this message size up.
const HRSTC_WIN_MIN: u64 = 1 << 16;

/// A price request's scheme: `None` = default, else (mapper, fix).
type SchemeKey = Option<(&'static str, &'static str)>;

struct Alloc {
    source: Source,
    layout: &'static str,
    p: usize,
    total_cores: usize,
    /// Sorted cores of the initial layout (fresh allocations only).
    layout_cores: Vec<u32>,
    faulted: bool,
    /// Cores of the last (hrstc, ring) `reorder` reply, pre-fault.
    hrstc_ring: Option<Vec<u32>>,
    /// Pre-fault allgather prices: (msg, scheme) → seconds.
    allgather: HashMap<(u64, SchemeKey), f64>,
}

/// One sampled reference-pricer comparison, run in [`Checker::finish`].
struct RefCase {
    source: Source,
    cores: Vec<u32>,
    msg: u64,
    seconds: f64,
}

#[derive(Default)]
pub struct Checker {
    allocs: HashMap<String, Alloc>,
    ref_cases: Vec<RefCase>,
    pub failures: Vec<String>,
    pub replies_checked: u64,
    pub ref_checked: u64,
    pub ref_max_rel: f64,
    pub hrstc_wins: u64,
}

fn fail(v: &mut Vec<String>, msg: String) {
    if v.len() < 20 {
        v.push(msg);
    }
}

fn u32_array(reply: &Json, key: &str) -> Option<Vec<u32>> {
    reply
        .get(key)?
        .as_arr()?
        .iter()
        .map(|v| v.as_u64().and_then(|x| u32::try_from(x).ok()))
        .collect()
}

impl Checker {
    /// Record the allocation an ingest spec describes (warm workloads
    /// ingest in the prepare step, whose replies are not checked).
    pub fn allocate(&mut self, spec: &Spec) {
        let Spec::Ingest {
            cluster,
            source,
            layout,
            p,
            ..
        } = spec
        else {
            return;
        };
        let c = source.cluster();
        let initial = tarr_replay::LayoutKind::parse(layout)
            .map(|l| l.initial())
            .unwrap_or(InitialMapping::BLOCK_BUNCH);
        let mut layout_cores: Vec<u32> = initial.layout(&c, *p).into_iter().map(|c| c.0).collect();
        layout_cores.sort_unstable();
        self.allocs.insert(
            cluster.clone(),
            Alloc {
                source: source.clone(),
                layout,
                p: *p,
                total_cores: c.total_cores(),
                layout_cores,
                faulted: false,
                hrstc_ring: None,
                allgather: HashMap::new(),
            },
        );
    }

    /// Judge one ok reply to `spec`.
    pub fn observe(&mut self, spec: &Spec, reply: &Json) {
        self.replies_checked += 1;
        match spec {
            Spec::Ingest { cluster, p, .. } => {
                if reply.get("ranks").and_then(Json::as_u64) != Some(*p as u64) {
                    fail(
                        &mut self.failures,
                        format!("ingest {cluster}: ranks != {p}"),
                    );
                }
                self.allocate(spec);
            }
            Spec::Fault { cluster, .. } => {
                if let Some(a) = self.allocs.get_mut(cluster) {
                    a.faulted = true;
                    a.hrstc_ring = None;
                    a.allgather.clear();
                }
            }
            Spec::Map {
                cluster,
                mapper,
                pattern,
            } => {
                let Some(a) = self.allocs.get(cluster) else {
                    return fail(
                        &mut self.failures,
                        format!("map on unknown cluster {cluster}"),
                    );
                };
                let ok = u32_array(reply, "mapping").is_some_and(|m| {
                    let mut seen = vec![false; a.p];
                    m.len() == a.p
                        && m.iter().all(|&r| {
                            (r as usize) < a.p && !std::mem::replace(&mut seen[r as usize], true)
                        })
                });
                if !ok {
                    fail(
                        &mut self.failures,
                        format!(
                            "map {cluster} {mapper}/{pattern}: not a permutation of {} ranks",
                            a.p
                        ),
                    );
                }
            }
            Spec::Reorder {
                cluster,
                mapper,
                pattern,
            } => {
                let Some(a) = self.allocs.get_mut(cluster) else {
                    return fail(
                        &mut self.failures,
                        format!("reorder on unknown cluster {cluster}"),
                    );
                };
                let cores = u32_array(reply, "cores").unwrap_or_default();
                let mut sorted = cores.clone();
                sorted.sort_unstable();
                let distinct = sorted.windows(2).all(|w| w[0] < w[1]);
                let in_range = sorted.last().is_some_and(|&c| (c as usize) < a.total_cores);
                let ok = cores.len() == a.p
                    && distinct
                    && in_range
                    && (a.faulted || sorted == a.layout_cores);
                if !ok {
                    fail(
                        &mut self.failures,
                        format!(
                            "reorder {cluster} {mapper}/{pattern}: not {} distinct cores of the allocation",
                            a.p
                        ),
                    );
                } else if !a.faulted && *mapper == "hrstc" && *pattern == "ring" {
                    a.hrstc_ring = Some(cores);
                }
            }
            Spec::Price {
                cluster,
                collective,
                msg,
                scheme,
            } => {
                let Some(a) = self.allocs.get_mut(cluster) else {
                    return fail(
                        &mut self.failures,
                        format!("price on unknown cluster {cluster}"),
                    );
                };
                let Some(seconds) = reply
                    .get("seconds")
                    .and_then(Json::as_f64)
                    .filter(|s| *s > 0.0)
                else {
                    return fail(
                        &mut self.failures,
                        format!("price {cluster} {collective} {msg}: no positive seconds"),
                    );
                };
                if *collective != "allgather" || a.faulted {
                    return;
                }
                a.allgather.insert((*msg, *scheme), seconds);
                if *scheme == Some(("hrstc", "in_place"))
                    && *msg >= RING_MIN
                    && a.p <= REF_MAX_RANKS
                {
                    if let Some(cores) = &a.hrstc_ring {
                        self.ref_cases.push(RefCase {
                            source: a.source.clone(),
                            cores: cores.clone(),
                            msg: *msg,
                            seconds,
                        });
                    }
                }
                // Judged once per (default, hrstc in_place) pair, when its
                // second price arrives.
                const HRSTC: SchemeKey = Some(("hrstc", "in_place"));
                let cyclic_fattree =
                    a.layout.starts_with("cyclic") && matches!(a.source, Source::Gpc(_));
                if cyclic_fattree && *msg >= HRSTC_WIN_MIN && (scheme.is_none() || *scheme == HRSTC)
                {
                    if let (Some(&h), Some(&d)) = (
                        a.allgather.get(&(*msg, HRSTC)),
                        a.allgather.get(&(*msg, None)),
                    ) {
                        if h < d {
                            self.hrstc_wins += 1;
                        } else {
                            fail(
                                &mut self.failures,
                                format!(
                                    "{cluster} ({}) allgather {msg} B: hrstc {h} s is not below default {d} s",
                                    a.layout
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Run up to `budget` seeded samples of the collected reference cases.
    pub fn finish(&mut self, rng: &mut Rng, budget: usize) {
        let mut cases = std::mem::take(&mut self.ref_cases);
        rng.shuffle(&mut cases);
        for case in cases.into_iter().take(budget) {
            let cluster = case.source.cluster();
            let p = case.cores.len();
            let comm = Communicator::new(case.cores.iter().map(|&c| CoreId(c)).collect());
            let model = StageModel::new(&cluster, NetParams::default());
            let schedule = tarr_collectives::ring(p as u32);
            let reference =
                tarr_mpi::timing::reference::time_schedule(&schedule, &comm, &model, case.msg);
            let rel = (reference - case.seconds).abs() / reference.abs().max(f64::MIN_POSITIVE);
            self.ref_max_rel = self.ref_max_rel.max(rel);
            self.ref_checked += 1;
            if rel > REF_TOL {
                fail(
                    &mut self.failures,
                    format!(
                        "{} {p}-rank hrstc ring allgather {} B: reply {} s, reference {reference} s",
                        case.source.kind(),
                        case.msg,
                        case.seconds
                    ),
                );
            }
        }
    }
}
