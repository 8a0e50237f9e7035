//! The closed-loop client: sends a workload's jobs over the one
//! connection in its [`Mode`] and times every request and job.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::daemon::Conn;
use crate::gen::{Mode, Spec};
use crate::stats::fnv;

/// Everything one pass of requests produced.
#[derive(Default)]
pub struct Phase {
    /// Requests in send order, with their ids.
    pub sent: Vec<(Arc<Spec>, u64)>,
    /// Write → reply-line latency per request, ns.
    pub lat_ns: Vec<u64>,
    /// FNV of each full reply line (the replay compares these).
    pub hashes: Vec<u64>,
    /// FNV of each reply with its `{"id":N,` prefix cut off, so replies to
    /// the same request compare equal across ids.
    pub body_hashes: Vec<u64>,
    /// Reply lines kept for the output checks (when asked to keep them).
    pub replies: Vec<String>,
    /// Reply time per request, ns since the pass began; replies arrive in
    /// send order, so this never decreases.
    pub done_ns: Vec<u64>,
    /// First write → last reply per job, ns. Jobs end in send order.
    pub job_ns: Vec<u64>,
    /// Per job, the index into `sent` just past its last request.
    pub job_end: Vec<usize>,
    pub failed: u64,
    pub failures: Vec<String>,
    pub reply_bytes: u64,
    /// Wall time of the pass.
    pub elapsed: Duration,
}

/// The reply body after the `{"id":N,` prefix, if the id matches.
fn body(reply: &[u8], id: u64) -> Option<&[u8]> {
    let prefix = format!("{{\"id\":{id},");
    reply.strip_prefix(prefix.as_bytes())
}

struct Job {
    start: Option<Instant>,
    left: usize,
}

/// Send jobs from `next_job` until it returns `None`, keeping as many
/// requests outstanding as `mode` allows; ids count up from `first_id`.
/// With `keep`, reply lines are stored for the checks.
pub fn drive(
    conn: &mut Conn,
    mode: Mode,
    first_id: u64,
    keep: bool,
    mut next_job: impl FnMut() -> Option<Vec<Arc<Spec>>>,
) -> io::Result<Phase> {
    let limit = match mode {
        Mode::Lockstep => 1,
        Mode::Window(n) => n,
        Mode::Burst => usize::MAX,
    };
    let mut ph = Phase::default();
    let started = Instant::now();
    // (index into sent, job index, send time)
    let mut pending: VecDeque<(usize, usize, Instant)> = VecDeque::new();
    let mut jobs: Vec<Job> = Vec::new();
    let mut cur: Vec<Arc<Spec>> = Vec::new();
    let mut pos = 0;
    let mut exhausted = false;
    let mut id = first_id;
    loop {
        while pending.len() < limit && !exhausted {
            if pos == cur.len() {
                if mode == Mode::Burst && !pending.is_empty() {
                    break;
                }
                match next_job() {
                    Some(job) if !job.is_empty() => {
                        jobs.push(Job {
                            start: None,
                            left: job.len(),
                        });
                        cur = job;
                        pos = 0;
                    }
                    _ => {
                        exhausted = true;
                        break;
                    }
                }
            }
            let spec = cur[pos].clone();
            pos += 1;
            let line = spec.line(id);
            let j = jobs.len() - 1;
            let t = Instant::now();
            jobs[j].start.get_or_insert(t);
            conn.send(line.as_bytes())?;
            pending.push_back((ph.sent.len(), j, t));
            ph.sent.push((spec, id));
            id += 1;
        }
        let Some((i, j, t)) = pending.pop_front() else {
            break;
        };
        let reply = conn.recv()?;
        let now = Instant::now();
        ph.lat_ns.push((now - t).as_nanos() as u64);
        ph.done_ns.push((now - started).as_nanos() as u64);
        ph.reply_bytes += reply.len() as u64 + 1;
        ph.hashes.push(fnv(reply));
        let rid = ph.sent[i].1;
        match body(reply, rid) {
            Some(b) if b.starts_with(b"\"ok\":true") => ph.body_hashes.push(fnv(b)),
            other => {
                ph.body_hashes.push(other.map_or(0, fnv));
                ph.failed += 1;
                if ph.failures.len() < 10 {
                    let text = String::from_utf8_lossy(&reply[..reply.len().min(300)]);
                    ph.failures
                        .push(format!("request {rid} ({}): {text}", ph.sent[i].0.op()));
                }
            }
        }
        if keep {
            ph.replies.push(String::from_utf8_lossy(reply).into_owned());
        }
        jobs[j].left -= 1;
        if jobs[j].left == 0 {
            let start = jobs[j].start.expect("a sent job has a start");
            ph.job_ns.push((now - start).as_nanos() as u64);
            ph.job_end.push(i + 1);
        }
    }
    ph.elapsed = started.elapsed();
    Ok(ph)
}
