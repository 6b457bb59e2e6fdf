//! The serving half of the deployment path: `snapshot::open` → `ccd` →
//! mixed dist/path traffic over loopback, every response compared byte for
//! byte with the in-process oracle's encoded answer.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cc_serve::protocol::{read_frame, Op, Payload, Request, Response, Status};
use cc_serve::{server, snapshot, Client, ServerConfig, ServerHandle};

use crate::checks::Tally;
use crate::deploy::Frozen;
use crate::stats::{median, percentile};

/// Pairs per dist request and per path request.
pub const DIST_BATCH: usize = 64;
pub const PATH_BATCH: usize = 16;
/// Every fourth request is a path request: 3 dist batches per path batch.
const PATH_EVERY: usize = 4;
/// Distinct requests cycled through by every phase.
const POOL: usize = 4096;
/// How long a client waits for a reply before counting the run broken.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Seeded splitmix64 stream: request pairs and check samples.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5eed_ba5e_0bad_cafe)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The request pool: framed request bytes (id 0) and the expected response
/// body (id 0) of each, encoded from the in-process oracle.
pub struct Pool {
    requests: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
    /// In-process oracle time per dist / path batch, in µs.
    pub oracle_dist_us: Vec<f64>,
    pub oracle_path_us: Vec<f64>,
}

fn is_path(i: usize) -> bool {
    i % PATH_EVERY == PATH_EVERY - 1
}

impl Pool {
    pub fn new(frozen: &Frozen, n: usize, seed: u64) -> Pool {
        let mut rng = SplitMix::new(seed);
        let mut pool = Pool {
            requests: Vec::with_capacity(POOL),
            expected: Vec::with_capacity(POOL),
            oracle_dist_us: Vec::new(),
            oracle_path_us: Vec::new(),
        };
        for i in 0..POOL {
            let (op, batch) = if is_path(i) {
                (Op::Path, PATH_BATCH)
            } else {
                (Op::Dist, DIST_BATCH)
            };
            let pairs: Vec<(usize, usize)> =
                (0..batch).map(|_| (rng.below(n), rng.below(n))).collect();
            let started = Instant::now();
            let payload = if op == Op::Path {
                let items = frozen.path_items(&pairs);
                pool.oracle_path_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
                Payload::Paths(items)
            } else {
                let items = frozen.dist_batch(&pairs);
                pool.oracle_dist_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
                Payload::Dists(items)
            };
            let request = Request {
                req_id: 0,
                op,
                deadline_ms: 0,
                pairs: pairs.iter().map(|&(u, v)| (u as u32, v as u32)).collect(),
            }
            .encode();
            let mut framed = (request.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&request);
            pool.requests.push(framed);
            pool.expected.push(
                Response {
                    req_id: 0,
                    status: Status::Ok,
                    op,
                    payload,
                }
                .encode(),
            );
        }
        pool
    }

    /// Sends pool request `id % POOL` under request id `id`.
    fn send(&self, stream: &TcpStream, buf: &mut Vec<u8>, id: u64) -> std::io::Result<()> {
        buf.clear();
        buf.extend_from_slice(&self.requests[id as usize % POOL]);
        // The frame is a 4-byte length, then the body, which opens with
        // the request id.
        buf[4..12].copy_from_slice(&id.to_le_bytes());
        (&*stream).write_all(buf)
    }

    /// Whether `body` is exactly the expected response to request `id`.
    pub fn answer_ok(&self, id: u64, body: &[u8]) -> bool {
        let expected = &self.expected[id as usize % POOL];
        body.len() == expected.len() && body[..8] == id.to_le_bytes() && body[8..] == expected[8..]
    }

    #[cfg(test)]
    pub fn corrupt(&mut self, i: usize) {
        if let Some(b) = self.expected[i].last_mut() {
            *b ^= 1;
        }
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

fn request_id(body: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(body.get(..8)?.try_into().ok()?))
}

/// A started server and what starting it cost.
pub struct Started {
    pub handle: ServerHandle,
    /// `snapshot::open` alone.
    pub open_s: f64,
    /// `snapshot::open` + `server::serve` until the first answered ping.
    pub setup_s: f64,
    pub mapped: bool,
    pub zero_copy: bool,
}

/// Opens the snapshot and serves it with `workers` worker threads.
pub fn start(path: &Path, workers: usize) -> std::io::Result<Started> {
    let t0 = Instant::now();
    let opened = snapshot::open(path).map_err(std::io::Error::other)?;
    let open_s = t0.elapsed().as_secs_f64();
    let mapped = opened.mapped;
    let zero_copy = opened.oracles.dist().storage().is_shared();
    let handle = server::serve(
        opened.oracles,
        "127.0.0.1:0",
        ServerConfig {
            threads: workers,
            ..ServerConfig::default()
        },
    )?;
    Client::connect(handle.addr())?
        .ping()
        .map_err(std::io::Error::other)?;
    Ok(Started {
        handle,
        open_s,
        setup_s: t0.elapsed().as_secs_f64(),
        mapped,
        zero_copy,
    })
}

/// Closed loop: `conns` connections, each sending its next request only
/// once the previous reply arrived, for `seconds`. Returns the checks and
/// the completed-requests rate of each `window`-second window.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    conns: usize,
    seconds: f64,
    window: f64,
) -> (Tally, Vec<f64>) {
    let done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let windows = ((seconds / window).round() as usize).max(1);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..conns)
            .map(|c| {
                let (done, stop) = (&done, &stop);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let Ok(stream) = connect(addr) else {
                        tally.record(false);
                        return tally;
                    };
                    let mut buf = Vec::new();
                    let mut id = c as u64;
                    while !stop.load(Ordering::Relaxed) {
                        let reply = pool
                            .send(&stream, &mut buf, id)
                            .and_then(|()| read_frame(&mut &stream));
                        match reply {
                            Ok(Some(body)) => tally.record(pool.answer_ok(id, &body)),
                            _ => {
                                tally.record(false);
                                break;
                            }
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                        id += conns as u64;
                    }
                    tally
                })
            })
            .collect();
        let start = Instant::now();
        let mut rates = Vec::with_capacity(windows);
        let mut last = (0u64, 0.0f64);
        for w in 1..=windows {
            let at = Duration::from_secs_f64(window * w as f64);
            if let Some(wait) = at.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let (count, now) = (done.load(Ordering::Relaxed), start.elapsed().as_secs_f64());
            rates.push((count - last.0) as f64 / (now - last.1));
            last = (count, now);
        }
        stop.store(true, Ordering::Relaxed);
        let mut tally = Tally::default();
        for c in clients {
            tally.add(c.join().expect("closed-loop client panicked"));
        }
        (tally, rates)
    })
}

/// Phase A latency summary.
pub struct OpenLoop {
    pub tally: Tally,
    /// Medians over the windows of each window's percentile.
    pub dist_p50_us: f64,
    pub dist_p90_us: f64,
    pub path_p50_us: f64,
    pub path_p90_us: f64,
    /// Percentiles over the whole phase.
    pub dist_p99_us: f64,
    pub path_p99_us: f64,
    pub windows: usize,
    /// Median over the windows of the samples behind each window's
    /// percentiles, and the samples behind the whole-phase p99s.
    pub window_dist_samples: usize,
    pub window_path_samples: usize,
    pub dist_samples: usize,
    pub path_samples: usize,
    /// How late the generator sent, p99 over all requests.
    pub late_p99_us: f64,
}

fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// One open-loop segment on a fresh connection: request `first + j` is due
/// `j / rate` seconds after the segment starts and timed from then until
/// its reply, so a stall also charges the requests queued behind it. The
/// generator sleeps until each due time.
fn open_segment(
    addr: SocketAddr,
    pool: &Pool,
    rate: f64,
    first: usize,
    latency_us: &mut [f64],
    late_us: &mut [f64],
    tally: &mut Tally,
) -> std::io::Result<()> {
    let count = latency_us.len();
    let stream = connect(addr)?;
    let reader = stream.try_clone()?;
    // The server accepts and spawns this connection's threads before the
    // clock starts.
    let ping = Request {
        req_id: u64::MAX,
        op: Op::Ping,
        deadline_ms: 0,
        pairs: Vec::new(),
    };
    cc_serve::protocol::write_frame(&mut &stream, &ping.encode())?;
    read_frame(&mut &reader)?;
    let start = Instant::now();
    let due = |j: usize| start + Duration::from_secs_f64(j as f64 / rate);
    std::thread::scope(|scope| -> std::io::Result<()> {
        let writer = scope.spawn(move || -> std::io::Result<()> {
            let mut buf = Vec::new();
            for (j, late) in late_us.iter_mut().enumerate() {
                let at = due(j);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                *late = Instant::now().saturating_duration_since(at).as_secs_f64() * 1e6;
                pool.send(&stream, &mut buf, (first + j) as u64)?;
            }
            Ok(())
        });
        for _ in 0..count {
            let Ok(Some(body)) = read_frame(&mut &reader) else {
                break;
            };
            let now = Instant::now();
            let j = request_id(&body)
                .and_then(|id| usize::try_from(id).ok()?.checked_sub(first))
                .filter(|&j| j < count);
            match j {
                Some(j) if latency_us[j].is_nan() => {
                    latency_us[j] = now.saturating_duration_since(due(j)).as_secs_f64() * 1e6;
                    tally.record(pool.answer_ok((first + j) as u64, &body));
                }
                _ => tally.record(false),
            }
        }
        writer.join().expect("open-loop generator panicked")
    })
}

/// Open loop at `rate` req/s for `windows` windows of `window` seconds, run
/// as `segments` segments, each on a fresh connection so that one
/// placement of the connection's threads does not decide the run. p50 and
/// p90 are taken per window and reported as the median over the windows,
/// which keeps a burst of host stalls in one window from moving them; p99
/// is taken over the whole phase.
pub fn open_loop(
    addr: SocketAddr,
    pool: &Pool,
    rate: f64,
    windows: usize,
    window: f64,
    segments: usize,
) -> std::io::Result<OpenLoop> {
    let per_window = (rate * window).round() as usize;
    let windows = windows.div_ceil(segments) * segments;
    let total = per_window * windows;
    let per_segment = total / segments;
    let mut latency_us = vec![f64::NAN; total];
    let mut late_us = vec![0.0f64; total];
    let mut tally = Tally::default();
    for (k, (latency, late)) in latency_us
        .chunks_mut(per_segment)
        .zip(late_us.chunks_mut(per_segment))
        .enumerate()
    {
        open_segment(addr, pool, rate, k * per_segment, latency, late, &mut tally)?;
    }
    // Requests that never got a reply failed.
    for &l in &latency_us {
        if l.is_nan() {
            tally.record(false);
        }
    }

    let split = |range: std::ops::Range<usize>| {
        let (mut dist, mut path) = (Vec::new(), Vec::new());
        for i in range {
            let l = latency_us[i];
            if !l.is_nan() {
                if is_path(i) {
                    path.push(l)
                } else {
                    dist.push(l)
                }
            }
        }
        (sorted(dist), sorted(path))
    };
    let mut per = BTreeMap::<&str, Vec<f64>>::new();
    for w in 0..windows {
        let (dist, path) = split(w * per_window..(w + 1) * per_window);
        for (key, xs, p) in [
            ("d50", &dist, 0.50),
            ("d90", &dist, 0.90),
            ("p50", &path, 0.50),
            ("p90", &path, 0.90),
        ] {
            per.entry(key).or_default().push(percentile(xs, p));
        }
        per.entry("dn").or_default().push(dist.len() as f64);
        per.entry("pn").or_default().push(path.len() as f64);
    }
    let (dist, path) = split(0..total);
    Ok(OpenLoop {
        tally,
        dist_p50_us: median(&per["d50"]),
        dist_p90_us: median(&per["d90"]),
        path_p50_us: median(&per["p50"]),
        path_p90_us: median(&per["p90"]),
        dist_p99_us: percentile(&dist, 0.99),
        path_p99_us: percentile(&path, 0.99),
        windows,
        window_dist_samples: median(&per["dn"]) as usize,
        window_path_samples: median(&per["pn"]) as usize,
        dist_samples: dist.len(),
        path_samples: path.len(),
        late_p99_us: percentile(&sorted(late_us), 0.99),
    })
}

/// The server's metrics exposition, parsed.
pub fn scrape(addr: SocketAddr) -> std::io::Result<BTreeMap<String, u64>> {
    let text = Client::connect(addr)?
        .metrics()
        .map_err(std::io::Error::other)?;
    Ok(cc_obs::parse_exposition(&text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::{Execution, SolverBuilder};
    use cc_graphs::generators;

    /// Negative control: a corrupted expected answer (equivalently, a
    /// corrupted served response) must count as a failed request.
    #[test]
    fn corrupted_response_counts_as_failed() {
        let g = generators::grid(6, 6);
        let mut solver = SolverBuilder::new(g)
            .eps(0.25)
            .execution(Execution::Seeded(5))
            .record_paths(true)
            .build()
            .expect("valid configuration");
        solver.apsp_near_additive().expect("additive");
        let oracle = solver.freeze_with_paths().expect("freeze");
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../.perfbench/test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("oracle.ccro");
        oracle.save_v2_to_path(&path).expect("save");
        let frozen = Frozen::Paths(oracle);

        let mut pool = Pool::new(&frozen, 36, 1);
        let started = start(&path, 1).expect("serve");
        let addr = started.handle.addr();
        let (clean, _) = closed_loop(addr, &pool, 1, 0.2, 0.1);
        assert!(clean.attempted > 0);
        assert_eq!(clean.failed, 0);
        let phase_a = open_loop(addr, &pool, 500.0, 2, 0.2, 2).expect("open loop");
        assert_eq!(phase_a.tally.failed, 0);

        for i in 0..POOL {
            pool.corrupt(i);
        }
        let (dirty, _) = closed_loop(addr, &pool, 1, 0.2, 0.1);
        assert!(dirty.failed > 0 && dirty.failed == dirty.attempted);
        started.handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
