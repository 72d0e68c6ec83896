//! The three workloads. Each one sets its system up [`SETUP_TRIALS`]
//! times, drives it over real TCP, checks every body against the offline
//! reference, and (when traced) repeats the load with stats snapshots and
//! replays its inputs layer by layer.
//!
//! [`SETUP_TRIALS`]: crate::fleet::SETUP_TRIALS

use crate::fleet::{serve_config, set_up, Daemon, Front};
use crate::gen::{self, Properties, MODEL_SEED, SWAP_SEED};
use crate::host::{calm_median, calmest, with_steal};
use crate::layers::{self, Framing, Item, Layers};
use crate::load::{self, closed_loop, get_json, num, open_loop, stream, Conn, Reply, Timed};
use crate::reference::Reference;
use crate::stats::{median, summarize, Summary};
use doduo_core::{blob_crc, AnnotatorBundle};
use doduo_serve::BatchAnnotator;
use doduo_served::bootstrap::{synthetic_world, SyntheticWorld};
use doduo_served::json::{table_to_json, Json};
use doduo_served::BatchPolicy;
use doduo_table::Table;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["bulk-fresh", "online-small", "swap-mixed"];

/// Tables in flight on the `bulk-fresh` stream: enough that the daemon's
/// queue always holds a full token budget.
const BULK_WINDOW: usize = 16;
/// Per-table latency limit on the `bulk-fresh` stream.
const BULK_LIMIT_MS: f64 = 2000.0;
/// Tables per second the bulk corpus is sized for (far above what the
/// daemon does today, so a faster daemon never runs out of fresh tables).
const BULK_MAX_RATE: f64 = 600.0;
/// Open-loop arrival rate of `online-small` (about half its closed-loop
/// capacity on a 2-core host).
const ONLINE_RATE: f64 = 150.0;
/// Latency limit of `online-small`.
const ONLINE_LIMIT_MS: f64 = 50.0;
/// Open-loop read rate of `swap-mixed`.
const SWAP_READ_RATE: f64 = 30.0;
/// Latency limit of `swap-mixed` reads.
const SWAP_LIMIT_MS: f64 = 100.0;
/// Interval between `swap-mixed` model uploads.
const SWAP_INTERVAL: Duration = Duration::from_millis(500);
/// Model uploads timed on an idle daemon in `bulk-fresh` and
/// `online-small`.
const IDLE_SWAPS: usize = 9;
/// Tables replayed layer by layer in a traced run.
const REPLAY_MAX: usize = 48;
/// Load sent to each daemon before measuring, so lazy set-up (page
/// faults, allocator growth, token-cache fill) is not timed.
const WARMUP: Duration = Duration::from_millis(300);
/// Throughput phases are cut into this many rounds, alternating the f32
/// and int8 daemons, and report the median round.
const ROUNDS: usize = 8;
/// Consecutive segments an open loop is cut into; latency metrics come
/// from the calmest of them (see [`crate::host`]).
const OPEN_SEGMENTS: usize = 7;
/// Requests per side in the balancer-hop measurement.
const HOP_REQUESTS: usize = 60;
/// A run whose generator lag p99 exceeds this is flagged invalid.
const LAG_BOUND_MS: f64 = 2.0;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("tables_per_s", "tables/s"),
    ("int8_tables_per_s", "tables/s"),
    ("latency_p50_ms", "ms"),
    ("slo_attained", "share"),
    ("swap_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("served.http.parse_us", "us"),
    ("served.json.decode_us", "us"),
    ("served.json.render_us", "us"),
    ("served.queue.deadline_flush_share", "share"),
    ("served.queue.tables_per_flush", "tables"),
    ("served.queue.fill_ratio", "share"),
    ("served.queue.rejected", "count"),
    ("served.requests_failed", "count"),
    ("served.residual_ms", "ms"),
    ("serve.serialize_us", "us"),
    ("serve.cache.hit_ratio", "share"),
    ("serve.cache.evictions", "count"),
    ("serve.annotate_us", "us"),
    ("tokenizer.encode_us_per_column", "us"),
    ("table.tokens_per_table_p50", "tokens"),
    ("table.tokens_per_table_max", "tokens"),
    ("transformer.encoder_us", "us"),
    ("transformer.encoder_us_per_token", "us"),
    ("transformer.quant.encoder_us", "us"),
    ("core.heads_us", "us"),
    ("core.quant.heads_us", "us"),
    ("tensor.gemm_us", "us"),
    ("tensor.nongemm_us", "us"),
    ("tensor.quant.gemm_us", "us"),
    ("tensor.gemm_flops_per_table", "flop"),
    ("tensor.gemm_bytes_per_table", "bytes"),
    ("core.checkpoint.load_ms", "ms"),
    ("serve.engine_build_ms", "ms"),
    ("served.lifecycle.upload_residual_ms", "ms"),
    ("balance.hop_ms", "ms"),
    ("balance.retries", "count"),
    ("balance.sheds", "count"),
    ("trace.overhead_pct", "%"),
];

/// Run parameters from the command line.
pub struct Ctx {
    pub seed: u64,
    pub secs: f64,
    pub trace: bool,
}

impl Ctx {
    /// Seconds one load measures: all of `--seconds`, or half of it in a
    /// traced run, which makes two loads (untraced, then traced).
    fn load_secs(&self) -> f64 {
        if self.trace {
            self.secs / 2.0
        } else {
            self.secs
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metrics(spec: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(spec.len(), values.len(), "one value per metric");
    spec.iter().zip(values).map(|(&(name, unit), &value)| Metric { name, value, unit }).collect()
}

/// Operations attempted and failed. A mismatch (200 with a body unequal
/// to the reference) is a failure too, and is also counted apart.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Tally {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn reply(&mut self, r: &Reply) {
        self.op(r.ok());
        self.mismatches += u64::from(r.status == 200 && !r.correct);
    }

    fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// End-to-end metrics (untraced run), or per-layer ones when traced.
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Extra report fields: name and JSON value.
    pub report: Vec<(String, String)>,
}

/// Runs workload `name`.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "bulk-fresh" => bulk(ctx),
        "online-small" => online(ctx),
        "swap-mixed" => swap_mixed(ctx),
        _ => Err(format!("unknown workload {name:?}; expected one of {WORKLOADS:?}")),
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// One load of a workload, as measured from the client side.
struct Load {
    tables_per_s: f64,
    int8_tables_per_s: f64,
    /// ms, from due time.
    latency: Summary,
    slo: f64,
    /// ms, from sending `/model` to its 200.
    swap: Summary,
    /// Generator lag, ms (empty for the window-paced stream).
    lag: Summary,
    /// Send time minus due time, ms (empty for the stream).
    send_delay: Summary,
    tally: Tally,
    /// `/v1/stats` of the f32 daemon around the load (traced only).
    stats: Option<(Json, Json)>,
    /// Balancer `/stats` around the load (traced only).
    balance: Option<(Json, Json)>,
    /// tables/s of each throughput round, f32 then int8.
    rounds: [Vec<f64>; 2],
    /// CPU steal share of each of those rounds.
    round_steal: [Vec<f64>; 2],
    /// CPU steal share of each open-loop segment.
    segment_steal: Vec<f64>,
}

/// Share of `samples` answered 200, correct, and within `limit_ms`.
fn slo(samples: &[Timed<Reply>], limit_ms: f64) -> f64 {
    let met = samples.iter().filter(|t| t.result.ok() && t.latency_ms() <= limit_ms).count();
    met as f64 / samples.len().max(1) as f64
}

fn ok_rate(samples: &[Timed<Reply>], secs: f64) -> f64 {
    samples.iter().filter(|t| t.result.ok()).count() as f64 / secs.max(1e-9)
}

/// Uploads `blob` to `/v1/model`; returns (ms, accepted).
fn swap_once(conn: &mut Conn, blob: &[u8]) -> (f64, bool) {
    let t0 = Instant::now();
    let ok = conn.request("POST", "/v1/model", blob).is_ok_and(|r| r.status == 200);
    (t0.elapsed().as_secs_f64() * 1e3, ok)
}

/// `n` back-to-back uploads to an otherwise idle daemon.
fn idle_swaps(addr: &str, blob: &[u8], n: usize, tally: &mut Tally) -> Summary {
    let mut conn = Conn::new(addr);
    let ms: Vec<f64> = (0..n)
        .map(|_| {
            let (ms, ok) = swap_once(&mut conn, blob);
            tally.op(ok);
            ms
        })
        .collect();
    summarize(&ms)
}

/// The `swap-mixed` writer: one connection uploading `blobs[1]`,
/// `blobs[0]`, `blobs[1]`, ... every [`SWAP_INTERVAL`] until `stop`.
fn writer(addr: &str, blobs: [&[u8]; 2], stop: &AtomicBool) -> Vec<(f64, bool)> {
    let mut conn = Conn::new(addr);
    let start = Instant::now();
    let mut out = Vec::new();
    for k in 1u32.. {
        let due = start + SWAP_INTERVAL * k;
        while Instant::now() < due {
            if stop.load(Ordering::SeqCst) {
                return out;
            }
            std::thread::sleep(due.saturating_duration_since(Instant::now()).min(secs(0.005)));
        }
        if stop.load(Ordering::SeqCst) {
            return out;
        }
        out.push(swap_once(&mut conn, blobs[k as usize % 2]));
    }
    out
}

/// Runs `reads` beside the writer on `addr`; returns the reads' result and
/// the writer's uploads.
fn with_writer<T: Send>(
    addr: &str,
    blobs: [&[u8]; 2],
    reads: impl FnOnce() -> T + Send,
) -> (T, Vec<(f64, bool)>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let w = scope.spawn(|| writer(addr, blobs, &stop));
        let r = reads();
        stop.store(true, Ordering::SeqCst);
        (r, w.join().expect("writer thread panicked"))
    })
}

/// Runs `schedule` (offsets over `total` seconds) as [`OPEN_SEGMENTS`]
/// consecutive open loops of equal length, `run(segment, first)` each with
/// `first` the segment's first index into `schedule`, and times each with
/// the CPU steal it saw. Returns each segment's requests (indexed into
/// `schedule`), its extra result, and its steal share.
fn open_segments<T>(
    schedule: &[Duration],
    total: f64,
    run: impl Fn(&[Duration], usize) -> (Vec<Timed<Reply>>, T),
) -> (Vec<Vec<Timed<Reply>>>, Vec<T>, Vec<f64>) {
    let len = total / OPEN_SEGMENTS as f64;
    let (mut parts, mut extra, mut steal) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = 0;
    for k in 0..OPEN_SEGMENTS {
        let (origin, end) = (secs(len * k as f64), secs(len * (k + 1) as f64));
        let n = schedule[first..].iter().take_while(|&&t| t < end).count();
        let segment: Vec<Duration> =
            schedule[first..first + n].iter().map(|&t| t.saturating_sub(origin)).collect();
        let ((mut samples, x), st) = with_steal(|| run(&segment, first));
        samples.iter_mut().for_each(|t| t.i += first);
        parts.push(samples);
        extra.push(x);
        steal.push(st);
        first += n;
    }
    (parts, extra, steal)
}

/// The requests of the calmest segments, in order.
fn calm_samples(parts: &[Vec<Timed<Reply>>], steal: &[f64]) -> Vec<Timed<Reply>> {
    calmest(steal).into_iter().flat_map(|k| parts[k].iter().cloned()).collect()
}

/// Serialized tokens of `t` under `bundle`'s model.
fn tokens_of(bundle: &AnnotatorBundle, t: &Table) -> usize {
    bundle.model.serialize_for_types(t, &bundle.tokenizer).iter().map(|s| s.len()).sum()
}

fn stats_of(addr: &str, traced: bool) -> Option<Json> {
    traced.then(|| get_json(addr, "/v1/stats").unwrap_or(Json::Null))
}

/// Request latency (ms) direct to a daemon and through a balancer in
/// front of it, for the same bodies.
struct Hop {
    direct: Summary,
    front: Summary,
}

impl Hop {
    /// p50 through the balancer minus p50 direct.
    fn ms(&self) -> f64 {
        self.front.p50 - self.direct.p50
    }
}

/// Measures [`Hop`] over `bodies`, alternating blocks of requests between
/// the two paths.
fn hop(direct: &str, front: &str, bodies: &[&str], tally: &mut Tally) -> Hop {
    let (mut d, mut f) = (Conn::new(direct), Conn::new(front));
    let (mut dl, mut fl) = (Vec::new(), Vec::new());
    for block in 0..HOP_REQUESTS / 10 {
        for (conn, lat) in [(&mut d, &mut dl), (&mut f, &mut fl)] {
            for k in 0..10 {
                let body = bodies[(block * 10 + k) % bodies.len()];
                let t0 = Instant::now();
                let r = conn.request("POST", "/v1/annotate", body.as_bytes());
                lat.push(t0.elapsed().as_secs_f64() * 1e3);
                tally.op(r.is_ok_and(|r| r.status == 200));
            }
        }
    }
    Hop { direct: summarize(&dl), front: summarize(&fl) }
}

/// Median ms of `n` runs of `f`.
fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v)
}

/// What the traced half of a run measured.
struct Trace {
    traced: Load,
    layers: Layers,
    /// End-to-end ms per table the replayed stages must add up to.
    e2e_ms: f64,
    hop: Hop,
    /// Balancer retries and sheds.
    balance: (f64, f64),
    /// The blob the load's model uploads sent.
    blob: Vec<u8>,
    /// Whether those uploads went to the int8 daemon.
    quant_swaps: bool,
}

/// [`hop`] through a fresh balancer over `direct`, with its retry and shed
/// deltas.
fn hop_via_new_front(
    direct: &str,
    bodies: &[&str],
    tally: &mut Tally,
) -> Result<(Hop, (f64, f64)), String> {
    let front = Front::start(&[direct])?;
    let before = get_json(&front.addr, "/stats").ok();
    let h = hop(direct, &front.addr, bodies, tally);
    let after = get_json(&front.addr, "/stats").ok();
    Ok((h, balance_deltas(&before.zip(after))))
}

/// Common tail of every workload: the end-to-end metrics of the untraced
/// `load`, or, given the traced half, the per-layer metrics.
fn finish(
    setup: &[f64],
    load: Load,
    trace: Option<Trace>,
    props: &Properties,
    mut report: Vec<(String, String)>,
) -> Outcome {
    let (lat, lag, swap, delay) = (load.latency, load.lag, load.swap, load.send_delay);
    report.push((
        "properties".into(),
        format!(
            "{{\"tables\": {}, \"table_repeat_share\": {}, \"column_repeat_share\": {}, \
             \"tokens_per_table_p50\": {}, \"tokens_per_table_max\": {}, \"cols_per_table\": {}}}",
            props.tables,
            props.table_repeat_share,
            props.column_repeat_share,
            props.tokens_p50,
            props.tokens_max,
            props.cols_per_table
        ),
    ));
    report.push((
        "validity".into(),
        format!(
            "{{\"lag_p50_ms\": {}, \"lag_p99_ms\": {}, \"lag_bound_ms\": {LAG_BOUND_MS}, \
             \"send_delay_p50_ms\": {}, \"send_delay_p99_ms\": {}, \"lag_ok\": {}, \
             \"latency_samples\": {}, \"latency_p90_ms\": {}, \"latency_tail_ms\": {}, \
             \"latency_tail_pct\": {}, \"swaps\": {}, \
             \"setup_trials_s\": {:?}, \"rounds_tables_per_s\": {:?}, \
             \"rounds_steal\": {:?}, \"segments_steal\": {:?}, \"mismatches\": {}}}",
            lag.p50,
            lag.tail,
            delay.p50,
            delay.tail,
            lag.tail <= LAG_BOUND_MS,
            lat.count,
            lat.p90,
            lat.tail,
            lat.tail_pct,
            swap.count,
            setup,
            load.rounds,
            load.round_steal,
            load.segment_steal,
            load.tally.mismatches
        ),
    ));
    let mut tally = load.tally;
    let Some(tr) = trace else {
        let values = [
            load.tables_per_s,
            load.int8_tables_per_s,
            lat.p50,
            load.slo,
            swap.p50,
            median(setup),
            peak_rss_mb(),
        ];
        let metrics = metrics(&END_TO_END, &values);
        return Outcome { metrics, tally, report };
    };
    tally.add(tr.traced.tally);
    let l = &tr.layers;
    let delta = |path: &str| match &tr.traced.stats {
        Some((a, b)) => num(b, path) - num(a, path),
        None => 0.0,
    };
    let (budget, deadline) = (delta("flushes.budget"), delta("flushes.deadline"));
    let flushes = (budget + deadline).max(1.0);
    let tokens = delta("tokens");
    let max_tokens = BatchPolicy::default().max_batch_tokens as f64;
    let residual = tr.e2e_ms - l.stages_ms();
    // The replay is faithful when the stages do not add up to more than
    // the end-to-end time (beyond 10 % of it, for timer noise).
    let reconciled = residual >= -0.1 * tr.e2e_ms;
    let bundle = AnnotatorBundle::load(&tr.blob).expect("the uploaded blob loads");
    let load_ms = median_ms(3, || {
        std::hint::black_box(AnnotatorBundle::load(&tr.blob).expect("the uploaded blob loads"));
    });
    let bundle = Arc::new(bundle);
    let build_ms = median_ms(3, || {
        std::hint::black_box(BatchAnnotator::with_config(
            Arc::clone(&bundle),
            serve_config(tr.quant_swaps).engine,
        ));
    });
    let traced_swap = tr.traced.swap.p50;
    let (untraced_p50, traced_p50) = (lat.p50, tr.traced.latency.p50);
    report.push((
        "replay".into(),
        format!(
            "{{\"untraced\": {{\"latency_p50_ms\": {untraced_p50}, \"tables_per_s\": {}}}, \
             \"traced\": {{\"latency_p50_ms\": {traced_p50}, \"tables_per_s\": {}}}, \
             \"e2e_ms_per_table\": {}, \"stages_ms\": {}, \"reconciled\": {reconciled}, \
             \"replayed_tables\": {}, \"modeled_tables\": {}, \"replayed_flushes\": {}, \
             \"hop_direct_p50_ms\": {}, \"hop_front_p50_ms\": {}}}",
            load.tables_per_s,
            tr.traced.tables_per_s,
            tr.e2e_ms,
            l.stages_ms(),
            l.tables,
            l.modeled,
            l.flushes,
            tr.hop.direct.p50,
            tr.hop.front.p50
        ),
    ));
    let values = [
        l.parse_us,
        l.decode_us,
        l.render_us,
        deadline / flushes,
        delta("tables") / flushes,
        tokens / flushes / max_tokens,
        delta("rejected_queue_full"),
        delta("requests_failed"),
        residual,
        l.serialize_us,
        l.cache_hit_ratio,
        l.cache_evictions,
        l.annotate_us,
        l.encode_us_per_column,
        props.tokens_p50,
        props.tokens_max,
        l.encoder_us,
        l.encoder_us_per_token,
        l.quant_encoder_us,
        l.heads_us,
        l.quant_heads_us,
        l.gemm_us,
        l.encoder_us - l.gemm_us,
        l.quant_gemm_us,
        l.gemm_flops_per_table,
        l.gemm_bytes_per_table,
        load_ms,
        build_ms,
        traced_swap - load_ms - build_ms,
        tr.hop.ms(),
        tr.balance.0,
        tr.balance.1,
        100.0 * (traced_p50 - untraced_p50) / untraced_p50,
    ];
    let metrics = metrics(&PER_LAYER, &values);
    Outcome { metrics, tally, report }
}

/// Balancer retry and shed deltas over a load.
fn balance_deltas(b: &Option<(Json, Json)>) -> (f64, f64) {
    match b {
        Some((a, b)) => (num(b, "retries") - num(a, "retries"), num(b, "sheds") - num(a, "sheds")),
        None => (0.0, 0.0),
    }
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ------------------------------------------------------------ bulk-fresh

struct BulkSut {
    world: SyntheticWorld,
    tables: Vec<Table>,
    docs: Vec<String>,
    blob: Vec<u8>,
    f32d: Daemon,
    int8d: Daemon,
}

fn bulk(ctx: &Ctx) -> Result<Outcome, String> {
    let n_docs = (BULK_MAX_RATE * ctx.secs) as usize + BULK_WINDOW;
    let (sut, setup) = set_up(|| {
        let world = synthetic_world(true, MODEL_SEED);
        let tables = gen::bulk_tables(&gen::knowledge_base(), ctx.seed, n_docs);
        let docs = tables.iter().map(table_to_json).collect();
        let blob = world.bundle.save();
        let f32d = Daemon::start(Arc::clone(&world.bundle), false)?;
        let int8d = Daemon::start(Arc::clone(&world.bundle), true)?;
        Ok(BulkSut { world, tables, docs, blob, f32d, int8d })
    })?;
    let bundle = &sut.world.bundle;
    let (f32_ref, int8_ref) = (Reference::new(bundle, false), Reference::new(bundle, true));
    let docs: Vec<&str> = sut.docs.iter().map(String::as_str).collect();
    // Warm-up: the model's own corpus tables, which no measured round
    // sends, one short stream per daemon.
    let warm: Vec<String> = sut.world.tables.iter().map(table_to_json).collect();
    for d in [&sut.f32d, &sut.int8d] {
        stream(&d.addr, &warm, BULK_WINDOW, WARMUP * 100);
    }
    // Returns the load, the f32 daemon's send times (in table order), and
    // each daemon's cursor after it.
    let run_load = |traced: bool, mut cursor: [usize; 2]| -> (Load, Vec<Instant>, [usize; 2]) {
        // Rounds alternate the f32 and int8 daemons; each daemon takes
        // fresh tables from its own cursor, so no table repeats on it.
        let phase = secs(ctx.load_secs() * 0.5 / ROUNDS as f64);
        let before = stats_of(&sut.f32d.addr, traced);
        let mut runs: [Vec<(usize, load::StreamRun)>; 2] = [Vec::new(), Vec::new()];
        let mut steal = [Vec::new(), Vec::new()];
        for _ in 0..ROUNDS {
            for (k, d) in [&sut.f32d, &sut.int8d].into_iter().enumerate() {
                let (run, st) =
                    with_steal(|| stream(&d.addr, &sut.docs[cursor[k]..], BULK_WINDOW, phase));
                let at = cursor[k];
                cursor[k] += run.sent.len();
                runs[k].push((at, run));
                steal[k].push(st);
            }
        }
        let after = stats_of(&sut.f32d.addr, traced);
        let mut tally = Tally::default();
        let swap = idle_swaps(&sut.int8d.addr, &sut.blob, IDLE_SWAPS, &mut tally);
        // Every table is checked; latency and the SLO come from the calmest
        // rounds, as the rates do.
        let (mut lat, mut met, mut calm_sent) = (Vec::new(), 0usize, 0usize);
        let mut rates = [Vec::new(), Vec::new()];
        for (k, reference) in [&f32_ref, &int8_ref].into_iter().enumerate() {
            let calm = calmest(&steal[k]);
            for (r, (at, run)) in runs[k].iter().enumerate() {
                let refs = reference.all(&docs[*at..at + run.lines.len()]);
                let counted = calm.contains(&r);
                calm_sent += if counted { run.sent.len() } else { 0 };
                let mut ok = 0usize;
                for (i, line) in run.lines.iter().enumerate() {
                    let correct = *line == refs[i];
                    let ms = (run.recv[i] - run.sent[i]).as_secs_f64() * 1e3;
                    if k == 0 && counted {
                        lat.push(ms);
                    }
                    ok += usize::from(correct);
                    met += usize::from(counted && correct && ms <= BULK_LIMIT_MS);
                    tally.op(correct);
                    tally.mismatches += u64::from(!correct);
                }
                for _ in run.lines.len()..run.sent.len() {
                    tally.op(false);
                }
                rates[k].push(ok as f64 / run.secs.max(1e-9));
            }
        }
        let l = Load {
            tables_per_s: calm_median(&rates[0], &steal[0]),
            int8_tables_per_s: calm_median(&rates[1], &steal[1]),
            rounds: rates.clone(),
            round_steal: steal.clone(),
            segment_steal: Vec::new(),
            latency: summarize(&lat),
            slo: met as f64 / calm_sent.max(1) as f64,
            swap,
            lag: summarize(&[]),
            send_delay: summarize(&[]),
            tally,
            stats: before.zip(after),
            balance: None,
        };
        let sent =
            runs[0].iter().flat_map(|(_, r)| r.sent[..r.lines.len()].iter().copied()).collect();
        (l, sent, cursor)
    };
    let (untraced, mut arrivals, cursor) = run_load(false, [0, 0]);
    let sent: Vec<&Table> = sut.tables[..arrivals.len()].iter().collect();
    let tokens: Vec<usize> = sent.iter().map(|t| tokens_of(bundle, t)).collect();
    let props = gen::properties(&sent, &tokens);
    let report = vec![("window".to_string(), BULK_WINDOW.to_string())];
    if !ctx.trace {
        return Ok(finish(&setup, untraced, None, &props, report));
    }
    // The traced load continues each daemon's cursor, so it too sends only
    // tables that daemon has not seen; the replay covers both loads' f32
    // tables, so the token cache sees what the daemon's saw.
    let (traced, traced_arrivals, _) = run_load(true, cursor);
    arrivals.extend(traced_arrivals);
    let items: Vec<Item<'_>> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &arrival)| Item { body: &sut.docs[i], arrival, model: 0, version: 1 })
        .collect();
    let layers = layers::replay(std::slice::from_ref(bundle), &items, Framing::Stream, REPLAY_MAX);
    let mut untraced = untraced;
    let (hop, balance) =
        hop_via_new_front(&sut.f32d.addr, &docs[..HOP_REQUESTS], &mut untraced.tally)?;
    let e2e_ms = 1e3 / traced.tables_per_s.max(1e-9);
    let trace =
        Trace { traced, layers, e2e_ms, hop, balance, blob: sut.blob.clone(), quant_swaps: true };
    Ok(finish(&setup, untraced, Some(trace), &props, report))
}

// ---------------------------------------------------------- online-small

struct OnlineSut {
    world: SyntheticWorld,
    pool: Vec<Table>,
    bodies: Vec<String>,
    blob: Vec<u8>,
    f32d: Daemon,
    int8d: Daemon,
}

fn online(ctx: &Ctx) -> Result<Outcome, String> {
    let (sut, setup) = set_up(|| {
        let world = synthetic_world(true, MODEL_SEED);
        let pool = gen::small_pool(&gen::knowledge_base(), ctx.seed);
        let bodies = pool.iter().map(table_to_json).collect();
        let blob = world.bundle.save();
        let f32d = Daemon::start(Arc::clone(&world.bundle), false)?;
        let int8d = Daemon::start(Arc::clone(&world.bundle), true)?;
        Ok(OnlineSut { world, pool, bodies, blob, f32d, int8d })
    })?;
    let bundle = &sut.world.bundle;
    let bodies: Vec<&str> = sut.bodies.iter().map(String::as_str).collect();
    let refs =
        [Reference::new(bundle, false).all(&bodies), Reference::new(bundle, true).all(&bodies)];
    let closed_picks = gen::picks(ctx.seed, 1, 1 << 16, bodies.len());
    let schedule = gen::poisson_schedule(ctx.seed, 2, ONLINE_RATE, ctx.load_secs() * 0.7);
    let open_picks = gen::picks(ctx.seed, 3, schedule.len(), bodies.len());
    let send = |tier: usize, picks: &[usize], c: &mut Conn, i: usize| {
        let k = picks[i % picks.len()];
        c.annotate(bodies[k], |_, b| b == refs[tier][k].as_bytes())
    };
    for (tier, d) in [&sut.f32d, &sut.int8d].into_iter().enumerate() {
        closed_loop(2, WARMUP, || Conn::new(&d.addr), |c, i| send(tier, &closed_picks, c, i));
    }
    let run_load = |traced: bool| -> (Load, Vec<Timed<Reply>>) {
        let before = stats_of(&sut.f32d.addr, traced);
        let mut tally = Tally::default();
        let (mut rates, mut steal) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
        for _ in 0..ROUNDS {
            for (tier, (d, share)) in [(&sut.f32d, 0.2), (&sut.int8d, 0.1)].into_iter().enumerate()
            {
                let phase = secs(ctx.load_secs() * share / ROUNDS as f64);
                let ((c, c_secs), st) = with_steal(|| {
                    closed_loop(
                        2,
                        phase,
                        || Conn::new(&d.addr),
                        |c, i| send(tier, &closed_picks, c, i),
                    )
                });
                c.iter().for_each(|t| tally.reply(&t.result));
                rates[tier].push(ok_rate(&c, c_secs));
                steal[tier].push(st);
            }
        }
        let (parts, _, segment_steal) =
            open_segments(&schedule, ctx.load_secs() * 0.7, |segment, first| {
                let open = open_loop(
                    segment,
                    2,
                    || Conn::new(&sut.f32d.addr),
                    |c, i| send(0, &open_picks, c, first + i),
                );
                (open, ())
            });
        let after = stats_of(&sut.f32d.addr, traced);
        let calm = calm_samples(&parts, &segment_steal);
        let open: Vec<Timed<Reply>> = parts.concat();
        open.iter().for_each(|t| tally.reply(&t.result));
        let swap = idle_swaps(&sut.f32d.addr, &sut.blob, IDLE_SWAPS, &mut tally);
        let lat: Vec<f64> = calm.iter().map(Timed::latency_ms).collect();
        let lag: Vec<f64> = calm.iter().map(Timed::lag_ms).collect();
        let delay: Vec<f64> = calm.iter().map(Timed::send_delay_ms).collect();
        let l = Load {
            tables_per_s: calm_median(&rates[0], &steal[0]),
            int8_tables_per_s: calm_median(&rates[1], &steal[1]),
            rounds: rates.clone(),
            round_steal: steal.clone(),
            segment_steal,
            latency: summarize(&lat),
            slo: slo(&calm, ONLINE_LIMIT_MS),
            swap,
            lag: summarize(&lag),
            send_delay: summarize(&delay),
            tally,
            stats: before.zip(after),
            balance: None,
        };
        (l, open)
    };
    let (untraced, _) = run_load(false);
    let sent: Vec<&Table> = open_picks.iter().map(|&k| &sut.pool[k]).collect();
    let pool_tokens: Vec<usize> = sut.pool.iter().map(|t| tokens_of(bundle, t)).collect();
    let tokens: Vec<usize> = open_picks.iter().map(|&k| pool_tokens[k]).collect();
    let props = gen::properties(&sent, &tokens);
    let report = vec![
        ("rate_per_s".to_string(), ONLINE_RATE.to_string()),
        ("limit_ms".to_string(), ONLINE_LIMIT_MS.to_string()),
    ];
    if !ctx.trace {
        return Ok(finish(&setup, untraced, None, &props, report));
    }
    let (traced, open) = run_load(true);
    let items: Vec<Item<'_>> = open
        .iter()
        .map(|t| Item { body: bodies[open_picks[t.i]], arrival: t.sent, model: 0, version: 1 })
        .collect();
    let layers = layers::replay(std::slice::from_ref(bundle), &items, Framing::Request, REPLAY_MAX);
    let hop_bodies: Vec<&str> = open_picks.iter().take(HOP_REQUESTS).map(|&k| bodies[k]).collect();
    let mut untraced = untraced;
    let (hop, balance) = hop_via_new_front(&sut.f32d.addr, &hop_bodies, &mut untraced.tally)?;
    let e2e_ms = traced.latency.p50;
    let trace =
        Trace { traced, layers, e2e_ms, hop, balance, blob: sut.blob.clone(), quant_swaps: false };
    Ok(finish(&setup, untraced, Some(trace), &props, report))
}

// ------------------------------------------------------------ swap-mixed

struct SwapSut {
    worlds: [SyntheticWorld; 2],
    blobs: [Vec<u8>; 2],
    bodies: Vec<String>,
    f32d: Daemon,
    /// Serves only through `int8_front`; held so it lives as long.
    _int8d: Daemon,
    f32_front: Front,
    int8_front: Front,
}

fn swap_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let (sut, setup) = set_up(|| {
        let worlds = [synthetic_world(true, MODEL_SEED), synthetic_world(true, SWAP_SEED)];
        let blobs = [worlds[0].bundle.save(), worlds[1].bundle.save()];
        let bodies = worlds[0].tables.iter().map(table_to_json).collect();
        let f32d = Daemon::start(Arc::clone(&worlds[0].bundle), false)?;
        let int8d = Daemon::start(Arc::clone(&worlds[0].bundle), true)?;
        let f32_front = Front::start(&[&f32d.addr])?;
        let int8_front = Front::start(&[&int8d.addr])?;
        Ok(SwapSut { worlds, blobs, bodies, f32d, _int8d: int8d, f32_front, int8_front })
    })?;
    let bodies: Vec<&str> = sut.bodies.iter().map(String::as_str).collect();
    // refs[model][tier][table]
    let refs: Vec<[Vec<String>; 2]> = sut
        .worlds
        .iter()
        .map(|w| {
            [
                Reference::new(&w.bundle, false).all(&bodies),
                Reference::new(&w.bundle, true).all(&bodies),
            ]
        })
        .collect();
    let crcs: Vec<u32> =
        sut.blobs.iter().map(|b| blob_crc(b).expect("saved bundles have a crc")).collect();
    // An `x-model-version` label is "{version}-{crc:08x}": the engine's
    // version and, through the CRC, which of the two bundles it serves.
    let engine_of = |label: Option<&str>| -> Option<(u64, usize)> {
        let (version, crc) = label?.split_once('-')?;
        let crc = u32::from_str_radix(crc, 16).ok()?;
        Some((version.parse().ok()?, crcs.iter().position(|&c| c == crc)?))
    };
    let offset = (ctx.seed % bodies.len() as u64) as usize;
    let blobs = [sut.blobs[0].as_slice(), sut.blobs[1].as_slice()];
    let send = |tier: usize, c: &mut Conn, i: usize| {
        let k = (offset + i) % bodies.len();
        c.annotate(bodies[k], |v, b| {
            engine_of(v).is_some_and(|(_, m)| b == refs[m][tier][k].as_bytes())
        })
    };
    let schedule = gen::poisson_schedule(ctx.seed, 4, SWAP_READ_RATE, ctx.load_secs() * 0.7);
    for (tier, f) in [&sut.f32_front, &sut.int8_front].into_iter().enumerate() {
        closed_loop(1, WARMUP, || Conn::new(&f.addr), |c, i| send(tier, c, i));
    }
    // Closed-loop rounds last one and a half writer intervals, so each
    // sees exactly one upload.
    let closed = SWAP_INTERVAL.mul_f64(1.5);
    let closed_rounds = ((ctx.load_secs() * 0.3 / closed.as_secs_f64()) as usize / 2).max(1);
    let run_load = |traced: bool| -> (Load, Vec<Timed<Reply>>) {
        let before = stats_of(&sut.f32d.addr, traced);
        let b_before = stats_of(&sut.f32_front.addr, traced);
        let mut tally = Tally::default();
        let (mut rates, mut steal) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
        for _ in 0..closed_rounds {
            for (tier, front) in [&sut.f32_front, &sut.int8_front].into_iter().enumerate() {
                let (((c, c_secs), w), st) = with_steal(|| {
                    with_writer(&front.addr, blobs, || {
                        closed_loop(1, closed, || Conn::new(&front.addr), |c, i| send(tier, c, i))
                    })
                });
                c.iter().for_each(|t| tally.reply(&t.result));
                w.iter().for_each(|&(_, ok)| tally.op(ok));
                rates[tier].push(ok_rate(&c, c_secs));
                steal[tier].push(st);
            }
        }
        let (parts, uploads, segment_steal) =
            open_segments(&schedule, ctx.load_secs() * 0.7, |segment, first| {
                with_writer(&sut.f32_front.addr, blobs, || {
                    open_loop(
                        segment,
                        1,
                        || Conn::new(&sut.f32_front.addr),
                        |c, i| send(0, c, first + i),
                    )
                })
            });
        let after = stats_of(&sut.f32d.addr, traced);
        let b_after = stats_of(&sut.f32_front.addr, traced);
        let open: Vec<Timed<Reply>> = parts.concat();
        open.iter().for_each(|t| tally.reply(&t.result));
        uploads.iter().flatten().for_each(|&(_, ok)| tally.op(ok));
        let calm = calm_samples(&parts, &segment_steal);
        let lat: Vec<f64> = calm.iter().map(Timed::latency_ms).collect();
        let lag: Vec<f64> = calm.iter().map(Timed::lag_ms).collect();
        let delay: Vec<f64> = calm.iter().map(Timed::send_delay_ms).collect();
        let swap_ms: Vec<f64> = calmest(&segment_steal)
            .into_iter()
            .flat_map(|k| uploads[k].iter().map(|s| s.0))
            .collect();
        let l = Load {
            tables_per_s: calm_median(&rates[0], &steal[0]),
            int8_tables_per_s: calm_median(&rates[1], &steal[1]),
            rounds: rates.clone(),
            round_steal: steal.clone(),
            segment_steal,
            latency: summarize(&lat),
            slo: slo(&calm, SWAP_LIMIT_MS),
            swap: summarize(&swap_ms),
            lag: summarize(&lag),
            send_delay: summarize(&delay),
            tally,
            stats: before.zip(after),
            balance: b_before.zip(b_after),
        };
        (l, open)
    };
    let (untraced, open) = run_load(false);
    let table_of = |t: &Timed<Reply>| (offset + t.i) % bodies.len();
    let sent: Vec<&Table> = open.iter().map(|t| &sut.worlds[0].tables[table_of(t)]).collect();
    let tokens: Vec<usize> = sent.iter().map(|t| tokens_of(&sut.worlds[0].bundle, t)).collect();
    let props = gen::properties(&sent, &tokens);
    let report = vec![
        ("rate_per_s".to_string(), SWAP_READ_RATE.to_string()),
        ("limit_ms".to_string(), SWAP_LIMIT_MS.to_string()),
        ("swap_interval_ms".to_string(), SWAP_INTERVAL.as_millis().to_string()),
    ];
    if !ctx.trace {
        return Ok(finish(&setup, untraced, None, &props, report));
    }
    let (traced, open) = run_load(true);
    let items: Vec<Item<'_>> = open
        .iter()
        .map(|t| {
            let (version, model) = engine_of(t.result.version.as_deref()).unwrap_or((0, 0));
            Item { body: bodies[table_of(t)], arrival: t.sent, model, version }
        })
        .collect();
    let bundles = [Arc::clone(&sut.worlds[0].bundle), Arc::clone(&sut.worlds[1].bundle)];
    let layers = layers::replay(&bundles, &items, Framing::Request, REPLAY_MAX);
    let mut untraced = untraced;
    let hop = hop(&sut.f32d.addr, &sut.f32_front.addr, &bodies, &mut untraced.tally);
    let e2e_ms = traced.latency.p50;
    let balance = balance_deltas(&traced.balance);
    let blob = sut.blobs[1].clone();
    let trace = Trace { traced, layers, e2e_ms, hop, balance, blob, quant_swaps: false };
    Ok(finish(&setup, untraced, Some(trace), &props, report))
}
