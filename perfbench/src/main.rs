//! The serving benchmark: drives `doduo-served` (and `doduo-balance` in
//! front of it) over loopback TCP with one of three workloads, checks
//! every response against the offline reference, and prints the metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk-fresh --seed 1 --seconds 12 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics. The line before it
//! is a report: host, workload properties, run validity and (traced) the
//! reconciliation of replayed stages against end-to-end time.

mod fleet;
mod gen;
mod host;
mod layers;
mod load;
mod reference;
mod stats;
mod workloads;

use workloads::{Ctx, Outcome, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <bulk-fresh|online-small|swap-mixed> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut secs, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(bad("between 1 and 600"));
                }
                secs = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("missing --seed")?,
            secs: secs.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        },
    })
}

/// The commit the checkout came from, when it is a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn target_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut v = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("avx512vnni", std::arch::is_x86_feature_detected!("avx512vnni")),
        ] {
            if on {
                v.push(name);
            }
        }
    }
    v
}

fn host_json() -> String {
    let cfg = fleet::serve_config(false);
    let p = &cfg.policy;
    format!(
        "{{\"available_parallelism\": {}, \"engine_threads\": {}, \"reactor_workers\": {}, \
         \"policy\": {{\"max_batch_seqs\": {}, \"max_batch_tokens\": {}, \"max_delay_ms\": {}, \
         \"max_queue_jobs\": {}}}, \"engine_max_batch_tokens\": {}, \"cache_capacity\": {}, \
         \"target_features\": {:?}, \"arch\": {:?}, \"commit\": {:?}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cfg.engine.threads,
        cfg.workers,
        p.max_batch_seqs,
        p.max_batch_tokens,
        p.max_delay.as_secs_f64() * 1e3,
        p.max_queue_jobs,
        cfg.engine.max_batch_tokens,
        cfg.engine.cache_capacity,
        target_features(),
        std::env::consts::ARCH,
        commit()
    )
}

fn render(args: &Args, out: &Outcome, steal: f64) -> Result<(String, String), String> {
    let mut metrics = Vec::new();
    for m in &out.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        metrics.push(format!("{:?}: {{\"value\": {:?}, \"unit\": {:?}}}", m.name, m.value, m.unit));
    }
    let mut report = vec![
        format!("\"workload\": {:?}", args.workload),
        format!("\"seed\": {}", args.ctx.seed),
        format!("\"seconds\": {}", args.ctx.secs),
        format!("\"trace\": {}", args.ctx.trace),
        format!("\"host\": {}", host_json()),
        format!("\"host_steal_share\": {steal}"),
    ];
    report.extend(out.report.iter().map(|(k, v)| format!("{k:?}: {v}")));
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.mismatches == 0,
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.join(", ")
    );
    Ok((format!("{{\"report\": {{{}}}}}", report.join(", ")), result))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (out, steal) = host::with_steal(|| workloads::run(&args.workload, &args.ctx));
    match out.and_then(|out| render(&args, &out, steal)) {
        Ok((report, result)) => {
            println!("{report}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload swap-mixed --seed 9 --seconds 12 --trace 1").expect("parses");
        assert_eq!(a.workload, "swap-mixed");
        assert_eq!((a.ctx.seed, a.ctx.secs, a.ctx.trace), (9, 12.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload bulk-fresh --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload bulk-fresh --seed 1 --seconds 1").is_err());
        assert!(args("--workload bulk-fresh --seed 1 --seconds 1 --trace 0 --extra 1").is_err());
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// workloads and metrics (names and units) this program reports, and
    /// every name is `[A-Za-z0-9_.-]+`.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v = doduo_served::json::Json::parse(&text).expect("BENCHMARK.json parses");
        let well_formed = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
        };
        let field = |e: &doduo_served::json::Json, k: &str| {
            e.get(k).and_then(|x| x.as_str()).unwrap_or_default().to_string()
        };
        let list = |key: &str| -> Vec<(String, String)> {
            let entries = v.get(key).and_then(|l| l.as_array()).expect("list present");
            entries.iter().map(|e| (field(e, "name"), field(e, "unit"))).collect()
        };
        let owned = |spec: &[(&str, &str)]| -> Vec<(String, String)> {
            spec.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        let listed: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(listed, WORKLOADS);
        assert_eq!(list("end_to_end"), owned(&workloads::END_TO_END));
        assert_eq!(list("per_layer"), owned(&workloads::PER_LAYER));
        let names = workloads::END_TO_END.iter().chain(&workloads::PER_LAYER).map(|(n, _)| *n);
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS.into_iter().chain(names) {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }
}
