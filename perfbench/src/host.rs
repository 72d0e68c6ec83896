//! CPU steal: time the hypervisor spent running something else while this
//! guest wanted a CPU. On a shared virtual machine it arrives in bursts
//! that slow whatever runs through them, whatever the program does, so the
//! benchmark times each round with the steal it saw and gates on the
//! calmest rounds.

use crate::stats::median;

/// Share of a run's rounds (the calmest ones) that metrics are taken from.
const CALM_SHARE: f64 = 0.6;

/// Steal and total jiffies over all CPUs, from the aggregate `cpu` line of
/// `/proc/stat`.
#[derive(Clone, Copy)]
pub struct Jiffies {
    steal: u64,
    total: u64,
}

impl Jiffies {
    /// The current counters; `None` where `/proc/stat` is unavailable.
    pub fn now() -> Option<Jiffies> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let v: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        Some(Jiffies { steal: *v.get(7)?, total: v.iter().sum() })
    }
}

/// Share of CPU time stolen between two readings (0 when unknown).
pub fn steal_share(from: Option<Jiffies>, to: Option<Jiffies>) -> f64 {
    match from.zip(to) {
        Some((a, b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}

/// Runs `f` and returns its result with the steal share while it ran.
pub fn with_steal<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let from = Jiffies::now();
    let out = f();
    (out, steal_share(from, Jiffies::now()))
}

/// Indices, in order, of the calmest [`CALM_SHARE`] of rounds (at least
/// one): those with the least steal, earlier rounds first on ties.
pub fn calmest(steal: &[f64]) -> Vec<usize> {
    let keep = ((steal.len() as f64 * CALM_SHARE).ceil() as usize).max(1).min(steal.len());
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    order.truncate(keep);
    order.sort_unstable();
    order
}

/// Median of `values` over the calmest rounds by `steal`.
pub fn calm_median(values: &[f64], steal: &[f64]) -> f64 {
    let kept: Vec<f64> = calmest(steal).into_iter().map(|i| values[i]).collect();
    median(&kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calmest_keeps_the_least_stolen_rounds_in_order() {
        let steal = [0.05, 0.0, 0.2, 0.01, 0.0, 0.3, 0.02, 0.1];
        assert_eq!(calmest(&steal), vec![0, 1, 3, 4, 6]);
        assert_eq!(calmest(&[0.4]), vec![0]);
        assert!(calmest(&[]).is_empty());
        let rates = [90.0, 100.0, 50.0, 101.0, 99.0, 40.0, 98.0, 70.0];
        assert_eq!(calm_median(&rates, &steal), 99.0);
    }

    #[test]
    fn steal_share_is_zero_when_unknown() {
        assert_eq!(steal_share(None, None), 0.0);
        let a = Jiffies { steal: 10, total: 1000 };
        let b = Jiffies { steal: 30, total: 1200 };
        assert!((steal_share(Some(a), Some(b)) - 0.1).abs() < 1e-12);
        assert_eq!(steal_share(Some(b), Some(b)), 0.0);
    }
}
