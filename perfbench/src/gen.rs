//! Workload inputs. Every input is a pure function of the `--seed`
//! argument (and of constants in this file); the daemons receive only the
//! generated request bytes.

use doduo_datagen::{generate_wikitable, KbConfig, KnowledgeBase, WikiTableConfig};
use doduo_table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Duration;

/// Seed of the served model's world: `synthetic_world(quick, 42)`.
pub const MODEL_SEED: u64 = 42;
/// Seed of the second world whose bundle `swap-mixed` alternates with.
pub const SWAP_SEED: u64 = 99;
/// Base of the `generate_wikitable` seeds for `bulk-fresh` tables: far
/// above any seed a synthetic world uses, so no bulk table comes from the
/// model's own corpus.
const BULK_SEED_BASE: u64 = 1 << 40;
/// Base of the seeds for the `online-small` pool.
const SMALL_SEED_BASE: u64 = 2 << 40;
/// Tables generated per `generate_wikitable` call for the bulk corpus.
const BULK_CHUNK: usize = 256;
/// Distinct small tables `online-small` requests draw from.
const SMALL_POOL: usize = 192;

/// The knowledge base the model's world was generated from; workload
/// tables draw their entities from it so they share the model's
/// vocabulary.
pub fn knowledge_base() -> KnowledgeBase {
    KnowledgeBase::generate(&KbConfig::default(), MODEL_SEED)
}

/// `n` distinct `bulk-fresh` tables. Rows are sized (8 to 12) so that most
/// columns come close to the 32-token column budget. Tables are drawn in
/// chunks from seeds disjoint from the model's corpus; a table whose
/// columns equal an earlier one's is skipped, so no table repeats.
pub fn bulk_tables(kb: &KnowledgeBase, seed: u64, n: usize) -> Vec<Table> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    for chunk in 0u64.. {
        let ds = generate_wikitable(
            kb,
            &WikiTableConfig {
                n_tables: BULK_CHUNK,
                min_rows: 8,
                max_rows: 12,
                seed: BULK_SEED_BASE + seed * 1_000_000 + chunk,
            },
        );
        for t in ds.tables {
            if out.len() == n {
                return out;
            }
            if seen.insert(format!("{:?}", t.table.columns)) {
                let mut table = t.table;
                table.id = format!("bulk-{}", out.len());
                out.push(table);
            }
        }
    }
    unreachable!("the chunk loop only ends by returning")
}

/// The fixed pool of small (1 to 2 rows) tables `online-small` draws from.
pub fn small_pool(kb: &KnowledgeBase, seed: u64) -> Vec<Table> {
    let ds = generate_wikitable(
        kb,
        &WikiTableConfig {
            n_tables: SMALL_POOL,
            min_rows: 1,
            max_rows: 2,
            seed: SMALL_SEED_BASE + seed,
        },
    );
    ds.tables.into_iter().map(|t| t.table).collect()
}

/// `n` uniform draws of indices below `len`.
pub fn picks(seed: u64, salt: u64, n: usize, len: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
    (0..n).map(|_| rng.gen_range(0..len)).collect()
}

/// Poisson arrival times (offsets from the phase start) at `rate` per
/// second over `secs` seconds.
pub fn poisson_schedule(seed: u64, salt: u64, rate: f64, secs: f64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ salt);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Input properties of the tables one workload actually sent.
#[derive(Clone, Debug, Default)]
pub struct Properties {
    /// Tables sent.
    pub tables: usize,
    /// Share of sent tables equal to an earlier sent table.
    pub table_repeat_share: f64,
    /// Share of sent columns equal to an earlier sent column.
    pub column_repeat_share: f64,
    /// Median serialized tokens per table.
    pub tokens_p50: f64,
    /// Most serialized tokens in one table.
    pub tokens_max: f64,
    /// Mean columns per table.
    pub cols_per_table: f64,
}

/// Properties of the sent sequence `tables`, with `tokens[i]` the
/// serialized length of `tables[i]`.
pub fn properties(tables: &[&Table], tokens: &[usize]) -> Properties {
    if tables.is_empty() {
        return Properties::default();
    }
    let (mut seen_t, mut seen_c) = (HashSet::new(), HashSet::new());
    let (mut rep_t, mut rep_c, mut cols) = (0usize, 0usize, 0usize);
    for t in tables {
        rep_t += usize::from(!seen_t.insert(format!("{:?}", t.columns)));
        for c in &t.columns {
            rep_c += usize::from(!seen_c.insert(format!("{c:?}")));
            cols += 1;
        }
    }
    let toks: Vec<f64> = tokens.iter().map(|&t| t as f64).collect();
    let s = crate::stats::summarize(&toks);
    Properties {
        tables: tables.len(),
        table_repeat_share: rep_t as f64 / tables.len() as f64,
        column_repeat_share: rep_c as f64 / cols.max(1) as f64,
        tokens_p50: s.p50,
        tokens_max: toks.iter().copied().fold(0.0, f64::max),
        cols_per_table: cols as f64 / tables.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let kb = knowledge_base();
        assert_eq!(bulk_tables(&kb, 7, 300), bulk_tables(&kb, 7, 300));
        assert_ne!(bulk_tables(&kb, 7, 20), bulk_tables(&kb, 8, 20));
        assert_eq!(small_pool(&kb, 3), small_pool(&kb, 3));
        assert_eq!(picks(5, 1, 100, 10), picks(5, 1, 100, 10));
        assert_ne!(picks(5, 1, 100, 10), picks(6, 1, 100, 10));
        assert_eq!(poisson_schedule(5, 2, 100.0, 3.0), poisson_schedule(5, 2, 100.0, 3.0));
    }

    #[test]
    fn bulk_tables_never_repeat() {
        let kb = knowledge_base();
        let tables = bulk_tables(&kb, 1, 600);
        let refs: Vec<&Table> = tables.iter().collect();
        let p = properties(&refs, &vec![1; refs.len()]);
        assert_eq!(p.tables, 600);
        assert_eq!(p.table_repeat_share, 0.0);
    }

    #[test]
    fn poisson_rate_is_close_to_nominal() {
        let s = poisson_schedule(11, 0, 200.0, 20.0);
        let n = s.len() as f64;
        assert!((n - 4000.0).abs() < 4.0 * 4000f64.sqrt(), "{n} arrivals");
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }
}
