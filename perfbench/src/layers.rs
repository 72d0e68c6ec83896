//! The traced replay: a workload's own inputs pushed through each layer's
//! public functions, one call at a time, in the order the daemon makes
//! them (parse, decode, serialize, queue, annotate, render). Every timer
//! wraps a call from this file; nothing inside the program is
//! instrumented.

use doduo_core::{AnnotatorBundle, QuantizedModel};
use doduo_serve::{BatchAnnotator, BatchConfig};
use doduo_served::http::{parse_head, BodyDecoder, BodyFraming};
use doduo_served::json::StreamSplitter;
use doduo_served::json::{annotations_response, table_from_json, tables_from_request, Json};
use doduo_served::{BatchPolicy, Batcher};
use doduo_table::{column_tokens, table_wise_budget, SerializedTable, Table};
use doduo_tensor::{matmul, AttnMask, QuantizedLinear, Tape, Tensor};
use doduo_transformer::{BatchSeq, QuantEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// How a replayed input reached the daemon.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// One `POST /v1/annotate` with a `content-length` body.
    Request,
    /// One document of a chunked `/v1/annotate_stream` upload.
    Stream,
}

/// One replayed input: the exact body text, when it arrived at the
/// daemon, and which engine answered it.
pub struct Item<'a> {
    /// Request body (or stream document).
    pub body: &'a str,
    /// When the generator sent it.
    pub arrival: Instant,
    /// Index into the replay's bundles of the model that answered it.
    pub model: usize,
    /// Version of the engine that answered it (from `x-model-version`):
    /// every hot swap builds a fresh engine, token cache included.
    pub version: u64,
}

/// Per-layer results of one replay. Times are µs per table unless named
/// otherwise.
#[derive(Default, Debug)]
pub struct Layers {
    /// Items replayed through parse, decode, serialize and the queue.
    pub tables: usize,
    /// Of those, tables replayed through the model stages and render.
    pub modeled: usize,
    pub flushes: usize,
    pub parse_us: f64,
    pub decode_us: f64,
    pub serialize_us: f64,
    pub render_us: f64,
    pub annotate_us: f64,
    pub encoder_us: f64,
    pub encoder_us_per_token: f64,
    pub quant_encoder_us: f64,
    pub heads_us: f64,
    pub quant_heads_us: f64,
    pub gemm_us: f64,
    pub quant_gemm_us: f64,
    /// Computed from GEMM shapes, not measured.
    pub gemm_flops_per_table: f64,
    /// Computed from GEMM shapes (operands read plus result written once,
    /// f32), not measured.
    pub gemm_bytes_per_table: f64,
    pub encode_us_per_column: f64,
    pub cache_hit_ratio: f64,
    pub cache_evictions: f64,
}

impl Layers {
    /// The replayed stages of one table's path through the daemon, in ms:
    /// parse + decode + serialize + annotate + render.
    pub fn stages_ms(&self) -> f64 {
        (self.parse_us + self.decode_us + self.serialize_us + self.annotate_us + self.render_us)
            / 1e3
    }
}

/// Repetitions behind each encoder/heads split (the fastest is kept).
const SPLIT_REPS: usize = 2;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The model-side state the replay reuses across flushes.
struct Model<'b> {
    bundle: &'b Arc<AnnotatorBundle>,
    quant: QuantizedModel,
    quant_enc: QuantEncoder,
}

/// The dense-layer shapes of one encoder layer, `(k, n)` per GEMM: the
/// fused Q/K/V projection (three `d x d` GEMMs), the attention output
/// projection, and the two FFN layers.
fn gemm_shapes(d: usize, ffn: usize) -> [(usize, usize); 6] {
    [(d, d), (d, d), (d, d), (d, d), (d, ffn), (ffn, d)]
}

/// Replays `items` through every layer. `bundles[m]` is model `m`; a
/// change of engine version between consecutive items starts a fresh
/// engine (and token cache), as a hot swap does in the daemon. Parse, decode,
/// serialize and queueing cover every item; the model stages (annotate,
/// encoder, heads, GEMMs) and render cover the flushes holding the first
/// `model_max` items.
pub fn replay(
    bundles: &[Arc<AnnotatorBundle>],
    items: &[Item<'_>],
    framing: Framing,
    model_max: usize,
) -> Layers {
    let mut out = Layers { tables: items.len(), ..Layers::default() };
    if items.is_empty() {
        return out;
    }
    let models: Vec<Model<'_>> = bundles
        .iter()
        .map(|b| Model {
            bundle: b,
            quant: b.quantized(),
            quant_enc: QuantEncoder::from_encoder(&b.model.encoder, &b.store),
        })
        .collect();

    // Stage 1-3 per item: parse, decode, serialize (through the engine's
    // token cache; a new version means a fresh engine, as after a swap).
    let mut tables: Vec<Table> = Vec::with_capacity(items.len());
    let mut groups: Vec<Vec<SerializedTable>> = Vec::with_capacity(items.len());
    let mut engines: Vec<(u64, BatchAnnotator)> = Vec::new();
    let (mut hits, mut lookups) = (0u64, 0u64);
    for item in items {
        match framing {
            Framing::Request => {
                let wire = format!(
                    "POST /v1/annotate HTTP/1.1\r\nhost: localhost\r\nconnection: keep-alive\r\n\
                     content-length: {}\r\n\r\n{}",
                    item.body.len(),
                    item.body
                );
                let t0 = Instant::now();
                let (head, used) = parse_head(wire.as_bytes()).ok().flatten().expect("valid head");
                let mut body = Vec::new();
                BodyDecoder::new(head.framing)
                    .push(&wire.as_bytes()[used..], &mut body)
                    .expect("body");
                out.parse_us += us(t0);
                std::hint::black_box(body);
            }
            Framing::Stream => {
                let chunk = format!("{:x}\r\n{}\n\r\n", item.body.len() + 1, item.body);
                let t0 = Instant::now();
                let mut body = Vec::new();
                BodyDecoder::new(BodyFraming::Chunked)
                    .push(chunk.as_bytes(), &mut body)
                    .expect("chunk");
                out.parse_us += us(t0);
                std::hint::black_box(body);
            }
        }
        let t0 = Instant::now();
        let table = match framing {
            Framing::Request => tables_from_request(item.body).expect("valid request").0.remove(0),
            Framing::Stream => {
                let mut split = StreamSplitter::new(doduo_served::http::MAX_BODY_BYTES);
                let mut doc = String::with_capacity(item.body.len() + 1);
                doc.push_str(item.body);
                doc.push('\n');
                let docs = split.push(doc.as_bytes()).expect("one document");
                table_from_json(&Json::parse(&docs[0]).expect("valid json")).expect("valid table")
            }
        };
        out.decode_us += us(t0);

        if engines.last().is_none_or(|(v, _)| *v != item.version) {
            let cfg = BatchConfig::default();
            engines.push((
                item.version,
                BatchAnnotator::with_config(Arc::clone(&bundles[item.model]), cfg),
            ));
        }
        let engine = &engines.last().expect("pushed above").1;
        let before = engine.cache_stats();
        let t0 = Instant::now();
        let g = engine.serialize_table(&table);
        out.serialize_us += us(t0);
        let after = engine.cache_stats();
        hits += after.hits - before.hits;
        lookups += (after.hits + after.misses) - (before.hits + before.misses);
        let grown = after.len as f64 - before.len as f64;
        out.cache_evictions += (after.misses - before.misses) as f64 - grown;
        groups.push(g);
        tables.push(table);
    }
    out.cache_hit_ratio = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };

    // Uncached tokenization, per column.
    let mut cols = 0usize;
    for (item, table) in items.iter().zip(&tables) {
        let b = &bundles[item.model];
        let ser = &b.model.config().serialize;
        let budget = table_wise_budget(ser, table.n_cols());
        for c in 0..table.n_cols() {
            let t0 = Instant::now();
            std::hint::black_box(column_tokens(
                table,
                c,
                &b.tokenizer,
                budget,
                ser.include_metadata,
            ));
            out.encode_us_per_column += us(t0);
            cols += 1;
        }
    }
    out.encode_us_per_column /= cols.max(1) as f64;

    // Stage 4: cut flushes with the public batcher under the daemon's
    // policy, at the inputs' own arrival times.
    let flushes = cut_flushes(items, &groups);
    out.flushes = flushes.len();

    // Stage 5: annotate each flush, then split the encoder, heads and
    // GEMMs out of it on the same batch.
    let enc_cfg = bundles[0].model.encoder.config();
    let (d, ffn, n_layers) = (enc_cfg.hidden, enc_cfg.ffn, enc_cfg.layers);
    let mut rng = StdRng::seed_from_u64(7);
    let weights: Vec<(Tensor, QuantizedLinear)> = gemm_shapes(d, ffn)
        .iter()
        .map(|&(k, n)| {
            let w = Tensor::randn(k, n, 0.02, &mut rng);
            let q = QuantizedLinear::from_f32(&w, &Tensor::zeros(1, n));
            (w, q)
        })
        .collect();
    let annotators: Vec<BatchAnnotator> = bundles
        .iter()
        .map(|b| BatchAnnotator::with_config(Arc::clone(b), BatchConfig::default()))
        .collect();
    let mut anns = Vec::with_capacity(model_max);
    let mut tokens_total = 0usize;
    for flush in &flushes {
        if anns.len() >= model_max {
            break;
        }
        let m = items[flush[0]].model;
        let model = &models[m];
        let flush_groups: Vec<Vec<SerializedTable>> =
            flush.iter().map(|&i| groups[i].clone()).collect();
        let t0 = Instant::now();
        let a = annotators[m].annotate_groups(&flush_groups);
        out.annotate_us += us(t0);
        anns.extend(flush.iter().copied().zip(a));

        let sts: Vec<&SerializedTable> = flush_groups.iter().flatten().collect();
        let vis: Vec<Option<AttnMask>> =
            sts.iter().map(|st| model.bundle.model.visibility_mask(st)).collect();
        let seqs: Vec<BatchSeq<'_>> = sts
            .iter()
            .zip(&vis)
            .map(|(st, m)| BatchSeq { ids: &st.ids, mask: m.as_ref() })
            .collect();
        let refs: Vec<&[SerializedTable]> = flush_groups.iter().map(Vec::as_slice).collect();
        let annotator = model.bundle.annotator();
        // Heads are a difference of two much larger times, so each side is
        // the fastest of a few interleaved repetitions.
        let (mut enc, mut full, mut qenc, mut qfull) = [f64::INFINITY; 4].into();
        for _ in 0..SPLIT_REPS {
            let mut tape = Tape::inference(&model.bundle.store);
            let t0 = Instant::now();
            std::hint::black_box(
                model.bundle.model.encoder.forward_batch(&mut tape, &seqs, &mut rng),
            );
            enc = enc.min(us(t0));
            drop(tape);
            let t0 = Instant::now();
            std::hint::black_box(annotator.annotate_serialized(&refs));
            full = full.min(us(t0));
            let mut tape = Tape::inference(&model.bundle.store);
            let t0 = Instant::now();
            std::hint::black_box(model.quant_enc.forward_batch(&mut tape, &seqs));
            qenc = qenc.min(us(t0));
            drop(tape);
            let t0 = Instant::now();
            std::hint::black_box(model.quant.annotate_serialized(&annotator, &refs));
            qfull = qfull.min(us(t0));
        }
        out.encoder_us += enc;
        out.heads_us += full - enc;
        out.quant_encoder_us += qenc;
        out.quant_heads_us += qfull - qenc;

        let t: usize = sts.iter().map(|st| st.len()).sum();
        tokens_total += t;
        let x_d = Tensor::randn(t, d, 1.0, &mut rng);
        let x_f = Tensor::randn(t, ffn, 1.0, &mut rng);
        let input = |k: usize| if k == d { &x_d } else { &x_f };
        let t0 = Instant::now();
        for _ in 0..n_layers {
            for (w, _) in &weights {
                std::hint::black_box(matmul(input(w.rows()), w));
            }
        }
        out.gemm_us += us(t0);
        let t0 = Instant::now();
        for _ in 0..n_layers {
            for (w, q) in &weights {
                std::hint::black_box(q.forward(input(w.rows())));
            }
        }
        out.quant_gemm_us += us(t0);
        for &(k, n) in &gemm_shapes(d, ffn) {
            out.gemm_flops_per_table += (2 * t * k * n * n_layers) as f64;
            out.gemm_bytes_per_table += (4 * (t * k + k * n + t * n) * n_layers) as f64;
        }
    }
    out.encoder_us_per_token = out.encoder_us / tokens_total.max(1) as f64;

    // Stage 6: render each table's response.
    for (_, ann) in &anns {
        let t0 = Instant::now();
        std::hint::black_box(annotations_response(std::slice::from_ref(ann), false));
        out.render_us += us(t0);
    }

    for v in [&mut out.parse_us, &mut out.decode_us, &mut out.serialize_us] {
        *v /= items.len() as f64;
    }
    out.modeled = anns.len();
    let n = anns.len() as f64;
    for v in [
        &mut out.render_us,
        &mut out.annotate_us,
        &mut out.encoder_us,
        &mut out.quant_encoder_us,
        &mut out.heads_us,
        &mut out.quant_heads_us,
        &mut out.gemm_us,
        &mut out.quant_gemm_us,
        &mut out.gemm_flops_per_table,
        &mut out.gemm_bytes_per_table,
    ] {
        *v /= n;
    }
    out
}

/// Cuts the items into flushes with [`Batcher`] under the shipped
/// [`BatchPolicy`]: each item is pushed at its arrival time, a batch is
/// released when a budget is met or the oldest item's deadline passes
/// before the next arrival, and a change of engine drains the queue first
/// (the daemon never mixes engines in one forward pass).
fn cut_flushes(items: &[Item<'_>], groups: &[Vec<SerializedTable>]) -> Vec<Vec<usize>> {
    let mut b: Batcher<usize> = Batcher::new(BatchPolicy::default());
    let mut out = Vec::new();
    let mut version = items[0].version;
    for (i, item) in items.iter().enumerate() {
        while let Some(due) = b.deadline().filter(|&d| d <= item.arrival) {
            out.extend(b.take_due(due).map(|(batch, _)| batch));
        }
        if item.version != version {
            while let Some((batch, _)) = b.take_for_shutdown() {
                out.push(batch);
            }
            version = item.version;
        }
        let tokens = groups[i].iter().map(SerializedTable::len).sum();
        b.push(i, groups[i].len(), tokens, item.arrival)
            .expect("queue bound is far above a replay");
        while let Some((batch, _)) = b.take_due(item.arrival) {
            out.push(batch);
        }
    }
    while let Some((batch, _)) = b.take_for_shutdown() {
        out.push(batch);
    }
    out
}
