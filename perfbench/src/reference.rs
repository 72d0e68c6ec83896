//! Offline reference responses the daemons' bodies must equal byte for
//! byte.

use doduo_core::{AnnotatorBundle, QuantizedModel};
use doduo_served::json::{annotations_response, tables_from_request};
use doduo_served::validate::offline_response;

/// A model's offline reference in one numeric tier.
pub struct Reference<'b> {
    bundle: &'b AnnotatorBundle,
    /// Present for the int8 tier: built once here rather than once per
    /// body as `validate::offline_response_quant` does.
    quant: Option<QuantizedModel>,
}

impl<'b> Reference<'b> {
    /// The f32 reference (`validate::offline_response`) or the int8 one
    /// (the same computation as `validate::offline_response_quant`).
    pub fn new(bundle: &'b AnnotatorBundle, int8: bool) -> Reference<'b> {
        Reference { bundle, quant: int8.then(|| bundle.quantized()) }
    }

    /// The exact `/v1/annotate` body (and stream line) for `body`.
    fn response(&self, body: &str) -> String {
        let Some(qm) = &self.quant else {
            return offline_response(self.bundle, body).expect("generated bodies are valid");
        };
        let (tables, wrapped) = tables_from_request(body).expect("generated bodies are valid");
        let ann = self.bundle.annotator();
        let anns: Vec<_> = tables
            .iter()
            .map(|t| {
                let groups = [self.bundle.model.serialize_for_types(t, &self.bundle.tokenizer)];
                let refs: Vec<&[_]> = groups.iter().map(Vec::as_slice).collect();
                qm.annotate_serialized(&ann, &refs).into_iter().next().expect("one table in")
            })
            .collect();
        annotations_response(&anns, wrapped)
    }

    /// References for every body, computed on up to `available_parallelism`
    /// threads.
    pub fn all(&self, bodies: &[&str]) -> Vec<String> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).max(1);
        let chunk = bodies.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = bodies
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || part.iter().map(|b| self.response(b)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .collect::<Vec<String>>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doduo_served::bootstrap::synthetic_world;
    use doduo_served::json::table_to_json;
    use doduo_served::validate::offline_response_quant;

    #[test]
    fn int8_reference_equals_offline_response_quant() {
        let w = synthetic_world(true, 42);
        let bodies: Vec<String> = w.tables.iter().take(3).map(table_to_json).collect();
        let refs: Vec<&str> = bodies.iter().map(String::as_str).collect();
        let q = Reference::new(&w.bundle, true).all(&refs);
        let f = Reference::new(&w.bundle, false).all(&refs);
        for (i, b) in bodies.iter().enumerate() {
            assert_eq!(q[i], offline_response_quant(&w.bundle, b).expect("annotates"));
            assert_eq!(f[i], offline_response(&w.bundle, b).expect("annotates"));
        }
    }
}
