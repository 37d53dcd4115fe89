//! Workload inputs: a catalog stream generated once from the workload seed
//! and held as one flat row-major buffer, cut into fixed-size batches.

use dmt::stream::{catalog, StreamSchema};

/// A materialised stream.
pub struct Rows {
    /// The stream's schema (features and classes).
    pub schema: StreamSchema,
    /// Rows per batch; the last batch may be shorter.
    pub batch: usize,
    xs: Vec<f64>,
    /// One label per row.
    pub ys: Vec<usize>,
}

impl Rows {
    /// Generate the whole catalog stream `name` at `scale` from `seed`.
    pub fn generate(name: &str, scale: f64, seed: u64, batch: usize) -> Self {
        let mut stream = catalog::build_stream(name, scale, seed)
            .unwrap_or_else(|| panic!("{name} is a catalog stream"));
        let schema = stream.schema().clone();
        let hint = stream.remaining_hint().unwrap_or(0) as usize;
        let mut xs = Vec::with_capacity(hint * schema.num_features());
        let mut ys = Vec::with_capacity(hint);
        while let Some(instance) = stream.next_instance() {
            xs.extend_from_slice(&instance.x);
            ys.push(instance.y);
        }
        Self {
            schema,
            batch,
            xs,
            ys,
        }
    }

    /// Feature columns per row.
    pub fn cols(&self) -> usize {
        self.schema.num_features()
    }

    /// Total rows.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// Number of batches.
    pub fn batches(&self) -> usize {
        self.len().div_ceil(self.batch)
    }

    /// Row range of batch `b`.
    fn range(&self, b: usize) -> std::ops::Range<usize> {
        let start = b * self.batch;
        start..(start + self.batch).min(self.len())
    }

    /// The flat feature values of batch `b` (row-major).
    pub fn flat(&self, b: usize) -> &[f64] {
        let r = self.range(b);
        &self.xs[r.start * self.cols()..r.end * self.cols()]
    }

    /// Labels of batch `b`.
    pub fn labels(&self, b: usize) -> &[usize] {
        &self.ys[self.range(b)]
    }

    /// Row slices of every batch, in the `&[&[f64]]` shape the model APIs
    /// take. Built once, outside any timed region.
    pub fn views(&self) -> Vec<Vec<&[f64]>> {
        (0..self.batches())
            .map(|b| self.flat(b).chunks_exact(self.cols()).collect())
            .collect()
    }
}
