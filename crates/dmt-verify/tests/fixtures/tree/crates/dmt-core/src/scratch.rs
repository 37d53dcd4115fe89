//! Fixture: an allocation inside the hot function `gather` trips
//! `hot-path-alloc`; cold `to_vec`, `presort` and `partition` stay clean.

pub struct Scratch {
    buf: Vec<f64>,
}

impl Scratch {
    pub fn gather(&mut self, xs: &[f64]) {
        self.buf = xs.to_vec();
    }

    pub fn cold(&self, xs: &[f64]) -> Vec<f64> {
        xs.to_vec()
    }

    pub fn presort(&mut self) {
        self.buf.sort_by(f64::total_cmp);
    }

    pub fn partition(&mut self) {
        self.buf.clear();
    }
}
