//! Set-up: cost-model training plus plan compilation (and, for the serve
//! workloads, server start and warm binds). Each run sets up
//! [`crate::config::SETUP_REPEATS`] times, spread over the run, and `setup_s` is the
//! median.

use std::sync::Arc;
use std::time::Instant;

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::{LayerConfig, ModelKind};

use crate::config::DEVICE;
use crate::report::Metrics;
use crate::stats::median;

/// Wall times of the repeated set-ups.
#[derive(Debug, Default)]
pub struct Setup {
    total_s: Vec<f64>,
    train_s: Vec<f64>,
    compile_s: Vec<f64>,
}

impl Setup {
    pub fn setup_s(&self) -> f64 {
        median(&self.total_s)
    }

    /// `setup.train_s` and `setup.compile_ms` (medians).
    pub fn push_layers(&self, out: &mut Metrics) {
        out.push("setup.train_s", median(&self.train_s), "s");
        out.push("setup.compile_ms", 1e3 * median(&self.compile_s), "ms");
    }
}

impl Setup {
    /// Times one set-up; `once` reports its own training and compilation
    /// seconds.
    pub fn time<T>(
        &mut self,
        once: impl FnOnce() -> Result<(T, f64, f64), String>,
    ) -> Result<T, String> {
        let t = Instant::now();
        let (value, train_s, compile_s) = once()?;
        self.total_s.push(t.elapsed().as_secs_f64());
        self.train_s.push(train_s);
        self.compile_s.push(compile_s);
        Ok(value)
    }

    /// One line for stderr.
    pub fn summary(&self) -> String {
        format!(
            "set-up: median {:.3} s over {} (train {:.3} s, compile {:.1} ms)",
            self.setup_s(),
            self.total_s.len(),
            median(&self.train_s),
            1e3 * median(&self.compile_s)
        )
    }
}

/// Trains the cost models (`GraniiOptions::fast`) and compiles the plan of
/// every model used; returns the instance and the two phase times.
pub fn granii(models: &[ModelKind]) -> Result<(Arc<Granii>, f64, f64), String> {
    let t = Instant::now();
    let granii = Granii::train_for_device(DEVICE, GraniiOptions::fast())
        .map_err(|e| format!("training cost models: {e}"))?;
    let train_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for &model in models {
        granii
            .compiled(model, LayerConfig::new(32, 32))
            .map_err(|e| format!("compiling {model}: {e}"))?;
    }
    Ok((Arc::new(granii), train_s, t.elapsed().as_secs_f64()))
}
