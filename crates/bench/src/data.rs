//! Workload construction for the experiments.

use seqio::synth::{Dataset, SynthConfig};

/// Chromosome-1 scale model at the given scale (× the 1/100 `mini`).
pub(crate) fn ch1(scale: f64) -> Dataset {
    Dataset::generate(SynthConfig::ch1_mini(scale))
}

/// Chromosome-21 scale model at the given scale.
pub(crate) fn ch21(scale: f64) -> Dataset {
    Dataset::generate(SynthConfig::ch21_mini(scale))
}

/// Window sizes used throughout, scaled from the paper's defaults so that
/// a scaled dataset still spans several windows.
pub(crate) fn scaled_window(paper_window: usize, scale: f64) -> usize {
    ((paper_window as f64 * scale) as usize).max(256)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_datasets_shrink() {
        let small = ch21(0.002);
        assert!(small.config.num_sites < 2_000);
        assert!(!small.reads.is_empty());
    }

    #[test]
    fn window_scaling_floors() {
        assert_eq!(scaled_window(256_000, 0.02), 5_120);
        assert_eq!(scaled_window(4_000, 0.0001), 256);
    }
}
