//! Interpreting `Norm(N_E)` (paper §IV-A and Fig. 10).
//!
//! The error component is not just a residual — it *predicts* whether
//! network performance aware optimization is worth running at all. The
//! paper's measurements: below ~0.1 the optimizations gain 40%+; around
//! 0.2 the gain drops under 20%; past ~0.5 it is marginal and the network
//! is "too dynamic".

/// Qualitative effectiveness bands derived from the paper's sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectivenessBand {
    /// `Norm(N_E) < 0.1`: stable network (EC2-like); expect ≳40% gains.
    HighlyEffective,
    /// `0.1 ≤ Norm(N_E) < 0.2`: expect roughly 20–40% gains.
    Effective,
    /// `0.2 ≤ Norm(N_E) < 0.5`: gains below 20% and shrinking.
    Marginal,
    /// `Norm(N_E) ≥ 0.5`: the network is too dynamic; don't bother.
    Ineffective,
}

/// Classify a `Norm(N_E)` value into the paper's bands.
pub fn classify(norm_ne: f64) -> EffectivenessBand {
    if norm_ne < 0.1 {
        EffectivenessBand::HighlyEffective
    } else if norm_ne < 0.2 {
        EffectivenessBand::Effective
    } else if norm_ne < 0.5 {
        EffectivenessBand::Marginal
    } else {
        EffectivenessBand::Ineffective
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_boundaries() {
        assert_eq!(classify(0.0), EffectivenessBand::HighlyEffective);
        assert_eq!(classify(0.09), EffectivenessBand::HighlyEffective);
        assert_eq!(classify(0.1), EffectivenessBand::Effective);
        assert_eq!(classify(0.19), EffectivenessBand::Effective);
        assert_eq!(classify(0.2), EffectivenessBand::Marginal);
        assert_eq!(classify(0.49), EffectivenessBand::Marginal);
        assert_eq!(classify(0.5), EffectivenessBand::Ineffective);
        assert_eq!(classify(1.0), EffectivenessBand::Ineffective);
    }
}
