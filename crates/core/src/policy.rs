//! Protection scheduling: one owner for the per-section frequency gates.
//!
//! Paper §4.5 assigns each section a detection *frequency*; a frequency is
//! realised as a deterministic [`FrequencyGate`] that decides, per
//! execution, whether the section checks. Before this module existed every
//! caller (the trainer, ad-hoc experiment loops) hand-rolled one gate per
//! section. [`ProtectionPolicy`] owns all four gates and hands out
//! ready-made [`SectionToggles`] per execution, so there is one place where
//! "which sections check this step" is decided. It holds no config of its
//! own: the frequencies are read from the caller's [`ProtectionConfig`] on
//! every draw, so there is no second copy to keep in sync.

use crate::attention::SectionToggles;
use crate::config::{FrequencyGate, ProtectionConfig};

/// The per-section [`FrequencyGate`]s, realising a [`ProtectionConfig`]'s
/// frequencies as per-execution [`SectionToggles`].
///
/// Gates advance only through [`Self::next_toggles`], so two callers can
/// never observe inconsistent phases, and a config change between draws
/// keeps the accumulated phases (matching the paper's semantics: changing
/// a frequency mid-training re-paces future checks, it does not reset
/// history).
#[derive(Debug, Clone, Default)]
pub struct ProtectionPolicy {
    gate_as: FrequencyGate,
    gate_cl: FrequencyGate,
    gate_o: FrequencyGate,
    gate_ffn: FrequencyGate,
}

impl ProtectionPolicy {
    /// Advance every gate one execution at `config`'s frequencies and
    /// return the sections to protect this execution.
    pub fn next_toggles(&mut self, config: &ProtectionConfig) -> SectionToggles {
        SectionToggles {
            s_as: self.gate_as.tick(config.f_as),
            s_cl: self.gate_cl.tick(config.f_cl),
            s_o: self.gate_o.tick(config.f_o),
            s_ffn: self.gate_ffn.tick(config.f_ffn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_policy_always_checks_everything() {
        let mut p = ProtectionPolicy::default();
        for _ in 0..10 {
            let t = p.next_toggles(&ProtectionConfig::full());
            assert!(t.s_as && t.s_cl && t.s_o && t.s_ffn);
        }
    }

    #[test]
    fn off_policy_never_checks_and_never_fires() {
        let mut p = ProtectionPolicy::default();
        for _ in 0..10 {
            assert!(!p.next_toggles(&ProtectionConfig::off()).any());
        }
    }

    #[test]
    fn half_frequency_alternates_in_lockstep() {
        let cfg = ProtectionConfig::with_frequencies(0.5, 0.5, 0.5).ffn_frequency(0.5);
        let mut p = ProtectionPolicy::default();
        let pattern: Vec<bool> = (0..6).map(|_| p.next_toggles(&cfg).s_as).collect();
        assert_eq!(
            pattern,
            vec![false, true, false, true, false, true],
            "error-diffusion gate at 0.5 checks every other execution"
        );
        // All four sections share the phase when configured identically.
        let t = p.next_toggles(&cfg);
        assert_eq!(t.s_as, t.s_ffn);
    }

    #[test]
    fn config_change_keeps_gate_phase() {
        let half = ProtectionConfig::with_frequencies(0.5, 0.5, 0.5);
        let mut p = ProtectionPolicy::default();
        // Phase 0.5 accumulated, no check yet.
        assert!(!p.next_toggles(&half).s_as);
        // full() fires and carries the phase over (1.5 → 0.5); back at 0.5
        // the retained phase fires at once, where a fresh policy would not.
        assert!(p.next_toggles(&ProtectionConfig::full()).s_as);
        assert!(p.next_toggles(&half).s_as);
        assert!(!ProtectionPolicy::default().next_toggles(&half).s_as);
    }
}
