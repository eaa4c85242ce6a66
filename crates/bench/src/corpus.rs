//! Shared corpus construction for the `figures` experiments.
//!
//! Every per-app experiment walks the same deterministic corpus: app
//! `i` is generated from `PAPER_MASTER_SEED ^ i` and run through the
//! host-side prep stage. This module is the single place that spelling
//! lives — the batch, trace, targeted, sumstore, and persist sweeps all
//! build their windows through it.

use gdroid_apk::{generate_app, GenConfig, PAPER_MASTER_SEED};
use gdroid_ir::MethodId;
use gdroid_serve::fnv1a;
use gdroid_vetting::{prepare_vetting, PreparedApp, VettingRun};

/// Generates and preps corpus app `index` under the paper master seed.
pub fn corpus_prep(index: usize, config: &GenConfig) -> PreparedApp {
    prepare_vetting(generate_app(index, PAPER_MASTER_SEED ^ index as u64, config))
}

/// Preps the first `apps` corpus apps (resident all at once — the
/// streamed experiments use [`corpus_prep`] window by window instead).
pub fn corpus_preps(apps: usize, config: &GenConfig) -> Vec<PreparedApp> {
    (0..apps).map(|i| corpus_prep(i, config)).collect()
}

/// FNV-1a digest over the per-method fixpoint bitmaps, sorted by method
/// id — the engine-invariant facts, as one comparable number.
pub fn fact_digest(run: &VettingRun) -> u64 {
    let mut mids: Vec<MethodId> = run.analysis.facts.keys().copied().collect();
    mids.sort_unstable();
    let mut line = String::new();
    for mid in mids {
        use std::fmt::Write;
        write!(line, "{mid:?}:").expect("writing to String cannot fail");
        for w in run.analysis.facts[&mid].flat_words() {
            write!(line, "{w:x},").expect("writing to String cannot fail");
        }
        line.push(';');
    }
    fnv1a(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_prep_matches_the_longhand_spelling() {
        let a = corpus_prep(3, &GenConfig::tiny());
        let b = prepare_vetting(generate_app(3, PAPER_MASTER_SEED ^ 3, &GenConfig::tiny()));
        assert_eq!(a.app.manifest.package, b.app.manifest.package);
        assert_eq!(a.roots, b.roots);
    }
}
