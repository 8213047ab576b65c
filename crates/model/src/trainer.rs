//! Training loop with non-trainable-state detection and ABFT bookkeeping.
//!
//! A training step is data-parallel: each batch item runs
//! [`TransformerModel::forward`] + [`TransformerModel::backward`] against
//! the shared model (`&TransformerModel`) with its own tape and report,
//! fanned out by [`attn_tensor::par::map`] over [`Trainer::set_parallelism`]
//! workers in waves of `workers` items. The step's gradient accumulator is
//! a local: it starts empty, the first item of each wave backpropagates
//! straight into it, and the other items of the wave into gradient buffers
//! of their own. After each wave its results are reduced in **fixed batch
//! order** — losses summed, reports merged, item buffers folded into the
//! accumulator and zeroed for the next wave — so a step's loss and every
//! post-step parameter bit are identical at any worker count, and a step
//! holds `workers` gradient copies, not one per item. The optimizer then
//! reads the accumulator and the step drops it. The forward is
//! serving's `extend` over fresh KV caches, with the tape recorded.
//!
//! Between steps a trainer holds its model's weights and, in [`AdamW`], the
//! moments and their digests, which the first step creates. Gradients
//! exist only inside a step, and the model itself holds only its weights.

use crate::data::{Example, SyntheticMrpc};
use crate::model::{cross_entropy, InjectionSpec, TransformerModel};
use crate::optim::AdamW;
use crate::param::{Grads, HasParams};
use attn_tensor::ops::argmax;
use attn_tensor::par;
use attn_tensor::rng::TensorRng;
use attn_tensor::OpGuard;
use attnchecker::attention::SectionToggles;
use attnchecker::config::ProtectionConfig;
use attnchecker::policy::ProtectionPolicy;
use attnchecker::report::AbftReport;
use attnchecker::section::Ctx;
use std::time::{Duration, Instant};

/// Result of one training step.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Mean cross-entropy loss over the batch (NaN signals corruption).
    pub loss: f32,
    /// Aggregated ABFT activity during the step: the merge of
    /// `item_reports`, in batch order, plus the optimizer's moment-guard
    /// screens.
    pub report: AbftReport,
    /// Per-item ABFT reports, in batch order — an injection into one item
    /// shows up only in that item's report.
    pub item_reports: Vec<AbftReport>,
    /// True when this step put the model into a non-trainable state: the
    /// loss is NaN or a parameter became non-finite after the update
    /// (the paper's §3 criterion).
    pub non_trainable: bool,
    /// Wall time of the whole step (forward + backward + optimizer).
    pub step_time: Duration,
    /// Busy time spent inside attention forward passes, summed over batch
    /// items. With `workers == 1` this is wall time and
    /// `attention_time + ffn_time <= step_time`; with more workers items
    /// overlap, so the sums may exceed `step_time` but stay within
    /// `step_time * workers` (each worker's busy time fits in the step).
    pub attention_time: Duration,
    /// Busy time spent inside FFN forward passes, summed over batch items
    /// (same semantics as `attention_time`).
    pub ffn_time: Duration,
    /// Worker threads the step fanned batch items over.
    pub workers: usize,
    /// GEMM/encoding workspace-arena allocation events on the calling
    /// thread during this step (see
    /// `attn_tensor::workspace::thread_alloc_events`). The arena warms up
    /// over the first step(s); a steady-state step is allocation-free on
    /// the GEMM/encode hot path, so this settles to 0 — the property the
    /// zero-alloc regression test asserts. With `workers > 1` the fanned-
    /// out items allocate on their own worker threads, which this
    /// caller-thread counter intentionally does not include.
    pub ws_allocs: u64,
}

/// One batch item's contribution to a training step besides its gradients,
/// produced on whichever worker ran the item and reduced in batch order.
struct ItemOutcome {
    loss: f32,
    report: AbftReport,
    attn_time: Duration,
    ffn_time: Duration,
}

/// Fine-tuning driver for one model.
pub struct Trainer {
    /// The model being trained.
    pub model: TransformerModel,
    /// Optimizer, owner of the AdamW moments.
    pub optim: AdamW,
    /// Single owner of the per-section frequency gates, driven at the
    /// model's protection config on every step.
    policy: ProtectionPolicy,
    /// Worker threads `train_step*` fans batch items over (1 = sequential).
    parallelism: usize,
}

impl Trainer {
    /// Build a trainer with the given learning rate. Steps run
    /// sequentially until [`Self::set_parallelism`] raises the worker
    /// count.
    pub fn new(model: TransformerModel, lr: f32) -> Self {
        Self {
            model,
            optim: AdamW::new(lr),
            policy: ProtectionPolicy::default(),
            parallelism: 1,
        }
    }

    /// Fan batch items of every training step over `workers` threads
    /// (clamped to ≥ 1). Any setting produces bit-identical losses and
    /// parameter updates — the per-item gradient buffers are folded in
    /// batch order regardless of scheduling — so this is a throughput knob
    /// whose memory cost is `workers − 1` gradient buffers beside the
    /// step's accumulator.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.parallelism = workers.max(1);
    }

    /// Worker threads training steps fan out over.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Change the model's protection config. Gate phases are kept (a
    /// frequency change re-paces future checks, it does not reset history).
    pub fn set_protection(&mut self, protection: ProtectionConfig) {
        self.model.set_protection(protection);
    }

    /// One clean training step over `batch`.
    pub fn train_step(&mut self, batch: &[&Example]) -> StepOutcome {
        self.train_step_injected(batch, None)
    }

    /// One training step, optionally injecting a fault into the forward
    /// pass of batch item `inject.0`.
    ///
    /// Batch items run concurrently over [`Self::parallelism`] workers;
    /// each item forwards and backwards against the shared model with its
    /// own activation tape, ABFT report, and gradient buffer (the step's
    /// accumulator, for the first item of a wave), so an injection strikes
    /// only its target item. Per-item results are reduced in batch order
    /// after each wave of `workers` items, making the step bit-identical to
    /// the sequential schedule at any worker count.
    ///
    /// # Panics
    /// Panics on an empty batch, and on an injection the step cannot
    /// deliver: a target item past the batch, or a layer past the model's
    /// blocks.
    pub fn train_step_injected(
        &mut self,
        batch: &[&Example],
        inject: Option<(usize, InjectionSpec)>,
    ) -> StepOutcome {
        assert!(!batch.is_empty());
        if let Some((item, spec)) = &inject {
            assert!(
                *item < batch.len(),
                "injection targets item {item} of a batch of {}",
                batch.len()
            );
            assert!(
                spec.layer < self.model.blocks.len(),
                "injection targets layer {} of a model with {} blocks",
                spec.layer,
                self.model.blocks.len()
            );
        }
        // The sections to protect this step: the gates advance one step at
        // the model's frequencies (paper §4.5, realised deterministically).
        let toggles = self.policy.next_toggles(self.model.protection());
        let workers = self.parallelism.min(batch.len());
        let ws0 = attn_tensor::workspace::thread_alloc_events();
        let t0 = Instant::now();

        let inv = 1.0 / batch.len() as f32;
        let protection = *self.model.protection();
        let run_item = |model: &TransformerModel, bi: usize, grads: &mut Grads| -> ItemOutcome {
            let ex = batch[bi];
            let spec = match &inject {
                Some((target, spec)) if *target == bi => Some(*spec),
                _ => None,
            };
            let mut report = AbftReport::default();
            let (logits, tape) = model.forward(&ex.tokens, toggles, spec.as_ref(), &mut report);
            // The loss and the whole backward pass: an execution of its own.
            let ctx = Ctx::new(&protection, toggles, &mut report);
            let (loss, dlogits) = cross_entropy(&logits, ex.label, ctx.guard());
            model.backward(&dlogits.scaled(inv), &tape, grads, ctx.guard());
            drop(ctx);
            ItemOutcome {
                loss,
                report,
                attn_time: tape.blocks.iter().map(|b| b.attn_time).sum(),
                ffn_time: tape.blocks.iter().map(|b| b.ffn_time).sum(),
            }
        };

        // Waves of `workers` items. The step's accumulator rides in slot 0
        // of each wave, so the wave's first item backpropagates straight
        // into it; the others fill buffers of their own, which fold into it
        // in batch order before the next wave starts. At most `workers`
        // gradient copies are live, and none outlives the step.
        let mut grads = Grads::new();
        let mut buffers: Vec<Grads> = (0..workers).map(|_| Grads::new()).collect();
        let mut report = AbftReport::default();
        let mut item_reports = Vec::with_capacity(batch.len());
        let mut loss_sum = 0.0f32;
        let mut attention_time = Duration::ZERO;
        let mut ffn_time = Duration::ZERO;
        for start in (0..batch.len()).step_by(workers) {
            // A ragged last wave leaves its spare buffers idle.
            let wave = &mut buffers[..workers.min(batch.len() - start)];
            wave[0] = std::mem::take(&mut grads);
            let model = &self.model;
            let done = par::map(workers, wave, |j, grads| run_item(model, start + j, grads));
            grads = std::mem::take(&mut wave[0]);
            // Deterministic fixed-order reduction: batch order, always. Slot
            // 0 is empty again after the take, so it folds nothing.
            for (item, buffer) in done.into_iter().zip(wave.iter_mut()) {
                buffer.merge_into(&mut grads);
                loss_sum += item.loss;
                report.merge(&item.report);
                item_reports.push(item.report);
                attention_time += item.attn_time;
                ffn_time += item.ffn_time;
            }
        }
        drop(buffers);
        // The optimizer reads the folded gradients, its moment digests
        // verified and healed in an execution of its own.
        let ctx = Ctx::new(&protection, toggles, &mut report);
        self.optim.step(&mut self.model, &grads, ctx.guard());
        drop(ctx);

        let loss = loss_sum * inv;
        let params_ok = self.model.params_finite();
        StepOutcome {
            loss,
            report,
            item_reports,
            non_trainable: loss.is_nan() || !params_ok,
            step_time: t0.elapsed(),
            attention_time,
            ffn_time,
            workers,
            ws_allocs: attn_tensor::workspace::thread_alloc_events() - ws0,
        }
    }

    /// Train one epoch; returns the mean per-example loss.
    ///
    /// Weighted by example count, not by batch: averaging batch means
    /// would over-weight a short final batch (e.g. 17 examples at batch
    /// size 8 → the 1-example tail counting as much as a full batch).
    pub fn train_epoch(
        &mut self,
        dataset: &SyntheticMrpc,
        batch_size: usize,
        rng: &mut TensorRng,
    ) -> f32 {
        let batches = dataset.batches(batch_size, rng);
        let mut sum = 0.0f32;
        let mut n = 0usize;
        for batch in &batches {
            let out = self.train_step(batch);
            sum += out.loss * batch.len() as f32;
            n += batch.len();
        }
        sum / n.max(1) as f32
    }

    /// Forward-only evaluation: `(mean loss, accuracy)`. Stateless — each
    /// example's tape is dropped, nothing on the trainer or model changes.
    pub fn evaluate(&self, dataset: &SyntheticMrpc) -> (f32, f32) {
        let mut loss_sum = 0.0f32;
        let mut correct = 0usize;
        let mut report = AbftReport::default();
        for ex in &dataset.examples {
            let (logits, _) =
                self.model
                    .forward(&ex.tokens, SectionToggles::none(), None, &mut report);
            let (loss, _) = cross_entropy(&logits, ex.label, &OpGuard::off());
            loss_sum += loss;
            if argmax(logits.row(0)) == ex.label {
                correct += 1;
            }
        }
        (
            loss_sum / dataset.len() as f32,
            correct as f32 / dataset.len() as f32,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use attn_fault::FaultKind;
    use attnchecker::attention::AttnOp;
    use attnchecker::config::ProtectionConfig;

    fn tiny_trainer(protection: ProtectionConfig) -> (Trainer, SyntheticMrpc, TensorRng) {
        let mut rng = TensorRng::seed_from(21);
        let mut cfg = ModelConfig::bert_small();
        cfg.hidden = 16;
        cfg.heads = 2;
        cfg.layers = 2;
        let model = TransformerModel::new(cfg, protection, &mut rng);
        let ds = SyntheticMrpc::generate(16, 256, 16, 3);
        (Trainer::new(model, 1e-3), ds, rng)
    }

    #[test]
    fn clean_step_is_trainable() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::off());
        let batch: Vec<&Example> = ds.examples.iter().take(4).collect();
        let out = tr.train_step(&batch);
        assert!(!out.non_trainable);
        assert!(out.loss.is_finite());
        assert!(out.report.is_quiet());
    }

    #[test]
    fn loss_decreases_over_training() {
        let (mut tr, ds, mut rng) = tiny_trainer(ProtectionConfig::off());
        let first = tr.train_epoch(&ds, 4, &mut rng);
        for _ in 0..4 {
            let _ = tr.train_epoch(&ds, 4, &mut rng);
        }
        let last = tr.train_epoch(&ds, 4, &mut rng);
        assert!(
            last < first,
            "training must reduce loss: first {first}, last {last}"
        );
    }

    fn q_nan(layer: usize) -> InjectionSpec {
        InjectionSpec {
            layer,
            op: AttnOp::Q,
            head: 0,
            row: 2,
            col: 3,
            kind: FaultKind::NaN,
        }
    }

    #[test]
    fn unprotected_nan_injection_is_non_trainable() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::off());
        let batch: Vec<&Example> = ds.examples.iter().take(4).collect();
        let out = tr.train_step_injected(&batch, Some((1, q_nan(0))));
        assert!(out.non_trainable, "NaN in Q must break training");
    }

    #[test]
    #[should_panic(expected = "injection targets item 4 of a batch of 4")]
    fn injection_past_the_batch_panics() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::off());
        let batch: Vec<&Example> = ds.examples.iter().take(4).collect();
        tr.train_step_injected(&batch, Some((4, q_nan(0))));
    }

    #[test]
    #[should_panic(expected = "injection targets layer 2 of a model with 2 blocks")]
    fn injection_past_the_blocks_panics() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::off());
        let batch: Vec<&Example> = ds.examples.iter().take(4).collect();
        tr.train_step_injected(&batch, Some((1, q_nan(2))));
    }

    #[test]
    fn protected_nan_injection_stays_trainable() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::full());
        let batch: Vec<&Example> = ds.examples.iter().take(4).collect();
        let spec = InjectionSpec {
            layer: 1,
            op: AttnOp::K,
            head: 0,
            row: 1,
            col: 7,
            kind: FaultKind::NaN,
        };
        let out = tr.train_step_injected(&batch, Some((2, spec)));
        assert!(!out.non_trainable, "ATTNChecker must absorb the fault");
        assert!(out.report.correction_count() > 0);
        assert_eq!(out.report.unrecovered, 0);
    }

    #[test]
    fn region_faults_at_a_gemm_site_are_planted_and_detected() {
        for kind in [FaultKind::StuckRow, FaultKind::Burst { len: 3 }] {
            let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::full());
            let batch: Vec<&Example> = ds.examples.iter().take(4).collect();
            let spec = InjectionSpec {
                layer: 0,
                op: AttnOp::Q,
                head: 0,
                row: 2,
                col: 3,
                kind,
            };
            let out = tr.train_step_injected(&batch, Some((1, spec)));
            assert!(out.report.detections > 0, "{kind}: nothing detected");
        }
    }

    #[test]
    fn protected_and_unprotected_losses_match_when_clean() {
        let (mut a, ds, _) = tiny_trainer(ProtectionConfig::full());
        let (mut b, _, _) = tiny_trainer(ProtectionConfig::off());
        let batch: Vec<&Example> = ds.examples.iter().take(4).collect();
        let oa = a.train_step(&batch);
        let ob = b.train_step(&batch);
        assert!(
            (oa.loss - ob.loss).abs() < 1e-4,
            "protection must not change fault-free training: {} vs {}",
            oa.loss,
            ob.loss
        );
    }

    #[test]
    fn frequency_half_checks_every_other_step() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::with_frequencies(0.5, 0.5, 0.5));
        let batch: Vec<&Example> = ds.examples.iter().take(2).collect();
        let o1 = tr.train_step(&batch);
        let o2 = tr.train_step(&batch);
        let checked: Vec<usize> = vec![o1.report.sections_checked, o2.report.sections_checked];
        // One step checks all sections, the other none (2 layers × 3
        // sections × batch 2 = 12 section executions when on).
        assert!(checked.contains(&0), "{checked:?}");
        assert!(checked.iter().any(|&c| c > 0), "{checked:?}");
    }

    #[test]
    fn evaluate_reports_loss_and_accuracy() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::off());
        let params = |tr: &mut Trainer| {
            let mut v = Vec::new();
            tr.model.visit_params(&mut |p| v.push(p.clone()));
            v
        };
        let before = params(&mut tr);
        let (loss, acc) = tr.evaluate(&ds);
        assert!(loss.is_finite() && loss > 0.0);
        assert!((0.0..=1.0).contains(&acc));
        // Stateless: a second pass reads the same bits and nothing moved.
        let (loss2, acc2) = tr.evaluate(&ds);
        assert_eq!(
            (loss.to_bits(), acc.to_bits()),
            (loss2.to_bits(), acc2.to_bits())
        );
        assert_eq!(before, params(&mut tr));
    }

    #[test]
    fn zero_layer_model_trains_under_its_own_protection() {
        // No block to borrow a config from: the model-level guards
        // (embedding, outer LayerNorm, loss, optimizer) must still run.
        let mut rng = TensorRng::seed_from(22);
        let mut cfg = ModelConfig::bert_small();
        cfg.hidden = 16;
        cfg.heads = 2;
        cfg.layers = 0;
        let model = TransformerModel::new(cfg, ProtectionConfig::full(), &mut rng);
        let ds = SyntheticMrpc::generate(4, 256, 16, 3);
        let mut tr = Trainer::new(model, 1e-3);
        assert!(!tr.model.protection().is_off());
        let batch: Vec<&Example> = ds.examples.iter().collect();
        let out = tr.train_step(&batch);
        assert!(!out.non_trainable);
        assert!(out.report.op_checks > 0, "guards ran off on a full() model");
    }

    /// `[op_checks, op_detections, sections_checked, sections_skipped,
    /// detections]` of a report.
    fn counters(r: &AbftReport) -> [usize; 5] {
        [
            r.op_checks,
            r.op_detections,
            r.sections_checked,
            r.sections_skipped,
            r.detections,
        ]
    }

    #[test]
    fn step_report_folds_every_guard_exactly_once() {
        // Exact counters of two seeded `full()` steps at batch 2: a guard
        // scope folded twice, or not at all, moves them.
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::full());
        let batch: Vec<&Example> = ds.examples.iter().take(2).collect();
        let mut moment_rows = 0;
        tr.model
            .visit_params(&mut |p| moment_rows += 2 * p.value.rows());
        // The first step only captures the moment digests; later steps
        // screen every moment row once.
        for (step, screens, pin) in [
            (0, 0, [994, 0, 16, 0, 0]),
            (1, moment_rows, [2258, 0, 16, 0, 0]),
        ] {
            let out = tr.train_step(&batch);
            assert_eq!(counters(&out.report), pin, "step {step}");
            let mut merged = AbftReport::default();
            for item in &out.item_reports {
                merged.merge(item);
            }
            merged.op_checks += screens;
            assert_eq!(out.report, merged, "step {step}");
        }
    }

    /// Every parameter value and both moments of every parameter, as bits.
    fn state_bits(tr: &mut Trainer) -> Vec<u32> {
        let mut bits = Vec::new();
        tr.model
            .visit_params(&mut |p| bits.extend(p.value.data().iter().map(|x| x.to_bits())));
        for slot in tr.optim.slots() {
            for m in [&slot.m, &slot.v] {
                bits.extend(m.data().iter().map(|x| x.to_bits()));
            }
        }
        bits
    }

    #[test]
    fn guarded_step_after_an_unguarded_one_captures_afresh() {
        // full → off → full: the unguarded step moves the moments past the
        // digests the first step captured. The third step must capture
        // anew, not "heal" the moments back toward those digests.
        let build = || {
            let mut rng = TensorRng::seed_from(21);
            let mut cfg = ModelConfig::bert_small();
            cfg.hidden = 16;
            cfg.heads = 2;
            cfg.layers = 1;
            let model = TransformerModel::new(cfg, ProtectionConfig::off(), &mut rng);
            Trainer::new(model, 1e-3)
        };
        let ds = SyntheticMrpc::generate(16, 256, 16, 3);
        let batch: Vec<&Example> = ds.examples.iter().take(4).collect();
        let (mut toggled, mut twin) = (build(), build());
        let (full, off) = (ProtectionConfig::full(), ProtectionConfig::off());
        for (step, protection) in [full, off, full].into_iter().enumerate() {
            toggled.set_protection(protection);
            let r = toggled.train_step(&batch).report;
            twin.train_step(&batch);
            assert_eq!(
                (r.op_detections, r.detections, r.unrecovered),
                (0, 0, 0),
                "step {step}: {r}"
            );
        }
        assert!(
            state_bits(&mut toggled) == state_bits(&mut twin),
            "values and moments must equal the always-off twin bit for bit"
        );
    }

    #[test]
    fn timers_are_populated() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::full());
        let batch: Vec<&Example> = ds.examples.iter().take(2).collect();
        let out = tr.train_step(&batch);
        assert_eq!(out.workers, 1);
        assert!(out.step_time > Duration::ZERO);
        assert!(out.attention_time > Duration::ZERO);
        assert!(out.ffn_time > Duration::ZERO);
        // Sequential mode: busy time is wall time, so it fits in the step.
        assert!(out.attention_time + out.ffn_time <= out.step_time);
    }

    #[test]
    fn timers_are_populated_in_parallel_mode() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::full());
        tr.set_parallelism(4);
        let batch: Vec<&Example> = ds.examples.iter().take(8).collect();
        let out = tr.train_step(&batch);
        assert_eq!(out.workers, 4);
        assert!(out.step_time > Duration::ZERO);
        assert!(out.attention_time > Duration::ZERO);
        assert!(out.ffn_time > Duration::ZERO);
        // Parallel mode: per-item busy times overlap, so their sum may
        // exceed the wall step time but never step_time × workers (each
        // worker's busy window fits inside the step).
        assert!(out.attention_time + out.ffn_time <= out.step_time * out.workers as u32);
    }

    #[test]
    fn steady_state_step_is_gemm_allocation_free() {
        // The acceptance property of the workspace arena: after the warm-up
        // step fills the thread-local arena, a training step performs no
        // heap allocation inside GEMM or checksum encoding — every packing
        // panel and checksum staging buffer is an arena hit.
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::full());
        let batch: Vec<&Example> = ds.examples.iter().take(4).collect();
        let _ = tr.train_step(&batch); // warm the arena
        for step in 0..3 {
            let out = tr.train_step(&batch);
            assert_eq!(
                out.ws_allocs, 0,
                "steady-state step {step} allocated GEMM/encode workspace"
            );
        }
    }

    #[test]
    fn parallelism_knob_clamps_to_one() {
        let (mut tr, _, _) = tiny_trainer(ProtectionConfig::off());
        assert_eq!(tr.parallelism(), 1);
        tr.set_parallelism(0);
        assert_eq!(tr.parallelism(), 1);
        tr.set_parallelism(3);
        assert_eq!(tr.parallelism(), 3);
    }

    #[test]
    fn parallel_step_is_bit_identical_to_sequential() {
        let (mut seq, ds, _) = tiny_trainer(ProtectionConfig::full());
        let (mut par, _, _) = tiny_trainer(ProtectionConfig::full());
        par.set_parallelism(4);
        let batch: Vec<&Example> = ds.examples.iter().take(8).collect();
        for step in 0..3 {
            let a = seq.train_step(&batch);
            let b = par.train_step(&batch);
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "step {step}: loss bits diverged"
            );
            assert_eq!(a.report, b.report, "step {step}: reports diverged");
        }
        let mut pa = Vec::new();
        seq.model.visit_params(&mut |p| pa.push(p.value.clone()));
        let mut pb = Vec::new();
        par.model.visit_params(&mut |p| pb.push(p.value.clone()));
        for (a, b) in pa.iter().zip(&pb) {
            let bits_equal = a
                .data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(bits_equal, "parameter bits diverged between schedules");
        }
    }

    #[test]
    fn injected_fault_report_is_localised_to_its_item() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::full());
        tr.set_parallelism(4);
        let batch: Vec<&Example> = ds.examples.iter().take(4).collect();
        let spec = InjectionSpec {
            layer: 0,
            op: AttnOp::K,
            head: 1,
            row: 2,
            col: 5,
            kind: FaultKind::Inf,
        };
        let out = tr.train_step_injected(&batch, Some((2, spec)));
        assert_eq!(out.item_reports.len(), 4);
        assert!(out.item_reports[2].correction_count() > 0);
        for (i, r) in out.item_reports.iter().enumerate() {
            if i != 2 {
                assert!(r.is_quiet(), "bystander item {i} reported activity: {r}");
            }
        }
        assert_eq!(
            out.report.correction_count(),
            out.item_reports[2].correction_count()
        );
    }

    #[test]
    fn train_epoch_weights_by_example_count() {
        // Batch size 5 over 16 examples → 5+5+5+1: the 1-example tail must
        // carry 1/16 of the epoch mean, not 1/4.
        let (mut a, ds, mut rng) = tiny_trainer(ProtectionConfig::off());
        let (mut b, _, _) = tiny_trainer(ProtectionConfig::off());
        let mut rng_twin = rng.clone();
        let epoch = a.train_epoch(&ds, 5, &mut rng);
        let mut sum = 0.0f32;
        let mut n = 0usize;
        for batch in &ds.batches(5, &mut rng_twin) {
            let out = b.train_step(batch);
            sum += out.loss * batch.len() as f32;
            n += batch.len();
        }
        assert_eq!(n, ds.len());
        assert_eq!(epoch.to_bits(), (sum / n as f32).to_bits());
    }

    #[test]
    fn evaluate_handles_more_than_two_classes() {
        let mut rng = TensorRng::seed_from(23);
        let mut cfg = ModelConfig::bert_small();
        cfg.hidden = 16;
        cfg.heads = 2;
        cfg.layers = 1;
        cfg.num_classes = 4;
        let model = TransformerModel::new(cfg, ProtectionConfig::off(), &mut rng);
        let tr = Trainer::new(model, 1e-3);
        let ds = SyntheticMrpc::generate(8, 256, 16, 5);
        let (loss, acc) = tr.evaluate(&ds);
        assert!(loss.is_finite() && loss > 0.0);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn ffn_injection_protected_training_stays_trainable() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::full());
        let batch: Vec<&Example> = ds.examples.iter().take(4).collect();
        let spec = InjectionSpec {
            layer: 1,
            op: AttnOp::Ffn2,
            head: 0,
            row: 4,
            col: 11,
            kind: FaultKind::Inf,
        };
        let out = tr.train_step_injected(&batch, Some((1, spec)));
        assert!(!out.non_trainable, "FFN protection must absorb the fault");
        assert!(out.report.correction_count() > 0);
        assert_eq!(out.report.unrecovered, 0);
    }

    #[test]
    fn set_protection_updates_model_and_policy_together() {
        let (mut tr, ds, _) = tiny_trainer(ProtectionConfig::full());
        let batch: Vec<&Example> = ds.examples.iter().take(2).collect();
        tr.set_protection(ProtectionConfig::off());
        assert!(tr.model.protection().is_off());
        assert_eq!(tr.train_step(&batch).report.sections_checked, 0);
        // A direct model mutation (bypassing Trainer::set_protection) paces
        // the very next step: the gates read the model's config, there is
        // no copy to fall out of sync.
        tr.model.set_protection(ProtectionConfig::full());
        assert!(!tr.model.protection().is_off());
        assert!(tr.train_step(&batch).report.sections_checked > 0);
    }
}
