//! On-disk checkpointing and restore-and-replay recovery.

use crate::snapshot::{read_snapshot, write_snapshot, SnapshotError};
use attn_model::data::Example;
use attn_model::trainer::{StepOutcome, Trainer};
use std::fs;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Phase timings of one checkpoint/restore recovery (the Fig 11 cost
/// decomposition).
#[derive(Debug, Clone)]
pub struct RecoveryTiming {
    /// Encode the state straight into the checkpoint file, fsync, commit.
    pub save: Duration,
    /// Validate the checkpoint file, then decode it straight into the
    /// trainer.
    pub load: Duration,
    /// Re-execute the lost training step.
    pub replay: Duration,
    /// Checkpoint size in bytes.
    pub bytes: usize,
}

impl RecoveryTiming {
    /// Total recovery wall time.
    pub fn total(&self) -> Duration {
        self.save + self.load + self.replay
    }
}

/// Writes and restores training-state checkpoints in a directory.
pub struct CheckpointManager {
    dir: PathBuf,
    counter: u64,
    last: Option<PathBuf>,
}

impl CheckpointManager {
    /// Create (and if needed, mkdir) a manager rooted at `dir`.
    ///
    /// Rescans `dir` for existing `ckpt-*.atnc` files so a restarted
    /// process *resumes* the checkpoint sequence — `counter` continues
    /// after the highest index on disk and `last_checkpoint` points at it —
    /// instead of silently overwriting `ckpt-000000.atnc`. Leftover
    /// `*.atnc.tmp` files (a crash mid-[`Self::save`]) are removed: the
    /// rename in `save` is the commit point, so a `.tmp` is by definition
    /// a torn write.
    pub fn new(dir: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        let dir = dir.as_ref().to_path_buf();
        let mut newest: Option<(u64, PathBuf)> = None;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".atnc.tmp") {
                let _ = fs::remove_file(&path);
                continue;
            }
            if let Some(idx) = parse_checkpoint_index(name) {
                if newest.as_ref().is_none_or(|(best, _)| idx > *best) {
                    newest = Some((idx, path));
                }
            }
        }
        let (counter, last) = match newest {
            Some((idx, path)) => (idx + 1, Some(path)),
            None => (0, None),
        };
        Ok(Self { dir, counter, last })
    }

    /// Path of the most recent checkpoint, if any.
    pub fn last_checkpoint(&self) -> Option<&Path> {
        self.last.as_deref()
    }

    /// Serialise the trainer state to a new checkpoint file; returns
    /// `(path, bytes written, elapsed)`.
    ///
    /// The state is encoded into the file through a `BufWriter`, never
    /// whole in memory. The write is atomic: data goes to
    /// `ckpt-*.atnc.tmp`, is flushed (`into_inner`, so a failed flush is an
    /// error rather than lost in a drop) and fsynced, and only then renamed
    /// to the final name (followed by a directory fsync so the rename
    /// itself is durable). A crash at any point leaves either the complete
    /// previous state or a leftover `.tmp` that [`Self::new`] discards on
    /// restart — never a torn `.atnc` a restore would load as corrupt model
    /// state.
    pub fn save(&mut self, trainer: &mut Trainer) -> io::Result<(PathBuf, usize, Duration)> {
        let t0 = Instant::now();
        let path = self.dir.join(format!("ckpt-{:06}.atnc", self.counter));
        let tmp = self.dir.join(format!("ckpt-{:06}.atnc.tmp", self.counter));
        self.counter += 1;
        let mut w = BufWriter::new(fs::File::create(&tmp)?);
        let bytes = write_snapshot(&mut trainer.model, &trainer.optim, &mut w)?;
        w.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        fs::rename(&tmp, &path)?;
        // Persist the rename: fsync the directory entry (best-effort on
        // platforms where directories cannot be opened for sync).
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.last = Some(path.clone());
        Ok((path, bytes as usize, t0.elapsed()))
    }

    /// Restore trainer state from the most recent checkpoint — params,
    /// moments and the step counter, with the optimizer's at-rest moment
    /// digests re-captured from the restored moments; returns elapsed time.
    /// The trainer may be a fresh one that has never stepped. The file is
    /// decoded in place by [`read_snapshot`]: one pass validates it, a
    /// second writes it into the trainer.
    ///
    /// # Errors
    /// Fails with [`io::ErrorKind::NotFound`] when no checkpoint exists and
    /// with [`io::ErrorKind::InvalidData`] when the file is invalid; neither
    /// touches the trainer. Any other error is the file failing to read,
    /// which can happen after the restore began to write: the trainer is
    /// then partly restored, and must be restored again before it trains.
    pub fn load_last(&self, trainer: &mut Trainer) -> io::Result<Duration> {
        let path = self
            .last
            .as_ref()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no checkpoint saved"))?;
        let t0 = Instant::now();
        let mut file = fs::File::open(path)?;
        read_snapshot(&mut trainer.model, &mut trainer.optim, &mut file).map_err(|e| match e {
            SnapshotError::Io(kind) => io::Error::new(kind, e),
            e => io::Error::new(io::ErrorKind::InvalidData, e),
        })?;
        Ok(t0.elapsed())
    }

    /// The paper's CR recovery path: assume `trainer` just hit a
    /// non-trainable state on `batch`. Measure save (of the pre-step state
    /// — the paper assumes checkpointing every step), load, and replay.
    ///
    /// The trainer must be in the *pre-step* state when called (the caller
    /// restores or re-creates it); this method then performs
    /// save → load → replay and returns the timings plus the replayed
    /// step's outcome.
    pub fn recover_and_replay(
        &mut self,
        trainer: &mut Trainer,
        batch: &[&Example],
    ) -> io::Result<(RecoveryTiming, StepOutcome)> {
        let (_, bytes, save) = self.save(trainer)?;
        let load = self.load_last(trainer)?;
        let t0 = Instant::now();
        let outcome = trainer.train_step(batch);
        let replay = t0.elapsed();
        Ok((
            RecoveryTiming {
                save,
                load,
                replay,
                bytes,
            },
            outcome,
        ))
    }
}

/// Parse the index out of a `ckpt-NNNNNN.atnc` file name; `None` for
/// anything else (including `.tmp` leftovers).
fn parse_checkpoint_index(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".atnc")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_model::model::{ModelConfig, TransformerModel};
    use attn_model::param::HasParams;
    use attn_model::SyntheticMrpc;
    use attn_tensor::rng::TensorRng;
    use attnchecker::config::ProtectionConfig;

    fn tiny_trainer() -> (Trainer, SyntheticMrpc) {
        trainer_with(ProtectionConfig::off())
    }

    fn trainer_with(protection: ProtectionConfig) -> (Trainer, SyntheticMrpc) {
        let mut rng = TensorRng::seed_from(5);
        let mut cfg = ModelConfig::bert_small();
        cfg.hidden = 16;
        cfg.heads = 2;
        cfg.layers = 1;
        let model = TransformerModel::new(cfg, protection, &mut rng);
        let ds = SyntheticMrpc::generate(8, 256, 16, 2);
        (Trainer::new(model, 1e-3), ds)
    }

    /// Every parameter's value, first and second moment, as bits.
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

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("attn-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_load_roundtrip_restores_training_state() {
        let (mut tr, ds) = tiny_trainer();
        let dir = tmp_dir("roundtrip");
        let mut mgr = CheckpointManager::new(&dir).unwrap();

        let batch: Vec<_> = ds.examples.iter().take(4).collect();
        let _ = tr.train_step(&batch);
        let (_, bytes, _) = mgr.save(&mut tr).unwrap();
        assert!(bytes > 0);

        // Capture a reference param value, then train further.
        let mut before = None;
        tr.model.visit_params(&mut |p| {
            if p.name == "classifier.w" {
                before = Some(p.value.clone());
            }
        });
        let _ = tr.train_step(&batch);
        let _ = tr.train_step(&batch);

        mgr.load_last(&mut tr).unwrap();
        let mut after = None;
        tr.model.visit_params(&mut |p| {
            if p.name == "classifier.w" {
                after = Some(p.value.clone());
            }
        });
        assert_eq!(before.unwrap(), after.unwrap());
        assert_eq!(tr.optim.t, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_replay_reaches_same_state_as_clean_step() {
        let (mut tr_a, ds) = tiny_trainer();
        let (mut tr_b, _) = tiny_trainer(); // identical init (same seed)
        let batch: Vec<_> = ds.examples.iter().take(4).collect();

        // A: clean step.
        let out_a = tr_a.train_step(&batch);

        // B: recovery path (save pre-step, load, replay the step).
        let dir = tmp_dir("replay");
        let mut mgr = CheckpointManager::new(&dir).unwrap();
        let (timing, out_b) = mgr.recover_and_replay(&mut tr_b, &batch).unwrap();
        assert!((out_a.loss - out_b.loss).abs() < 1e-5);
        assert!(timing.save > Duration::ZERO);
        assert!(timing.load > Duration::ZERO);
        assert!(timing.total() >= timing.replay);

        // Parameters must match exactly between both paths.
        let mut va = Vec::new();
        tr_a.model.visit_params(&mut |p| va.push(p.value.clone()));
        let mut vb = Vec::new();
        tr_b.model.visit_params(&mut |p| vb.push(p.value.clone()));
        assert_eq!(va.len(), vb.len());
        for (a, b) in va.iter().zip(&vb) {
            assert!(a.approx_eq(b, 1e-6, 1e-6));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_into_a_protected_trainer_recaptures_moment_digests() {
        // step → save → step on another batch → load → step lands exactly
        // where a trainer that never took the detour lands, and the moment
        // guard stays quiet: the restored moments are the state, not a fault.
        let (mut detour, ds) = trainer_with(ProtectionConfig::full());
        let (mut straight, _) = trainer_with(ProtectionConfig::full());
        let first: Vec<_> = ds.examples.iter().take(4).collect();
        let other: Vec<_> = ds.examples.iter().skip(4).collect();
        let dir = tmp_dir("recapture");
        let mut mgr = CheckpointManager::new(&dir).unwrap();

        let _ = detour.train_step(&first);
        mgr.save(&mut detour).unwrap();
        let _ = detour.train_step(&other);
        mgr.load_last(&mut detour).unwrap();
        let out = detour.train_step(&first);

        let _ = straight.train_step(&first);
        let want = straight.train_step(&first);
        assert!(out.report.is_quiet(), "{}", out.report);
        assert_eq!(out.loss.to_bits(), want.loss.to_bits());
        assert!(
            state_bits(&mut detour) == state_bits(&mut straight),
            "params and moments must match the no-detour trainer bit for bit"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_into_a_fresh_trainer_steps_like_the_saving_trainer() {
        // The restart case: a trainer built anew, which has never stepped
        // and holds no optimizer state, loads the checkpoint; its next step
        // must equal the saving trainer's next step bit for bit.
        for protection in [ProtectionConfig::full(), ProtectionConfig::off()] {
            let (mut saver, ds) = trainer_with(protection);
            let (mut restarted, _) = trainer_with(protection);
            let first: Vec<_> = ds.examples.iter().take(4).collect();
            let next: Vec<_> = ds.examples.iter().skip(4).collect();
            let tag = if protection.is_off() {
                "fresh-off"
            } else {
                "fresh-full"
            };
            let dir = tmp_dir(tag);
            let mut mgr = CheckpointManager::new(&dir).unwrap();

            let _ = saver.train_step(&first);
            mgr.save(&mut saver).unwrap();
            assert!(restarted.optim.slots().is_empty());
            mgr.load_last(&mut restarted).unwrap();
            assert_eq!(restarted.optim.t, 1);

            let want = saver.train_step(&next);
            let got = restarted.train_step(&next);
            assert_eq!(got.loss.to_bits(), want.loss.to_bits());
            assert!(got.report.op_detections == 0 && got.report.unrecovered == 0);
            assert!(
                state_bits(&mut restarted) == state_bits(&mut saver),
                "off() = {}: params and moments must match the saving trainer",
                protection.is_off()
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_truncated_checkpoint_file_leaves_the_trainer_untouched() {
        let (mut tr, ds) = trainer_with(ProtectionConfig::full());
        let dir = tmp_dir("truncated");
        let mut mgr = CheckpointManager::new(&dir).unwrap();
        let batch: Vec<_> = ds.examples.iter().take(4).collect();
        let _ = tr.train_step(&batch);
        let (path, bytes, _) = mgr.save(&mut tr).unwrap();
        let _ = tr.train_step(&batch);
        let before = (state_bits(&mut tr), tr.optim.t);

        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(bytes as u64 - 7).unwrap();
        let err = mgr.load_last(&mut tr).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            (state_bits(&mut tr), tr.optim.t) == before,
            "a failed load must leave params, moments and step counter as they were"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_without_save_errors() {
        let (mut tr, _) = tiny_trainer();
        let dir = tmp_dir("nosave");
        let mgr = CheckpointManager::new(&dir).unwrap();
        assert!(mgr.load_last(&mut tr).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_resumes_counter_and_last_checkpoint() {
        let (mut tr, ds) = tiny_trainer();
        let dir = tmp_dir("restart");
        let batch: Vec<_> = ds.examples.iter().take(2).collect();

        let first_path;
        {
            let mut mgr = CheckpointManager::new(&dir).unwrap();
            let _ = tr.train_step(&batch);
            let (p0, _, _) = mgr.save(&mut tr).unwrap();
            first_path = p0;
            let _ = tr.train_step(&batch);
            let (p1, _, _) = mgr.save(&mut tr).unwrap();
            assert_eq!(mgr.last_checkpoint(), Some(p1.as_path()));
        } // "process exit"

        // A fresh manager over the same directory resumes the sequence.
        let mut mgr = CheckpointManager::new(&dir).unwrap();
        let resumed = mgr.last_checkpoint().expect("rescan finds checkpoints");
        assert!(resumed.to_string_lossy().ends_with("ckpt-000001.atnc"));

        // The pre-restart state is loadable, and the next save does not
        // overwrite any existing checkpoint.
        mgr.load_last(&mut tr).unwrap();
        assert_eq!(tr.optim.t, 2);
        let (p2, _, _) = mgr.save(&mut tr).unwrap();
        assert!(p2.to_string_lossy().ends_with("ckpt-000002.atnc"));
        assert!(first_path.exists(), "restart must not clobber ckpt-000000");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_discarded_on_restart() {
        let (mut tr, ds) = tiny_trainer();
        let dir = tmp_dir("staletmp");
        let batch: Vec<_> = ds.examples.iter().take(2).collect();
        {
            let mut mgr = CheckpointManager::new(&dir).unwrap();
            let _ = tr.train_step(&batch);
            let _ = mgr.save(&mut tr).unwrap();
        }
        // Simulate a crash mid-save: a torn temp file next to a good one.
        let torn = dir.join("ckpt-000001.atnc.tmp");
        fs::write(&torn, b"partial garbage").unwrap();

        let mgr = CheckpointManager::new(&dir).unwrap();
        assert!(!torn.exists(), "torn .tmp must be discarded");
        // The torn write is not the resume point; the good checkpoint is.
        let last = mgr.last_checkpoint().unwrap().to_string_lossy().to_string();
        assert!(last.ends_with("ckpt-000000.atnc"), "{last}");
        mgr.load_last(&mut tr).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_leaves_no_tmp_behind() {
        let (mut tr, ds) = tiny_trainer();
        let dir = tmp_dir("notmp");
        let batch: Vec<_> = ds.examples.iter().take(2).collect();
        let mut mgr = CheckpointManager::new(&dir).unwrap();
        let _ = tr.train_step(&batch);
        let (path, _, _) = mgr.save(&mut tr).unwrap();
        assert!(path.exists());
        let tmps: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(tmps.is_empty(), "save must rename its temp file away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_checkpoint_index_accepts_only_real_checkpoints() {
        assert_eq!(parse_checkpoint_index("ckpt-000000.atnc"), Some(0));
        assert_eq!(parse_checkpoint_index("ckpt-000123.atnc"), Some(123));
        assert_eq!(parse_checkpoint_index("ckpt-000001.atnc.tmp"), None);
        assert_eq!(parse_checkpoint_index("ckpt-.atnc"), None);
        assert_eq!(parse_checkpoint_index("ckpt-12a4.atnc"), None);
        assert_eq!(parse_checkpoint_index("other.atnc"), None);
    }
}
