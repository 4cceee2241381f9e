//! Output checks. A run whose outputs are wrong reports `correct: false`
//! and exits non-zero, whatever its timings were.

use crate::stack::{admission_policy, analysis_config, StandbyState, TmpDir};
use hsched_analysis::analyze_with;
use hsched_engine::SchedService;
use hsched_transaction::TransactionSet;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Collects failed checks; an empty list means the outputs are correct.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What a crash right after some acknowledgement would have left on
/// disk: the journal cut at the durable byte offset, plus a torn record.
#[derive(Debug)]
pub struct Probe {
    copy: PathBuf,
    /// Highest epoch a client had seen acknowledged before the cut.
    acked_epoch: u64,
    /// The `(bytes, epoch)` pair `durable_journal()` reported.
    durable_epoch: u64,
}

/// What a torn final record looks like: a header that promises one
/// request and half of that request's line.
const TORN_TAIL: &str = "epoch 4000000000 1\nadd torn period 6";

/// Takes the probe *while the load runs*. It does not trust the OS
/// cache: only the first `durable_journal().0` bytes are kept — whatever
/// was written but not yet flushed is discarded, as a power loss would.
pub fn take_probe(
    engine: &SchedService,
    journal: &Path,
    acked: &AtomicU64,
    dir: &TmpDir,
) -> Option<Probe> {
    let acked_epoch = acked.load(Ordering::SeqCst);
    let (bytes, durable_epoch) = engine.durable_journal()?;
    let mut prefix = Vec::with_capacity(bytes as usize);
    std::fs::File::open(journal)
        .ok()?
        .take(bytes)
        .read_to_end(&mut prefix)
        .ok()?;
    if prefix.len() as u64 != bytes {
        return None;
    }
    let copy = dir.file("crash");
    let mut out = std::fs::File::create(&copy).ok()?;
    out.write_all(&prefix).ok()?;
    out.write_all(TORN_TAIL.as_bytes()).ok()?;
    Some(Probe {
        copy,
        acked_epoch,
        durable_epoch,
    })
}

/// Recovers from the probe's copy: the torn tail must be repaired away
/// and every epoch acknowledged before the cut must be there.
pub fn verify_probe(checks: &mut Checks, probe: Option<Probe>, set: &TransactionSet) {
    let Some(probe) = probe else {
        checks
            .failures
            .push("durability probe could not copy the journal prefix".to_string());
        return;
    };
    match SchedService::replay(
        set.clone(),
        analysis_config(),
        admission_policy(),
        &probe.copy,
    ) {
        Ok((recovered, stats)) => {
            let epoch = recovered.epoch();
            checks.require(epoch >= probe.acked_epoch, || {
                format!(
                    "durability: epoch {} was acknowledged but the flushed prefix recovers only to {epoch}",
                    probe.acked_epoch
                )
            });
            checks.require(epoch == probe.durable_epoch, || {
                format!(
                    "durability: durable_journal() promised epoch {} in its prefix, recovery found {epoch}",
                    probe.durable_epoch
                )
            });
            checks.require(stats.repaired_bytes == TORN_TAIL.len() as u64, || {
                format!(
                    "durability: recovery repaired {} bytes, the torn tail has {}",
                    stats.repaired_bytes,
                    TORN_TAIL.len()
                )
            });
        }
        Err(e) => checks.failures.push(format!(
            "durability: the flushed prefix does not recover: {e}"
        )),
    }
}

/// Final-state checks of a stopped stack. Returns the journal replay's
/// wall time (digest verification included) and the epochs it restored.
pub fn verify_final_state(
    checks: &mut Checks,
    engine: &SchedService,
    journal: Option<&Path>,
    standby: Option<&StandbyState>,
    set: &TransactionSet,
    submitted: u64,
    from_scratch: bool,
) -> Option<(Duration, u64)> {
    let epoch = engine.epoch();
    let digest = engine.state_digest();
    checks.require(epoch == submitted, || {
        format!("{submitted} operations were issued but the engine settled {epoch} epochs")
    });
    checks.require(engine.durable_epoch() == submitted, || {
        format!(
            "{submitted} operations were issued but only epoch {} is durable",
            engine.durable_epoch()
        )
    });
    if let Some(standby) = standby {
        checks.require(standby.error.is_none(), || {
            format!(
                "standby gave up: {}",
                standby.error.as_deref().unwrap_or_default()
            )
        });
        checks.require(
            standby.epoch == epoch && standby.digest.as_deref() == Some(digest.as_str()),
            || {
                format!(
                    "standby at epoch {} digest {:?}, primary at epoch {epoch} digest {digest}",
                    standby.epoch, standby.digest
                )
            },
        );
    }
    if from_scratch {
        let live = engine.current_set();
        match analyze_with(&live, &analysis_config()) {
            Ok(fresh) => {
                let report = engine.report();
                checks.require(
                    report.tasks == fresh.tasks
                        && report.verdicts == fresh.verdicts
                        && engine.schedulable() == fresh.schedulable(),
                    || "the service's cached report differs from a from-scratch analysis of its live set".to_string(),
                );
            }
            Err(e) => checks
                .failures
                .push(format!("from-scratch analysis of the live set failed: {e}")),
        }
    }
    let journal = journal?;
    let started = Instant::now();
    let replayed =
        SchedService::replay(set.clone(), analysis_config(), admission_policy(), journal);
    let matches = replayed
        .as_ref()
        .is_ok_and(|(r, _)| r.epoch() == epoch && r.state_digest() == digest);
    let elapsed = started.elapsed();
    checks.require(matches, || match &replayed {
        Ok((r, _)) => format!(
            "journal replays to epoch {} digest {}, live engine at epoch {epoch} digest {digest}",
            r.epoch(),
            r.state_digest()
        ),
        Err(e) => format!("journal does not replay: {e}"),
    });
    Some((elapsed, epoch))
}
