//! Checkpoint/resume for long sweeps: one durable store and one
//! resumable engine, shared by `exp_mixes` and `exp_scenarios`.
//!
//! A full-scale sweep is hours of wall clock. [`run_resumable`] persists
//! each completed work item (a [`Checkpoint`]: one mix × four schemes as
//! a [`MixSummary`], or one [`crate::scenarios::ScenarioResult`]) as one
//! JSON file under `<out>/checkpoints/`, and `--resume` skips items whose
//! checkpoint **fingerprint** — the FNV-1a hash of every input that
//! determines the result, e.g. [`sweep_fingerprint`] — matches the
//! current invocation. A checkpoint written under different settings is
//! therefore never replayed into the wrong sweep: it is recomputed.
//!
//! Four properties make resume sound:
//!
//! * **Bit-identical serialization.** [`crate::report::Json`] renders
//!   floats with Rust's shortest-roundtrip `Display` and
//!   [`crate::report::Json::parse`] reads them back bit-for-bit, so a
//!   resumed report is byte-identical to an uninterrupted one.
//! * **Durable, detectable writes.** Checkpoints are stored through
//!   [`untangle_durable::slot::Slot`]: written to a `.tmp` sibling,
//!   fsynced (file *and* parent directory), renamed into place, and
//!   framed with a length + FNV-1a checksum header. A kill mid-write
//!   leaves either the old checkpoint or the new one, never a mix, and
//!   any truncation, bit-rot, or trailing garbage is *detected* —
//!   [`CheckpointStore::load`] returns it as a recoverable
//!   [`UntangleError::Checkpoint`] (the sweep logs a diagnostic and
//!   recomputes the item fresh) instead of a lucky or unlucky parse.
//!   Version and fingerprint mismatches are *not* corruption: a
//!   checkpoint written under different settings loads as `Ok(None)`
//!   and is silently recomputed.
//! * **Shape checks.** A payload must list exactly the sweep's schemes,
//!   in order, with one entry per domain; anything else is corruption,
//!   so a foreign file can neither panic a report nor misattribute it.
//! * **Write-on-completion.** The worker saves an item's checkpoint the
//!   moment the item finishes, so killing the process loses at most the
//!   items currently in flight — at most one per worker.

use std::marker::PhantomData;
use std::path::PathBuf;

use untangle_core::scheme::SchemeKind;
use untangle_core::UntangleError;
use untangle_durable::fnv1a;
use untangle_durable::slot::{Slot, SlotState};
use untangle_info::DinkelbachOptions;
use untangle_obs as obs;
use untangle_sim::stats::{geometric_mean, stable_sum};
use untangle_workloads::mix::Mix;

use crate::experiments::MixEvaluation;
use crate::parallel::{par_map_isolated, ItemFailure, RetryPolicy};
use crate::report::Json;

/// Bumped whenever the checkpoint layout or fingerprint inputs change;
/// part of the fingerprint, so old files are recomputed rather than
/// misread. Version 2 added the solver-configuration digest; version 3
/// moved storage into the checksummed [`Slot`] container (a version-2
/// file has no slot header, so it classifies as corrupt and is
/// recomputed after a diagnostic). Version 4 is shared by every
/// [`Checkpoint`] type (scenario fingerprints also fold in the trace
/// format version); the shared store kept its bytes, and so the version.
pub const FORMAT_VERSION: u32 = 4;

/// Appends the names of `schemes` to `bytes` and renders the FNV-1a
/// hash of the whole as a 16-hex-digit fingerprint.
pub(crate) fn fingerprint_of(mut bytes: Vec<u8>, schemes: &[SchemeKind]) -> String {
    for kind in schemes {
        bytes.extend_from_slice(kind.name().as_bytes());
    }
    format!("{:016x}", fnv1a(&bytes))
}

/// The fingerprint tying a checkpoint to one exact work item: mix id,
/// evaluation scale (exact bits), RNG seed base, the full solver
/// configuration (every [`DinkelbachOptions`] field, float fields as
/// exact bit patterns), scheme list, and format version.
pub fn sweep_fingerprint(
    mix_id: usize,
    scale: f64,
    seed_base: u64,
    options: &DinkelbachOptions,
) -> String {
    let words = [
        u64::from(FORMAT_VERSION),
        mix_id as u64,
        scale.to_bits(),
        seed_base,
        options.tolerance.to_bits(),
        options.max_outer_iterations as u64,
        options.max_inner_iterations as u64,
        options.inner_gap_tolerance.to_bits(),
        options.upper_bound_margin.to_bits(),
        options.max_margin_doublings as u64,
    ];
    fingerprint_of(
        words.iter().flat_map(|w| w.to_le_bytes()).collect(),
        &SchemeKind::ALL,
    )
}

/// Everything `exp_mixes` reports about one scheme's run over a mix,
/// in serializable form (per-domain vectors in chart order).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSummary {
    /// Scheme name (matches [`SchemeKind::name`]).
    pub kind: String,
    /// Per-domain IPC over the measured slice.
    pub ipc: Vec<f64>,
    /// Per-domain total leaked bits.
    pub total_bits: Vec<f64>,
    /// Per-domain assessment counts.
    pub assessments: Vec<u64>,
    /// Per-domain Maintain decision counts.
    pub maintains: Vec<u64>,
    /// Per-domain partition-size quartile labels
    /// `[min, q1, median, q3, max]`; `None` without samples.
    pub quartiles: Vec<Option<[String; 5]>>,
}

/// The distilled, serializable result of one mix under all four schemes
/// — exactly what the `exp_mixes` output (tables, charts, CSV) needs,
/// so a resumed run prints byte-identical artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSummary {
    /// Mix id (1-based).
    pub mix_id: usize,
    /// Per-workload chart labels.
    pub labels: Vec<String>,
    /// Whether each workload's SPEC part is LLC-sensitive.
    pub sensitive: Vec<bool>,
    /// Total LLC demand in MB.
    pub total_demand_mb: f64,
    /// Summaries in [`SchemeKind::ALL`] order.
    pub schemes: Vec<SchemeSummary>,
}

impl MixSummary {
    /// Distills a full [`MixEvaluation`] (which holds entire run
    /// reports) into the checkpointable summary.
    pub fn from_evaluation(eval: &MixEvaluation) -> MixSummary {
        MixSummary {
            mix_id: eval.mix_id,
            labels: eval.labels.clone(),
            sensitive: eval.sensitive.clone(),
            total_demand_mb: eval.total_demand_mb,
            schemes: eval
                .runs
                .iter()
                .map(|run| {
                    let domains = &run.report.domains;
                    SchemeSummary {
                        kind: run.kind.name().to_string(),
                        ipc: domains.iter().map(|d| d.ipc()).collect(),
                        total_bits: domains.iter().map(|d| d.leakage.total_bits).collect(),
                        assessments: domains.iter().map(|d| d.leakage.assessments).collect(),
                        maintains: domains.iter().map(|d| d.leakage.maintains).collect(),
                        quartiles: domains
                            .iter()
                            .map(|d| {
                                d.size_quartiles().map(|(min, q1, med, q3, max)| {
                                    [min, q1, med, q3, max].map(|s| s.to_string())
                                })
                            })
                            .collect(),
                    }
                })
                .collect(),
        }
    }

    /// The summary for one scheme.
    pub fn scheme(&self, kind: SchemeKind) -> &SchemeSummary {
        self.schemes
            .iter()
            .find(|s| s.kind == kind.name())
            .expect("from_evaluation and from_json both yield all four schemes")
    }

    /// Per-domain leakage in bits per assessment under `kind` (same
    /// division and zero-guard as `LeakageReport::bits_per_assessment`,
    /// so resumed numbers match recomputed ones exactly).
    pub fn leakage_per_assessment(&self, kind: SchemeKind) -> Vec<f64> {
        let s = self.scheme(kind);
        s.total_bits
            .iter()
            .zip(&s.assessments)
            .map(|(&bits, &n)| if n == 0 { 0.0 } else { bits / n as f64 })
            .collect()
    }

    /// Per-workload IPC of `kind` normalized to Static.
    pub fn normalized_ipc(&self, kind: SchemeKind) -> Vec<f64> {
        let base = &self.scheme(SchemeKind::Static).ipc;
        self.scheme(kind)
            .ipc
            .iter()
            .zip(base)
            .map(|(&ipc, &b)| if b > 0.0 { ipc / b } else { 0.0 })
            .collect()
    }

    /// Geometric-mean speedup of `kind` over Static.
    pub fn speedup(&self, kind: SchemeKind) -> f64 {
        geometric_mean(&self.normalized_ipc(kind))
    }

    /// Fraction of all Untangle assessments that chose Maintain.
    pub fn maintain_fraction(&self) -> f64 {
        let s = self.scheme(SchemeKind::Untangle);
        let maintains: u64 = s.maintains.iter().sum();
        let total: u64 = s.assessments.iter().sum();
        if total == 0 {
            0.0
        } else {
            maintains as f64 / total as f64
        }
    }

    /// Average per-workload total leakage in bits under `kind`.
    pub fn avg_total_leakage(&self, kind: SchemeKind) -> f64 {
        let bits = &self.scheme(kind).total_bits;
        stable_sum(bits) / bits.len() as f64
    }
}

/// A sweep result that checkpoints as one JSON payload per work item.
pub trait Checkpoint: Sized {
    /// The work item this result is computed from.
    type Item;
    /// The key the payload sits under in the checkpoint file.
    const PAYLOAD_KEY: &'static str;
    /// The id of `item`, which names its checkpoint file.
    fn item_id(item: &Self::Item) -> usize;
    /// The checkpoint file name for item `id`.
    fn file_name(id: usize) -> String;
    /// The id of the item this result belongs to.
    fn id(&self) -> usize;
    /// Serializes to the checkpoint JSON payload.
    fn to_json(&self) -> Json;
    /// Deserializes and shape-checks a checkpoint JSON payload.
    ///
    /// # Errors
    ///
    /// Describes the first missing, mistyped, or misshapen field.
    fn from_json(json: &Json) -> Result<Self, String>;
}

impl Checkpoint for MixSummary {
    type Item = Mix;
    const PAYLOAD_KEY: &'static str = "summary";

    fn item_id(mix: &Mix) -> usize {
        mix.id
    }

    fn file_name(id: usize) -> String {
        format!("mix{id:02}.json")
    }

    fn id(&self) -> usize {
        self.mix_id
    }

    fn to_json(&self) -> Json {
        let strs = |labels: &[String]| arr(labels, |l| Json::Str(l.clone()));
        let nums = |values: &[f64]| arr(values, |&x| Json::Num(x));
        let ints = |values: &[u64]| arr(values, |&x| Json::Int(x as i64));
        Json::obj(vec![
            ("mix_id", Json::Int(self.mix_id as i64)),
            ("labels", strs(&self.labels)),
            ("sensitive", arr(&self.sensitive, |&b| Json::Bool(b))),
            ("total_demand_mb", Json::Num(self.total_demand_mb)),
            (
                "schemes",
                arr(&self.schemes, |s| {
                    Json::obj(vec![
                        ("kind", Json::Str(s.kind.clone())),
                        ("ipc", nums(&s.ipc)),
                        ("total_bits", nums(&s.total_bits)),
                        ("assessments", ints(&s.assessments)),
                        ("maintains", ints(&s.maintains)),
                        (
                            "quartiles",
                            arr(&s.quartiles, |q| q.as_ref().map_or(Json::Null, |l| strs(l))),
                        ),
                    ])
                }),
            ),
        ])
    }

    fn from_json(json: &Json) -> Result<MixSummary, String> {
        let schemes = arr_field(json, "schemes")?
            .iter()
            .map(|s| {
                Ok(SchemeSummary {
                    kind: str_field(s, "kind")?,
                    ipc: vec_field(s, "ipc", Json::as_f64)?,
                    total_bits: vec_field(s, "total_bits", Json::as_f64)?,
                    assessments: vec_field(s, "assessments", as_u64)?,
                    maintains: vec_field(s, "maintains", as_u64)?,
                    quartiles: vec_field(s, "quartiles", |q| match q {
                        Json::Null => Some(None),
                        labels => {
                            let labels: Vec<String> = labels
                                .as_arr()?
                                .iter()
                                .map(|l| l.as_str().map(str::to_string))
                                .collect::<Option<_>>()?;
                            <[String; 5]>::try_from(labels).ok().map(Some)
                        }
                    })?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        check_kinds(schemes.iter().map(|s| &s.kind), &SchemeKind::ALL)?;
        let labels = vec_field(json, "labels", |l| l.as_str().map(str::to_string))?;
        let sensitive = vec_field(json, "sensitive", Json::as_bool)?;
        let n = labels.len();
        let misshapen = schemes.iter().any(|s| {
            [
                s.ipc.len(),
                s.total_bits.len(),
                s.assessments.len(),
                s.maintains.len(),
                s.quartiles.len(),
            ] != [n; 5]
        });
        if sensitive.len() != n || misshapen {
            return Err(format!("per-domain vectors do not all have {n} entries"));
        }
        Ok(MixSummary {
            mix_id: usize::try_from(int_field(json, "mix_id")?)
                .map_err(|_| "'mix_id' does not fit usize".to_string())?,
            labels,
            sensitive,
            total_demand_mb: num_field(json, "total_demand_mb")?,
            schemes,
        })
    }
}

/// Checks that `kinds` names exactly `expected`, in order.
pub(crate) fn check_kinds<'a>(
    kinds: impl Iterator<Item = &'a String>,
    expected: &[SchemeKind],
) -> Result<(), String> {
    let kinds: Vec<&String> = kinds.collect();
    if kinds
        .iter()
        .map(|k| k.as_str())
        .eq(expected.iter().map(|k| k.name()))
    {
        Ok(())
    } else {
        Err(format!(
            "schemes {kinds:?} are not the sweep's {expected:?}"
        ))
    }
}

/// Renders `values` as a JSON array, one element per value.
pub(crate) fn arr<T>(values: &[T], element: impl Fn(&T) -> Json) -> Json {
    Json::Arr(values.iter().map(element).collect())
}

fn as_u64(json: &Json) -> Option<u64> {
    json.as_i64().and_then(|i| u64::try_from(i).ok())
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))
}

/// Reads field `key` through `read`, naming the field on failure.
fn typed<'a, T>(
    json: &'a Json,
    key: &str,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    read(field(json, key)?).ok_or_else(|| format!("'{key}' is not {what}"))
}

pub(crate) fn arr_field<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], String> {
    typed(json, key, "an array", Json::as_arr)
}

pub(crate) fn str_field(json: &Json, key: &str) -> Result<String, String> {
    typed(json, key, "a string", |j| j.as_str().map(str::to_string))
}

pub(crate) fn num_field(json: &Json, key: &str) -> Result<f64, String> {
    typed(json, key, "a number", Json::as_f64)
}

pub(crate) fn int_field(json: &Json, key: &str) -> Result<u64, String> {
    typed(json, key, "a non-negative integer", as_u64)
}

/// Reads array field `key`, converting every element through `read`.
fn vec_field<T>(
    json: &Json,
    key: &str,
    read: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, String> {
    arr_field(json, key)?
        .iter()
        .map(|v| read(v).ok_or_else(|| format!("'{key}' has a mistyped element")))
        .collect()
}

/// The on-disk checkpoint directory for one sweep of `T` results.
#[derive(Debug)]
pub struct CheckpointStore<T> {
    dir: PathBuf,
    results: PhantomData<fn() -> T>,
}

impl<T: Checkpoint> CheckpointStore<T> {
    /// Opens (creating if needed) the checkpoint directory.
    ///
    /// # Errors
    ///
    /// [`UntangleError::Checkpoint`] when the directory cannot be
    /// created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<CheckpointStore<T>, UntangleError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| UntangleError::Checkpoint {
            path: dir.display().to_string(),
            reason: format!("cannot create directory: {e}"),
        })?;
        Ok(CheckpointStore {
            dir,
            results: PhantomData,
        })
    }

    /// The checkpoint path for item `id`.
    pub fn path_for(&self, id: usize) -> PathBuf {
        self.dir.join(T::file_name(id))
    }

    /// Persists one completed item through the durable [`Slot`]
    /// (checksummed header, `.tmp` + rename, fsync on the file and its
    /// parent directory), tagged with its fingerprint.
    ///
    /// # Errors
    ///
    /// [`UntangleError::Checkpoint`] on any I/O failure; callers treat
    /// this as best-effort (the sweep result is unaffected, only
    /// resumability of this item is lost).
    pub fn save(&self, result: &T, fingerprint: &str) -> Result<(), UntangleError> {
        let path = self.path_for(result.id());
        let payload = Json::obj(vec![
            ("version", Json::Int(i64::from(FORMAT_VERSION))),
            ("fingerprint", Json::Str(fingerprint.to_string())),
            (T::PAYLOAD_KEY, result.to_json()),
        ]);
        Slot::new(&path)
            .store((payload.render() + "\n").as_bytes())
            .map_err(|e| UntangleError::Checkpoint {
                path: path.display().to_string(),
                reason: e.to_string(),
            })
    }

    /// Loads the checkpoint for item `id`.
    ///
    /// `Ok(Some(_))` means a valid checkpoint carrying the expected
    /// fingerprint; `Ok(None)` means "recompute, nothing wrong" — the
    /// file is missing or was written under different sweep settings
    /// (version or fingerprint mismatch).
    ///
    /// # Errors
    ///
    /// [`UntangleError::Checkpoint`] when a file is *present but
    /// damaged*: truncated, bit-flipped, carrying trailing garbage, or
    /// (despite an intact checksum) unparsable or misshapen. The slot
    /// header makes every strict byte prefix of a checkpoint
    /// detectable, so a torn file can never be half-read. Callers log
    /// the diagnostic and recompute the item fresh — the error is
    /// recoverable by design.
    pub fn load(&self, id: usize, fingerprint: &str) -> Result<Option<T>, UntangleError> {
        let path = self.path_for(id);
        let corrupt = |reason: String| UntangleError::Checkpoint {
            path: path.display().to_string(),
            reason,
        };
        let bytes = match Slot::new(&path)
            .load()
            .map_err(|e| corrupt(e.to_string()))?
        {
            SlotState::Missing => return Ok(None),
            SlotState::Corrupt { reason } => return Err(corrupt(reason)),
            SlotState::Valid(bytes) => bytes,
        };
        let text =
            String::from_utf8(bytes).map_err(|_| corrupt("payload is not UTF-8".to_string()))?;
        let json = Json::parse(&text).map_err(|e| corrupt(format!("unparsable payload: {e}")))?;
        // Version / fingerprint mismatches are not corruption: the file
        // is intact, just written under different settings.
        let matches = json.get("version").and_then(Json::as_i64) == Some(i64::from(FORMAT_VERSION))
            && json.get("fingerprint").and_then(Json::as_str) == Some(fingerprint);
        if !matches {
            return Ok(None);
        }
        let result = field(&json, T::PAYLOAD_KEY)
            .and_then(T::from_json)
            .map_err(corrupt)?;
        // A checkpoint renamed across items cannot leak into the wrong
        // slot (the fingerprint covers the id, but be explicit).
        Ok((result.id() == id).then_some(result))
    }
}

/// What a resumable sweep produced.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// Results in item order; `None` where the item failed (see
    /// `failures` and `errors`).
    pub results: Vec<Option<T>>,
    /// Every panicked attempt, recovered or not, in deterministic
    /// `(item, attempt)` order.
    pub failures: Vec<ItemFailure>,
    /// Typed errors, as `(item index, message)`.
    pub errors: Vec<(usize, String)>,
    /// Items restored from checkpoints instead of recomputed.
    pub resumed: usize,
}

impl<T> SweepOutcome<T> {
    /// Whether every item produced a result.
    pub fn is_complete(&self) -> bool {
        self.results.iter().all(Option::is_some)
    }
}

/// The resumable sweep engine: `run(i, &items[i])` for every item behind
/// [`par_map_isolated`] (panic isolation, `retry`), checkpointed through
/// `store`.
///
/// With `resume` set, items whose checkpoint carries
/// `fingerprint(i, &items[i])` load instead (`engine.checkpoint_hits`);
/// a damaged one is diagnosed (`engine.checkpoint_corrupt`) and
/// recomputed, so corruption can degrade resume, never results. Each
/// computed item is checkpointed **by its worker the moment it
/// completes** (`engine.checkpoint_writes`), resume or not; a failed
/// write only costs that item's resumability. A `run` error lands in
/// [`SweepOutcome::errors`] and the sweep moves on.
pub fn run_resumable<T, FP, R>(
    items: &[T::Item],
    fingerprint: FP,
    run: R,
    store: Option<&CheckpointStore<T>>,
    resume: bool,
    retry: RetryPolicy,
) -> SweepOutcome<T>
where
    T: Checkpoint + Send,
    T::Item: Sync,
    FP: Fn(usize, &T::Item) -> String,
    R: Fn(usize, &T::Item) -> Result<T, UntangleError> + Sync,
{
    let fingerprints: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(i, item)| fingerprint(i, item))
        .collect();
    // `Ok(None)` (missing, or written under other settings) recomputes
    // silently; a damaged checkpoint recomputes after a diagnostic.
    let mut results: Vec<Option<T>> = items
        .iter()
        .zip(&fingerprints)
        .map(
            |(item, fp)| match store.filter(|_| resume)?.load(T::item_id(item), fp) {
                Ok(hit) => hit,
                Err(e) => {
                    obs::counter_add("engine.checkpoint_corrupt", 1);
                    obs::diag!("warning: {e}; recomputing item {} fresh", T::item_id(item));
                    None
                }
            },
        )
        .collect();
    let resumed = results.iter().flatten().count();
    if resumed > 0 {
        obs::counter_add("engine.checkpoint_hits", resumed as u64);
    }

    let pending: Vec<usize> = (0..items.len()).filter(|&i| results[i].is_none()).collect();
    let isolated = par_map_isolated(pending.len(), retry, |j| -> Result<T, UntangleError> {
        let i = pending[j];
        let result = run(i, &items[i])?;
        if let Some(store) = store {
            match store.save(&result, &fingerprints[i]) {
                Ok(()) => obs::counter_add("engine.checkpoint_writes", 1),
                Err(e) => obs::diag!("warning: {e} (item {} will not be resumable)", result.id()),
            }
        }
        Ok(result)
    });

    let mut errors = Vec::new();
    for (j, slot) in isolated.results.into_iter().enumerate() {
        match slot {
            Some(Ok(result)) => results[pending[j]] = Some(result),
            Some(Err(e)) => errors.push((pending[j], e.to_string())),
            None => {}
        }
    }
    // Failure records carry pending-list positions; map them back to
    // item-list positions so reports name the right item.
    let mut failures = isolated.failures;
    for failure in &mut failures {
        failure.item = pending[failure.item];
    }
    SweepOutcome {
        results,
        failures,
        errors,
        resumed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use untangle_workloads::mix::mix_by_id;

    fn sample_summary(mix_id: usize) -> MixSummary {
        let scheme = |kind: SchemeKind, with_samples: bool| SchemeSummary {
            kind: kind.name().to_string(),
            ipc: vec![1.25, 0.1 + 0.2],
            total_bits: vec![12.5, 0.0],
            assessments: vec![40, 0],
            maintains: vec![36, 0],
            quartiles: if with_samples {
                vec![
                    Some([
                        "1 MB".into(),
                        "1 MB".into(),
                        "2 MB".into(),
                        "2 MB".into(),
                        "4 MB".into(),
                    ]),
                    None,
                ]
            } else {
                vec![None, None]
            },
        };
        MixSummary {
            mix_id,
            labels: vec!["mcf_0".into(), "povray_0".into()],
            sensitive: vec![true, false],
            total_demand_mb: 18.5,
            schemes: SchemeKind::ALL
                .into_iter()
                .map(|k| scheme(k, k != SchemeKind::Static))
                .collect(),
        }
    }

    #[test]
    fn summary_roundtrips_bit_identically() {
        let original = sample_summary(3);
        let parsed =
            MixSummary::from_json(&Json::parse(&original.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, original);
        // Float fields survive exactly, not approximately.
        assert_eq!(parsed.schemes[0].ipc[1].to_bits(), (0.1 + 0.2f64).to_bits());
    }

    #[test]
    fn derived_metrics_guard_zero_assessments() {
        let s = sample_summary(1);
        let leak = s.leakage_per_assessment(SchemeKind::Untangle);
        assert_eq!(leak, vec![12.5 / 40.0, 0.0]);
        assert!((s.maintain_fraction() - 36.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn store_roundtrips_and_rejects_mismatches() {
        let dir = std::env::temp_dir().join("untangle_ckpt_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let summary = sample_summary(7);
        let opts = DinkelbachOptions::default();
        let fp = sweep_fingerprint(7, 0.01, 0xfeed, &opts);

        assert!(
            store.load(7, &fp).unwrap().is_none(),
            "empty store has no items"
        );
        store.save(&summary, &fp).unwrap();
        assert_eq!(store.load(7, &fp).unwrap(), Some(summary.clone()));

        // A different scale produces a different fingerprint: a clean
        // skip (`Ok(None)`), not corruption.
        let other = sweep_fingerprint(7, 0.02, 0xfeed, &opts);
        assert_ne!(fp, other);
        assert!(store.load(7, &other).unwrap().is_none());

        // A file without the slot header (e.g. a pre-version-3
        // checkpoint, or hand-damaged bytes) is *detected* as corrupt —
        // a recoverable diagnostic, never a silent parse.
        std::fs::write(store.path_for(7), "{ torn").unwrap();
        let err = store.load(7, &fp).unwrap_err();
        assert!(
            matches!(err, UntangleError::Checkpoint { .. }),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_and_trailing_garbage_is_detected() {
        // Regression test for torn checkpoint files: every strict byte
        // prefix of a saved checkpoint — a kill at any point of a
        // non-atomic write — must load as a *detected* corruption, and
        // so must appended garbage. Nothing may silently parse.
        let dir = std::env::temp_dir().join("untangle_ckpt_truncation_sweep");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let summary = sample_summary(5);
        let fp = sweep_fingerprint(5, 0.01, 0xfeed, &DinkelbachOptions::default());
        store.save(&summary, &fp).unwrap();
        let path = store.path_for(5);
        let full = std::fs::read(&path).unwrap();
        assert!(full.len() > 64, "checkpoint should be non-trivial");

        for len in 0..full.len() {
            std::fs::write(&path, &full[..len]).unwrap();
            let result = store.load(5, &fp);
            assert!(
                result.is_err(),
                "{len}-byte prefix of a {}-byte checkpoint must be detected, got {result:?}",
                full.len()
            );
        }

        let mut padded = full.clone();
        padded.extend_from_slice(b"tail");
        std::fs::write(&path, &padded).unwrap();
        assert!(
            store.load(5, &fp).is_err(),
            "trailing garbage must be detected"
        );

        // The intact bytes still load — detection is precise.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(store.load(5, &fp).unwrap(), Some(summary));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_every_input() {
        let opts = DinkelbachOptions::default();
        let base = sweep_fingerprint(1, 0.01, 0xfeed, &opts);
        assert_ne!(base, sweep_fingerprint(2, 0.01, 0xfeed, &opts));
        assert_ne!(base, sweep_fingerprint(1, 0.011, 0xfeed, &opts));
        assert_ne!(base, sweep_fingerprint(1, 0.01, 0xbeef, &opts));
        assert_eq!(base, sweep_fingerprint(1, 0.01, 0xfeed, &opts));
    }

    #[test]
    fn fingerprint_covers_every_solver_option() {
        // Regression test for the stale-resume bug: changing any
        // DinkelbachOptions field used to leave the fingerprint (and
        // therefore resumed checkpoints) unchanged.
        let defaults = DinkelbachOptions::default();
        let base = sweep_fingerprint(1, 0.01, 0xfeed, &defaults);
        let variants = [
            DinkelbachOptions {
                tolerance: 1e-6,
                ..defaults.clone()
            },
            DinkelbachOptions {
                max_outer_iterations: 32,
                ..defaults.clone()
            },
            DinkelbachOptions {
                max_inner_iterations: 2000,
                ..defaults.clone()
            },
            DinkelbachOptions {
                inner_gap_tolerance: 1e-8,
                ..defaults.clone()
            },
            DinkelbachOptions {
                upper_bound_margin: 1e-5,
                ..defaults.clone()
            },
            DinkelbachOptions {
                max_margin_doublings: 12,
                ..defaults.clone()
            },
        ];
        for (i, opts) in variants.iter().enumerate() {
            assert_ne!(
                base,
                sweep_fingerprint(1, 0.01, 0xfeed, opts),
                "option variant {i} must change the fingerprint"
            );
        }
        assert_eq!(base, sweep_fingerprint(1, 0.01, 0xfeed, &defaults.clone()));
    }

    #[test]
    fn solver_config_change_invalidates_saved_checkpoint() {
        // End-to-end: an item checkpointed under the default solver
        // options must NOT resume once the tolerance changes.
        let dir = std::env::temp_dir().join("untangle_ckpt_solver_cfg");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let summary = sample_summary(3);
        let defaults = DinkelbachOptions::default();
        let fp_default = sweep_fingerprint(3, 0.01, 0xfeed, &defaults);
        store.save(&summary, &fp_default).unwrap();
        assert_eq!(store.load(3, &fp_default).unwrap(), Some(summary.clone()));

        let loosened = DinkelbachOptions {
            tolerance: 1e-6,
            ..defaults
        };
        let fp_loosened = sweep_fingerprint(3, 0.01, 0xfeed, &loosened);
        assert!(
            store.load(3, &fp_loosened).unwrap().is_none(),
            "checkpoint computed under different solver options must be recomputed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Captured before the fingerprint moved onto the shared
        // `untangle_durable::fnv1a`: a silent re-hash would orphan
        // every existing checkpoint.
        assert_eq!(
            sweep_fingerprint(1, 0.01, 0xfeed, &DinkelbachOptions::default()),
            "743e60b4e83a128a"
        );
    }

    #[test]
    fn misshapen_checkpoints_are_rejected_and_recomputed() {
        // Regression test: a checkpoint with an intact checksum and the
        // expected fingerprint but the wrong shape used to load, and a
        // missing scheme then panicked `MixSummary::scheme`.
        let dir = std::env::temp_dir().join("untangle_ckpt_misshapen");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let mix = mix_by_id(3).unwrap();
        let fp = |_: usize, m: &Mix| sweep_fingerprint(m.id, 0.01, 0xfeed, &Default::default());
        let fresh = sample_summary(3);
        let mut reordered = fresh.clone();
        reordered.schemes.swap(0, 1);
        let mut missing = fresh.clone();
        missing.schemes.pop();
        let mut short = fresh.clone();
        short.schemes[2].ipc.pop();
        for bad in [reordered, missing, short] {
            let payload = Json::obj(vec![
                ("version", Json::Int(i64::from(FORMAT_VERSION))),
                ("fingerprint", Json::Str(fp(0, &mix))),
                ("summary", bad.to_json()),
            ]);
            Slot::new(store.path_for(3))
                .store(payload.render().as_bytes())
                .unwrap();
            let err = store.load(3, &fp(0, &mix)).unwrap_err();
            assert!(matches!(err, UntangleError::Checkpoint { .. }), "{err:?}");

            let outcome = run_resumable(
                std::slice::from_ref(&mix),
                fp,
                |_, m: &Mix| Ok(sample_summary(m.id)),
                Some(&store),
                true,
                RetryPolicy::default(),
            );
            assert_eq!(outcome.resumed, 0, "a misshapen checkpoint never resumes");
            assert_eq!(outcome.results, vec![Some(fresh.clone())]);
            assert_eq!(store.load(3, &fp(0, &mix)).unwrap(), Some(fresh.clone()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
