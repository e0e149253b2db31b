//! The per-field greedy/beam search.
//!
//! Each field is tuned independently: its sampled value column (plus the
//! PC column) fully determines its streams, so candidate configurations
//! are scored in isolation by [`tcgen_engine::score_candidates`] and
//! compared by post-compressed stream size. Ties break toward smaller
//! predictor tables, then toward the earlier-enumerated candidate, so
//! the winner never depends on evaluation timing.

use std::sync::Arc;

use tcgen_engine::{score_candidates, CandidateScore, OccTable};
use tcgen_predictors::predictor_candidates;
use tcgen_spec::validate::{MAX_HEIGHT, MAX_L1, MAX_L2, MAX_ORDER};
use tcgen_spec::{FieldSpec, PredictorSpec};
use tcgen_telemetry::Recorder;

use crate::{TuneError, TunerOptions};

/// Most predictions (codes) one field may declare; code 255 is the miss.
const MAX_PREDICTIONS: u32 = 255;

/// Which search stage produced an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The unmodified base configuration.
    Base,
    /// One candidate predictor on its own.
    Single,
    /// A beam extension: a surviving configuration plus one predictor.
    Beam,
    /// An occupancy-guided table resize of the beam winner.
    Sizing,
}

impl Stage {
    /// Stable lower-case name, used in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Base => "base",
            Stage::Single => "single",
            Stage::Beam => "beam",
            Stage::Sizing => "sizing",
        }
    }
}

/// One scored candidate configuration.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Human-readable configuration, e.g. `L1 = 65536, L2 = 1024: DFCM1[2], LV[2]`.
    pub label: String,
    /// Which stage proposed it.
    pub stage: Stage,
    /// Post-compressed size of its code + miss-value streams on the
    /// sample — the search objective.
    pub packed_bytes: u64,
    /// Value-table bytes it allocates — the tie-breaker.
    pub table_bytes: u64,
    /// Records the sample saw no predictor get right.
    pub misses: u64,
    /// Whether this configuration won the field.
    pub chosen: bool,
}

/// The full evaluation log of one field's search.
#[derive(Debug, Clone)]
pub struct FieldSearch {
    /// The field number as written in the specification.
    pub field_number: u32,
    /// Every configuration evaluated, in evaluation order.
    pub evaluations: Vec<Evaluation>,
}

pub(crate) struct FieldResult {
    pub field: FieldSpec,
    pub search: FieldSearch,
}

fn label(field: &FieldSpec) -> String {
    let preds: Vec<String> = field.predictors.iter().map(|p| p.to_string()).collect();
    format!("L1 = {}, L2 = {}: {}", field.l1, field.l2, preds.join(", "))
}

/// Identity of a configuration up to predictor list order (the order
/// only renumbers codes), so permuted duplicates don't spend budget.
fn config_key(field: &FieldSpec) -> String {
    let mut preds: Vec<String> = field.predictors.iter().map(|p| p.to_string()).collect();
    preds.sort();
    format!("{}/{}/{}", field.l1, field.l2, preds.join(","))
}

struct Entry {
    field: FieldSpec,
    score: CandidateScore,
    stage: Stage,
}

struct SearchState<'a> {
    entries: Vec<Entry>,
    keys: Vec<String>,
    budget: usize,
    pcs: &'a Arc<Vec<u64>>,
    values: &'a Arc<Vec<u64>>,
    options: &'a TunerOptions,
    tel: Option<&'a Recorder>,
}

impl SearchState<'_> {
    /// Scores every not-yet-seen configuration in `batch`, in order, up
    /// to the remaining budget. The batch fans out onto the engine's
    /// worker pool in one call.
    fn evaluate(&mut self, batch: Vec<FieldSpec>, stage: Stage) -> Result<(), TuneError> {
        let mut accepted: Vec<FieldSpec> = Vec::new();
        for field in batch {
            if self.budget == 0 {
                break;
            }
            let key = config_key(&field);
            if self.keys.contains(&key) {
                continue;
            }
            self.keys.push(key);
            self.budget -= 1;
            accepted.push(field);
        }
        if accepted.is_empty() {
            return Ok(());
        }
        let scores =
            score_candidates(&accepted, self.pcs, self.values, &self.options.engine, self.tel)?;
        for (field, score) in accepted.into_iter().zip(scores) {
            self.entries.push(Entry { field, score, stage });
        }
        Ok(())
    }

    /// Index of the current best entry: smallest packed size, then
    /// smallest tables, then earliest evaluated.
    fn best(&self) -> usize {
        (0..self.entries.len())
            .min_by_key(|&i| {
                let e = &self.entries[i];
                (e.score.packed_bytes, e.score.table_bytes, i)
            })
            .expect("the base configuration is always evaluated")
    }

    /// The `width` best configurations, best first.
    fn beam(&self, width: usize) -> Vec<FieldSpec> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&i| {
            let e = &self.entries[i];
            (e.score.packed_bytes, e.score.table_bytes, i)
        });
        order.into_iter().take(width).map(|i| self.entries[i].field.clone()).collect()
    }
}

/// The predictor menu for beam extension: candidates whose solo run hit
/// at least once, minus those a same-family, same-order, shorter sibling
/// already matches (extra height that predicts nothing only widens the
/// code alphabet).
fn surviving_menu(state: &SearchState<'_>, menu: &[PredictorSpec]) -> Vec<PredictorSpec> {
    let solo = |p: &PredictorSpec| {
        state
            .entries
            .iter()
            .find(|e| {
                e.stage == Stage::Single
                    && e.field.predictors.len() == 1
                    && e.field.predictors[0] == *p
            })
            .map(|e| &e.score)
    };
    let mut kept: Vec<PredictorSpec> = Vec::new();
    for p in menu {
        let Some(score) = solo(p) else { continue };
        if score.counts.iter().all(|&c| c == 0) {
            continue;
        }
        let dominated = kept.iter().any(|q| {
            q.kind == p.kind
                && q.order == p.order
                && q.height < p.height
                && solo(q).is_some_and(|s| s.packed_bytes <= score.packed_bytes)
        });
        if !dominated {
            kept.push(*p);
        }
    }
    kept
}

/// Power-of-two table sizes worth trying given the winner's occupancy:
/// shrink to twice the touched-line count when under a quarter full,
/// grow fourfold when at least half full.
fn size_options(current: u64, written: u64, total: u64, cap: u64) -> Vec<u64> {
    let mut opts = vec![current];
    let required = written.saturating_mul(2).next_power_of_two().max(1);
    if required < current {
        opts.push(required);
    }
    if total > 0 && written.saturating_mul(2) >= total && current < cap {
        opts.push((current * 4).min(cap));
    }
    opts
}

pub(crate) fn search_field(
    base: &FieldSpec,
    pcs: &Arc<Vec<u64>>,
    values: &Arc<Vec<u64>>,
    is_pc: bool,
    options: &TunerOptions,
    tel: Option<&Recorder>,
) -> Result<FieldResult, TuneError> {
    let mut state = SearchState {
        entries: Vec::new(),
        keys: Vec::new(),
        budget: options.budget_evals.max(1),
        pcs,
        values,
        options,
        tel,
    };

    // Stage A: the base, then every menu predictor on its own.
    state.evaluate(vec![base.clone()], Stage::Base)?;
    let menu: Vec<PredictorSpec> = predictor_candidates(&options.space)
        .into_iter()
        .filter(|p| p.height >= 1 && p.height <= MAX_HEIGHT && p.order <= MAX_ORDER)
        .collect();
    state.evaluate(
        menu.iter().map(|&p| base.with_predictors(vec![p])).collect(),
        Stage::Single,
    )?;

    // Stage B: beam search over predictor combinations.
    let menu = surviving_menu(&state, &menu);
    loop {
        let before = state.entries[state.best()].score.packed_bytes;
        let mut extensions: Vec<FieldSpec> = Vec::new();
        for cfg in state.beam(options.beam_width.max(1)) {
            if cfg.predictors.len() >= options.max_predictors.max(1) {
                continue;
            }
            for &p in &menu {
                if cfg.predictors.iter().any(|q| q.kind == p.kind && q.order == p.order) {
                    continue;
                }
                if cfg.prediction_count() + p.height > MAX_PREDICTIONS {
                    continue;
                }
                extensions.push(cfg.with_predictor(p));
            }
        }
        if extensions.is_empty() || state.budget == 0 {
            break;
        }
        state.evaluate(extensions, Stage::Beam)?;
        if state.entries[state.best()].score.packed_bytes >= before {
            break;
        }
    }

    // Stage C: occupancy-guided L1/L2 sizing of the winner.
    let winner = &state.entries[state.best()];
    let (w_field, occupancy) = (winner.field.clone(), winner.score.occupancy.clone());
    let l1_options = occupancy
        .iter()
        .find(|o| o.table == OccTable::L1)
        // The PC field's L1 is pinned to one by the validator.
        .filter(|_| !is_pc)
        .map_or_else(
            || vec![w_field.l1],
            |o| size_options(w_field.l1, o.lines_written, o.lines_total, MAX_L1),
        );
    let mut l2_demand = 0u64;
    let mut l2_grow = false;
    for occ in &occupancy {
        let order = match occ.table {
            OccTable::FcmL2 { order } | OccTable::DfcmL2 { order } => order,
            OccTable::L1 => continue,
        };
        let required = occ.lines_written.saturating_mul(2).next_power_of_two().max(1);
        l2_demand = l2_demand.max((required >> (order - 1)).max(1));
        l2_grow |= occ.lines_written.saturating_mul(2) >= occ.lines_total;
    }
    let l2_options = if l2_demand == 0 {
        // No second-level tables: L2 is inert, leave it alone.
        vec![w_field.l2]
    } else {
        let mut opts = vec![w_field.l2];
        if l2_demand < w_field.l2 {
            opts.push(l2_demand);
        }
        if l2_grow && w_field.l2 < MAX_L2 {
            opts.push((w_field.l2 * 4).min(MAX_L2));
        }
        opts
    };
    let mut resizes: Vec<FieldSpec> = Vec::new();
    for &l1 in &l1_options {
        for &l2 in &l2_options {
            if (l1, l2) != (w_field.l1, w_field.l2) {
                resizes.push(w_field.with_l1(l1).with_l2(l2));
            }
        }
    }
    state.evaluate(resizes, Stage::Sizing)?;

    let best = state.best();
    let evaluations = state
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| Evaluation {
            label: label(&e.field),
            stage: e.stage,
            packed_bytes: e.score.packed_bytes,
            table_bytes: e.score.table_bytes,
            misses: e.score.misses,
            chosen: i == best,
        })
        .collect();
    Ok(FieldResult {
        field: state.entries[best].field.clone(),
        search: FieldSearch { field_number: base.number, evaluations },
    })
}
