//! Correctness checks on a round's outcomes. Each compares against a
//! property or an independent number (Table 1's volumes, the paper's
//! claim), never against a stored copy of earlier output. Failed cells are
//! counted, not checked: their counters describe a run that did not
//! finish.

use std::collections::BTreeMap;

use simtime::Nanos;
use simulate::CollectorKind;
use workloads::BenchmarkSpec;

use crate::workload::{Cell, CellOutcome, JvmOutcome, DYNAMIC_AVAILABLE};

/// Every check that applies to `outcomes`, a round of `cells`; the first
/// violation found is returned.
pub fn check_round(cells: &[Cell], outcomes: &[CellOutcome]) -> Result<(), String> {
    alloc_volume(outcomes)?;
    alloc_identical(outcomes)?;
    pauses_within_exec(outcomes)?;
    bc_wins_under_heaviest_pressure(cells, outcomes)
}

fn ok_jvms(outcomes: &[CellOutcome]) -> impl Iterator<Item = (usize, &JvmOutcome)> {
    outcomes
        .iter()
        .filter(|c| c.ok())
        .flat_map(|c| c.jvms.iter().map(move |j| (c.cell, j)))
}

/// Largest object the synthetic generator can draw for `spec`: a large
/// data array of up to 5999 words, or an array or scalar of under twice
/// the spec's mean length.
pub fn max_object_bytes(spec: &BenchmarkSpec) -> u64 {
    let words = |n: u64| 8 + 4 * n;
    let array = words(2 * u64::from(spec.mean_array_len.max(2)) - 1);
    let scalar = words(2 * u64::from(spec.mean_scalar_words.max(3)) - 1);
    let large = if spec.large_fraction > 0.0 {
        words(5_999)
    } else {
        0
    };
    array.max(scalar).max(large)
}

/// Each JVM allocates Table 1's total at its scale, overshooting by less
/// than one object (the program stops once the volume is reached).
pub fn alloc_volume(outcomes: &[CellOutcome]) -> Result<(), String> {
    for (cell, j) in ok_jvms(outcomes) {
        let expected = (j.prog.spec.paper_total_alloc as f64 * j.prog.scale) as u64;
        let got = j.gc.bytes_allocated;
        if got < expected || got - expected >= max_object_bytes(&j.prog.spec) {
            return Err(format!(
                "cell {cell}: {} allocated {got} bytes, Table 1 x scale gives {expected}",
                j.prog.spec.name
            ));
        }
    }
    Ok(())
}

/// Objects and bytes allocated depend only on the program (benchmark,
/// scale, seed), never on the collector.
pub fn alloc_identical(outcomes: &[CellOutcome]) -> Result<(), String> {
    let mut seen: BTreeMap<(&str, u64, u64), (u64, u64, usize)> = BTreeMap::new();
    for (cell, j) in ok_jvms(outcomes) {
        let key = (j.prog.spec.name, j.prog.scale.to_bits(), j.prog.seed);
        let got = (j.gc.objects_allocated, j.gc.bytes_allocated);
        let first = *seen.entry(key).or_insert((got.0, got.1, cell));
        if (first.0, first.1) != got {
            return Err(format!(
                "{} seed {}: cell {cell} allocated {got:?} objects/bytes, cell {} allocated {:?}",
                j.prog.spec.name,
                j.prog.seed,
                first.2,
                (first.0, first.1)
            ));
        }
    }
    Ok(())
}

/// A JVM cannot be paused for longer than it ran.
pub fn pauses_within_exec(outcomes: &[CellOutcome]) -> Result<(), String> {
    for (cell, j) in ok_jvms(outcomes) {
        let paused: Nanos = j.pauses.iter().map(|p| p.duration).sum();
        if paused > j.exec {
            return Err(format!(
                "cell {cell}: {} paused {paused} in an execution of {}",
                j.prog.spec.name, j.exec
            ));
        }
    }
    Ok(())
}

/// The paper's claim: at the heaviest dynamic pressure, BC's execution
/// time and mean pause are below those of every non-BC collector. Applies
/// only to rounds that ran the dynamic-pressure sweep.
pub fn bc_wins_under_heaviest_pressure(
    cells: &[Cell],
    outcomes: &[CellOutcome],
) -> Result<(), String> {
    let heaviest = DYNAMIC_AVAILABLE[DYNAMIC_AVAILABLE.len() - 1];
    let at_heaviest: Vec<(CollectorKind, &CellOutcome)> = outcomes
        .iter()
        .filter(|o| cells[o.cell].available == Some(heaviest))
        .map(|o| (cells[o.cell].collector, o))
        .collect();
    if at_heaviest.is_empty() {
        return Ok(());
    }
    let summary = |o: &CellOutcome| {
        let j = &o.jvms[0];
        let total: u64 = j.pauses.iter().map(|p| p.duration.as_nanos()).sum();
        (j.exec, total.checked_div(j.pauses.len() as u64).map(Nanos))
    };
    let Some(&(_, bc)) = at_heaviest.iter().find(|(k, _)| *k == CollectorKind::Bc) else {
        return Err("no BC cell at the heaviest pressure".into());
    };
    if !bc.ok() {
        return Err("BC failed at the heaviest pressure".into());
    }
    let (bc_exec, bc_pause) = summary(bc);
    for &(kind, o) in &at_heaviest {
        if matches!(kind, CollectorKind::Bc | CollectorKind::BcResizeOnly) || !o.ok() {
            continue;
        }
        let (exec, pause) = summary(o);
        if bc_exec >= exec {
            return Err(format!(
                "BC took {bc_exec} at the heaviest pressure, {} took {exec}",
                kind.label()
            ));
        }
        let (bp, p) = (
            bc_pause.unwrap_or(Nanos::ZERO),
            pause.unwrap_or(Nanos::ZERO),
        );
        if bp >= p {
            return Err(format!(
                "BC's mean pause {bp} at the heaviest pressure is not below {}'s {p}",
                kind.label()
            ));
        }
    }
    Ok(())
}

/// Every round repeats the first exactly: the simulator is deterministic.
pub fn rounds_identical(first: &[CellOutcome], round: &[CellOutcome]) -> Result<(), String> {
    match first.iter().zip(round).find(|(a, b)| a != b) {
        None if first.len() == round.len() => Ok(()),
        None => Err("a round ran a different number of cells".into()),
        Some((a, _)) => Err(format!("cell {} differs between rounds", a.cell)),
    }
}

/// The traced run reproduces every simulated counter of the timed run.
pub fn traced_matches_timed(timed: &[CellOutcome], traced: &[CellOutcome]) -> Result<(), String> {
    rounds_identical(timed, traced).map_err(|e| format!("traced run: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Prog, Workload};
    use heap::GcStats;
    use simtime::{PauseKind, PauseRecord};
    use vmm::VmStats;
    use workloads::spec;

    fn jvm(name: &str, exec_ms: u64, pauses_ms: &[u64]) -> JvmOutcome {
        let prog = Prog {
            spec: spec(name).expect("Table 1 benchmark"),
            scale: 0.01,
            seed: 5,
        };
        let bytes = (prog.spec.paper_total_alloc as f64 * prog.scale) as u64;
        JvmOutcome {
            prog,
            ok: true,
            exec: Nanos::from_millis(exec_ms),
            pauses: pauses_ms
                .iter()
                .map(|&ms| PauseRecord {
                    start: Nanos::ZERO,
                    duration: Nanos::from_millis(ms),
                    kind: PauseKind::Full,
                    major_faults: 0,
                })
                .collect(),
            gc: GcStats {
                objects_allocated: 1000,
                bytes_allocated: bytes + 10,
                ..GcStats::default()
            },
            vm: VmStats::default(),
            pages_peak: 1,
        }
    }

    fn cell(index: usize, jvms: Vec<JvmOutcome>) -> CellOutcome {
        CellOutcome {
            cell: index,
            timed_out: false,
            jvms,
        }
    }

    fn clean() -> Vec<CellOutcome> {
        vec![
            cell(0, vec![jvm("jython", 500, &[1, 2])]),
            cell(1, vec![jvm("jython", 400, &[3])]),
            cell(
                2,
                vec![jvm("pseudoJBB", 900, &[4]), jvm("pseudoJBB", 800, &[])],
            ),
        ]
    }

    #[test]
    fn clean_outcomes_pass() {
        let c = clean();
        alloc_volume(&c).unwrap();
        alloc_identical(&c).unwrap();
        pauses_within_exec(&c).unwrap();
        rounds_identical(&c, &c.clone()).unwrap();
    }

    #[test]
    fn alloc_volume_fires() {
        let mut c = clean();
        c[0].jvms[0].gc.bytes_allocated -= 11; // one byte short of Table 1
        assert!(alloc_volume(&c).is_err());
        let mut c = clean();
        let spec = c[1].jvms[0].prog.spec;
        c[1].jvms[0].gc.bytes_allocated += max_object_bytes(&spec);
        assert!(alloc_volume(&c).is_err());
    }

    #[test]
    fn alloc_identical_fires() {
        let mut c = clean();
        c[1].jvms[0].gc.objects_allocated += 1;
        assert!(alloc_identical(&c).is_err());
        let mut c = clean();
        c[2].jvms[1].gc.bytes_allocated += 1;
        assert!(alloc_identical(&c).is_err());
    }

    #[test]
    fn pauses_within_exec_fires() {
        let mut c = clean();
        c[0].jvms[0].exec = Nanos::from_millis(2);
        assert!(pauses_within_exec(&c).is_err());
    }

    #[test]
    fn failed_cells_are_counted_not_checked() {
        let mut c = clean();
        c[0].jvms[0].ok = false;
        c[0].jvms[0].exec = Nanos::ZERO;
        c[0].jvms[0].gc.bytes_allocated = 0;
        assert!(!c[0].ok());
        pauses_within_exec(&c).unwrap();
        alloc_volume(&c).unwrap();
        let mut c = clean();
        c[2].timed_out = true;
        assert!(!c[2].ok() && c[1].ok());
    }

    #[test]
    fn round_and_trace_comparisons_fire() {
        let c = clean();
        let mut d = c.clone();
        d[2].jvms[1].vm.major_faults += 1;
        assert!(rounds_identical(&c, &d).is_err());
        assert!(traced_matches_timed(&c, &d).is_err());
        assert!(rounds_identical(&c, &c[..2]).is_err());
        let mut d = c.clone();
        d[1].jvms[0].pages_peak += 1;
        assert!(traced_matches_timed(&c, &d).is_err());
    }

    /// Outcomes for the paging cells at the heaviest pressure: BC 5 s with
    /// 10 ms pauses, BC-resize 6 s, every baseline 30 s with 1 s pauses.
    fn heaviest() -> (Vec<crate::workload::Cell>, Vec<CellOutcome>) {
        let w = Workload::at_scale("paging", 1, 0.01);
        let heaviest = DYNAMIC_AVAILABLE[DYNAMIC_AVAILABLE.len() - 1];
        let outcomes = w
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.available == Some(heaviest))
            .map(|(i, c)| {
                let j = match c.collector {
                    CollectorKind::Bc => jvm("pseudoJBB", 5_000, &[10, 10]),
                    CollectorKind::BcResizeOnly => jvm("pseudoJBB", 6_000, &[2_000]),
                    _ => jvm("pseudoJBB", 30_000, &[1_000, 1_000]),
                };
                cell(i, vec![j])
            })
            .collect();
        (w.cells, outcomes)
    }

    fn index_of(cells: &[crate::workload::Cell], o: &[CellOutcome], kind: CollectorKind) -> usize {
        o.iter()
            .position(|c| cells[c.cell].collector == kind)
            .expect("cell present")
    }

    #[test]
    fn bc_claim_fires() {
        let (cells, o) = heaviest();
        assert_eq!(o.len(), 6);
        bc_wins_under_heaviest_pressure(&cells, &o).unwrap();

        let mut slow = o.clone();
        let gencopy = index_of(&cells, &o, CollectorKind::GenCopy);
        slow[gencopy].jvms[0].exec = Nanos::from_millis(4_000);
        assert!(bc_wins_under_heaviest_pressure(&cells, &slow).is_err());

        let mut paused = o.clone();
        let bc = index_of(&cells, &o, CollectorKind::Bc);
        paused[bc].jvms[0].pauses[0].duration = Nanos::from_millis(5_000);
        assert!(bc_wins_under_heaviest_pressure(&cells, &paused).is_err());

        let mut failed = o.clone();
        failed[bc].jvms[0].ok = false;
        assert!(bc_wins_under_heaviest_pressure(&cells, &failed).is_err());
    }
}
